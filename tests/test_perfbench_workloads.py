"""The benchmark's workloads still read the answers zlattice returns.

perfbench/workloads.py reads record fields (count, vectors, complete,
status, witness, delta*, invariant_factors, the period-domain fields) and
calls rank and induced_lattice() on embeddings.  This runs every enum,
structure and scan query of one seed once, through the benchmark's own
query preparation and checker, without touching perfbench/.  It then
alters results with the records' own ``_replace`` and expects the checker
to reject them, and checks that a box-limited answer is marked as such.
"""

import sys
from pathlib import Path

import pytest

import zlattice

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture()
def bench(monkeypatch):
    """(gen, workloads) from perfbench/, imported without writing bytecode."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import gen
    import workloads

    return gen, workloads


def _queries(bench, workload, seed=1):
    """(raw query, prepared query) pairs of one seed."""
    gen, workloads = bench
    raw = getattr(gen, f"{workload}_queries")(seed)
    return list(zip(raw, workloads.prepare(zlattice, workload, raw)))


def _first(pairs, call):
    return next(q for r, q in pairs if r["call"] == call)


@pytest.mark.parametrize("workload", ["enum", "structure", "scan"])
def test_every_query_answers_and_checks(workload, bench):
    queries = [q for _, q in _queries(bench, workload, 4242)]
    assert queries
    failed = [q.name for q in queries if not q.check(q.call())[0]]
    assert not failed, failed


def _dropped_vector(bench):
    q = _first(_queries(bench, "enum"), "vectors_of_norm")
    res = q.call()
    assert q.check(res) == (True, False)
    dropped = res._replace(vectors=res.vectors[1:], count=res.count - 1)
    assert not q.check(dropped)[0]
    doubled = res._replace(vectors=res.vectors[:-1] + res.vectors[:1])
    assert not q.check(doubled)[0]


def _flipped_verdict(bench):
    q = _first(_queries(bench, "enum"), "is_nondegenerate")
    verdict, witnesses = q.call()
    assert q.check((verdict, witnesses))[0]
    assert not q.check((not verdict, witnesses))[0]
    q = _first(_queries(bench, "scan"), "model_degeneracy_scan")
    res = q.call()
    # the glue obstruction decides it exactly, so it is not box-limited
    assert q.check(res) == (True, False)
    assert not q.check(res._replace(status="degenerate"))[0]


def _changed_witness(bench):
    pairs = _queries(bench, "scan")
    q = _first(pairs, "da_degeneracy_scan")
    res = q.call()
    assert q.check(res) == (True, False)
    assert not q.check(res._replace(delta=(0, 1, 1, -1)))[0]
    q = next(q for r, q in pairs if r["name"].startswith("deep:b2"))
    res = q.call()
    assert q.check(res) == (True, False)
    assert not q.check(res._replace(witness=tuple(-c for c in res.witness)))[0]


_ALTERED = {"dropped_vector": _dropped_vector, "flipped_verdict": _flipped_verdict,
            "changed_witness": _changed_witness}


@pytest.mark.parametrize("case", _ALTERED)
def test_checkers_reject_altered_results(case, bench):
    _ALTERED[case](bench)


def test_box_limited_answer_checks_as_box_limited(bench):
    q = _first(_queries(bench, "scan"), "bounded_vectors_of_norm")
    res = q.call()
    assert not res.complete
    assert q.check(res) == (True, True)
