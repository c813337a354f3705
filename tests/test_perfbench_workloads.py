"""The benchmark's workloads still read the answers zlattice returns.

perfbench/workloads.py reads record fields (count, vectors, complete,
status, witness, delta*, invariant_factors, the period-domain fields) and
calls rank and induced_lattice() on embeddings.  This runs every enum,
structure and scan query of one seed once, through the benchmark's own
query preparation and checker, without touching perfbench/, and runs the
selftest's cases that alter a result with ``dataclasses.replace`` and
expect its checker to reject it.
"""

import sys
from pathlib import Path

import pytest

import zlattice

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("workload", ["enum", "structure", "scan"])
def test_every_query_answers_and_checks(workload, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import gen
    import workloads

    queries = workloads.prepare(zlattice, workload, getattr(gen, f"{workload}_queries")(4242))
    assert queries
    failed = [q.name for q in queries if not q.check(q.call())[0]]
    assert not failed, failed


@pytest.mark.parametrize("case", ["dropped_vector", "changed_witness"])
def test_checkers_reject_altered_results(case, monkeypatch, tmp_path):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import selftest

    getattr(selftest, f"test_checker_flags_a_{case}")(tmp_path)
