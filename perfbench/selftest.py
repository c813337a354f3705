"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

import gen
import run
import spans
import workloads

z = run.import_zlattice()
ROOT = Path(__file__).resolve().parent.parent


def one_pass(name: str, tmp_path, seed: int = 3):
    wl = run.Workload(name, seed, tmp_path)
    wl.setup()
    loop = run.Loop(wl)
    return wl, loop, loop.run(0)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_each_workload_answers_one_pass_correctly(name, tmp_path):
    wl, loop, res = one_pass(name, tmp_path)
    assert res["attempted"] == len(wl) and res["failed"] == 0
    assert len(loop.limited) == len(wl)


def test_inputs_depend_on_the_seed_alone():
    for name, make in gen.GENERATORS.items():
        assert make(5) == make(5), name
        assert make(5) != make(6), name
    assert gen.cli_inputs(5) == gen.cli_inputs(5)


def test_independent_counts():
    assert [gen.definite_count(1, 0, m) for m in (-2, -4, -6)] == [240, 2160, 6720]
    assert gen.definite_count(0, 8, -2) == 16
    assert gen.definite_count(0, 4, -4) == 24
    assert gen.box_count(["U"], 2, 1) == 2
    assert gen.invariant_factors([2, 4, 6, 1]) == [2, 2, 12]


def _query(wl, kind):
    i = next(k for k, q in enumerate(wl.raw) if q.get("call") == kind)
    return i, wl.queries[i]


def test_checker_flags_a_dropped_vector(tmp_path):
    wl = run.Workload("enum", 1, tmp_path)
    wl.setup()
    _, q = _query(wl, "vectors_of_norm")
    res = q.call()
    assert q.check(res) == (True, False)
    dropped = dataclasses.replace(res, vectors=res.vectors[1:], count=res.count - 1)
    assert not q.check(dropped)[0]
    doubled = dataclasses.replace(res, vectors=res.vectors[:-1] + res.vectors[:1])
    assert not q.check(doubled)[0]


def test_checker_flags_a_flipped_verdict(tmp_path):
    wl = run.Workload("enum", 1, tmp_path)
    wl.setup()
    _, q = _query(wl, "is_nondegenerate")
    verdict, witnesses = q.call()
    assert q.check((verdict, witnesses))[0]
    assert not q.check((not verdict, witnesses))[0]
    scan = run.Workload("scan", 1, tmp_path)
    scan.setup()
    _, q = _query(scan, "model_degeneracy_scan")
    res = q.call()
    assert q.check(res) == (True, True)
    flipped = dataclasses.replace(res, status="degenerate")
    assert not q.check(flipped)[0]


def test_checker_flags_a_changed_witness(tmp_path):
    wl = run.Workload("scan", 1, tmp_path)
    wl.setup()
    _, q = _query(wl, "da_degeneracy_scan")
    res = q.call()
    assert q.check(res) == (True, False)
    moved = dataclasses.replace(res, delta=(0, 1, 1, -1))
    assert not q.check(moved)[0]
    i = next(k for k, r in enumerate(wl.raw) if r["name"].startswith("deep:b2"))
    res = wl.queries[i].call()
    assert wl.queries[i].check(res) == (True, False)
    other = dataclasses.replace(res, witness=tuple(-c for c in res.witness))
    assert not wl.queries[i].check(other)[0]


def test_cli_checker_flags_a_wrong_count(tmp_path):
    files, facts = gen.cli_inputs(1)
    query = next(q for q in gen.cli_queries(1, facts) if q["argv"][:2] == ["roots", "e8.json"]
                 and "--json" in q["argv"])
    doc = {"count": 239, "complete": True, "vectors": []}
    assert not run.cliload.check_output(query, json.dumps(doc).encode(), files)[0]


def test_times_scale_by_the_reference(tmp_path, monkeypatch):
    """A machine running the reference at half speed halves every time."""
    wl = run.Workload("scan", 1, tmp_path)
    wl.setup()
    monkeypatch.setattr(wl, "reference", lambda: 2 * run.reference.NOMINAL_S["python"])
    res = run.Loop(wl).run(0)
    assert res["scale"] == 0.5
    assert [dt / 2 for _, dt in res["raw_latencies"]] == [dt for _, dt in res["latencies"]]
    assert run.setup_seconds([0.3, 0.1, 0.2], [0.1, 0.1]) == pytest.approx(
        0.2 * run.reference.NOMINAL_S["interpreter"] / 0.1)


def test_overflow_counts_as_failed(tmp_path):
    wl = run.Workload("scan", 1, tmp_path)
    wl.setup()
    L = z.make_lattice(tuple(tuple(r) for r in gen.diag([-2] * 12)))
    wl.raw = [{"name": "over-cap box", "call": "bounded_vectors_of_norm"}]
    wl.queries = [workloads.Query("over-cap box", lambda: z.bounded_vectors_of_norm(L, -2, 3),
                                  lambda r: (True, True))]
    loop = run.Loop(wl)
    res = loop.run(0)
    assert res["attempted"] == 1 and res["failed"] == 1 and res["correct"] == 0
    metrics = run.end_to_end(loop, res, ([1.0], [1.0]), wl)
    assert metrics["success_rate"] == 0.0
    assert metrics["latency_p90_ms"] == pytest.approx(1000.0 * res["wall"] * res["scale"])


def test_tracer_patches_every_binding_and_restores_them():
    import zlattice.cli
    import zlattice.involutions
    import zlattice.k3

    orig = zlattice.roots.bounded_vectors_of_norm
    tracer = spans.Tracer()
    tracer.install()
    try:
        for binding in (zlattice.bounded_vectors_of_norm, zlattice.roots.bounded_vectors_of_norm,
                        zlattice.involutions.bounded_vectors_of_norm,
                        zlattice.cli.bounded_vectors_of_norm):
            assert binding.__wrapped__ is orig
        assert zlattice.k3.constrained_roots.__wrapped__ is not None
        root = tracer.open("bench.query")
        zlattice.vectors_of_norm(zlattice.standard_lattice("E8(-1)"), -2)
        tracer.close(root)
    finally:
        tracer.uninstall()
    assert zlattice.bounded_vectors_of_norm is orig
    agg = spans.self_times(tracer.spans)
    assert agg["roots.vectors_of_norm"][0] == 1
    assert tracer.counters["roots.vectors_returned"] == 240
    total = tracer.spans[0][2] - tracer.spans[0][1]
    assert sum(v[1] for v in agg.values()) == pytest.approx(total)


def test_benchmark_file_matches_the_harness():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert bench["per_layer"] == spans.per_layer_spec()
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    names = {m["name"] for m in bench["end_to_end"]} | {m["name"] for m in bench["per_layer"]}
    pred = json.loads((Path(__file__).parent / "predictions.json").read_text())["predictions"]
    for layer, p in pred.items():
        assert layer in names
        for pair in p["moves"] + p["no_change"]:
            assert pair["metric"] in names and pair["workload"] in run.WORKLOADS
