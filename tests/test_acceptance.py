"""Acceptance gate: the eleven headline checks, one line of output each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; each
test prints exactly one PASS line when its criterion holds (a failure
shows up as a normal pytest failure instead).
"""

import json
import random
import subprocess
import sys
import time

import oracles
from helpers import (
    E8B,
    child_env,
    lk3,
    n4_model,
    n4_sprime,
    psi_minus,
    psi_split,
    random_involution,
    s_copy_basis,
    s311_model,
    s311_plus,
    sigma_s311_fixed,
)
from zlattice import (
    bounded_vectors_of_norm,
    da_degeneracy_scan,
    delta_via_involution,
    determinant,
    eigenlattices,
    f4_checks,
    f4_intersection,
    inner_product,
    is_even,
    is_nondegenerate,
    make_sublattice,
    model_degeneracy_scan,
    norm,
    orthogonal_complement,
    period_domain_summary,
    signature,
    standard_lattice,
    two_elementary_invariants,
    vectors_of_norm,
    BRANCH_CURVE,
    CANONICAL,
    SECTION,
    F4Class,
)
from zlattice import intlinalg as la


def _report(n, text):
    print(f"ACCEPTANCE {n:2d}: PASS - {text}")


def test_criterion_01_invariant_triple():
    S = standard_lattice("S311")
    assert two_elementary_invariants(S) == (3, 1, 1)
    _report(1, "two_elementary_invariants(S311) = (3,1,1)")


def test_criterion_02_hyperbolic_pair_and_complement():
    S = standard_lattice("S311")
    u = make_sublattice(S, ((0, 0, 1), (1, 1, 0)))
    comp = orthogonal_complement(u)
    assert comp.induced_gram() == ((-2,),)
    uL = u.induced_lattice()
    assert determinant(uL) == -1
    assert is_even(uL)
    _report(2, "complement of u in S311 is <-2>; u has det -1, even")


def test_criterion_03_rank22_lattice():
    L = standard_lattice("LK3")
    assert is_even(L)
    assert abs(determinant(L)) == 1
    assert signature(L) == (3, 19, 0)
    _report(3, "LK3 is even, |det| = 1, signature (3,19,0)")


def test_criterion_04_e8_roots_and_box_oracle():
    E8M = standard_lattice("E8(-1)")
    t0 = time.perf_counter()
    exact = vectors_of_norm(E8M, -2)
    boxed = bounded_vectors_of_norm(E8M, -2, 3)
    elapsed = time.perf_counter() - t0
    assert exact.count == 240
    assert boxed.count == 240
    assert exact.vectors == boxed.vectors
    assert elapsed < 2.0, f"took {elapsed:.2f}s"
    _report(4, f"240 roots of E8(-1), box-3 scan identical ({elapsed:.2f}s)")


def test_criterion_05_nondegeneracy_triple():
    ok1, w1 = is_nondegenerate(s311_model())
    assert ok1 and set(w1) == {(0, 1, 0), (0, -1, 0)}
    ok2, w2 = is_nondegenerate(s311_plus(-2))
    assert not ok2
    assert set(w2) == {(0, 1, 0, 0), (0, -1, 0, 0), (0, 0, 0, 1), (0, 0, 0, -1)}
    ok3, w3 = is_nondegenerate(s311_plus(-4))
    assert ok3 and set(w3) == {(0, 1, 0, 0), (0, -1, 0, 0)}
    _report(5, "criterion true/false/true on S311, S311+<-2>, S311+<-4>")


def test_criterion_06_branch_curve_numerology():
    assert f4_intersection(SECTION, BRANCH_CURVE) == 0
    assert BRANCH_CURVE + SECTION == -2 * CANONICAL == F4Class(12, 4)
    p_a = 1 + (f4_intersection(BRANCH_CURVE, BRANCH_CURVE)
               + f4_intersection(BRANCH_CURVE, CANONICAL)) // 2
    assert p_a == 10 == 9 + 1
    assert all(item.ok for item in f4_checks())
    _report(6, "branch curve: s.B = 0, B + s = -2K, p_a = 10 = 9 + 1")


def test_criterion_07_involution_property_suite():
    rng = random.Random(2026)
    violations = 0
    count = 120
    for _ in range(count):
        psi = random_involution(rng, max_rank=8)
        L = psi.ambient
        fixed, anti = eigenlattices(psi)
        if fixed.rank + anti.rank != L.rank:
            violations += 1
            continue
        if any(inner_product(L, x, y) != 0
               for x in fixed.basis for y in anti.basis):
            violations += 1
            continue
        cols = fixed.basis + anti.basis
        idx = abs(oracles.dense_bareiss_det(la.transpose(cols))) if cols else 1
        if idx <= 0 or (idx & (idx - 1)) != 0:
            violations += 1
    assert violations == 0
    _report(7, f"{count} random involutions: orthogonal eigenlattices, "
               "rank sums, 2-power glue index")


def test_criterion_08_period_domain_ranks():
    L = lk3()
    Sc = make_sublattice(L, s_copy_basis())
    summ = period_domain_summary(psi_split(), Sc)
    assert (summ.rank_fixed, summ.rank_anti_s) == (2, 17)
    assert summ.fixed_hyperbolic and summ.anti_s_hyperbolic
    assert (summ.dim_lambda_plus, summ.dim_lambda_minus) == (1, 16)
    fixtures = [
        (psi_split(), Sc),
        (psi_minus(), Sc),
        (sigma_s311_fixed(), make_sublattice(L, s_copy_basis(E8B))),
    ]
    for psi, s in fixtures:
        pd = period_domain_summary(psi, s)
        assert pd.rank_fixed + pd.rank_anti_s == 19
    _report(8, "period data (2,17), dims (1,16); rank sums 19 on all fixtures")


def test_criterion_09_delta_route_agreement():
    from zlattice import direct_sum, make_involution

    U = standard_lattice("U")
    uu = direct_sum(U, U)
    pairs = [
        (U, make_involution(U, ((1, 0), (0, 1)))),
        (U, make_involution(U, ((0, 1), (1, 0)))),
        (uu, make_involution(
            uu, ((0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0)))),
        (standard_lattice("E8(-1)"),
         make_involution(standard_lattice("E8(-1)"), la.identity(8))),
        (lk3(), psi_split()),
        (lk3(), psi_minus()),
        (lk3(), sigma_s311_fixed()),
    ]
    disagreements = 0
    for L, psi in pairs:
        fixed, _ = eigenlattices(psi)
        intrinsic = two_elementary_invariants(fixed.induced_lattice())[2]
        if delta_via_involution(L, psi) != intrinsic:
            disagreements += 1
    assert disagreements == 0
    sigma = sigma_s311_fixed()
    fixed, _ = eigenlattices(sigma)
    assert two_elementary_invariants(fixed.induced_lattice()) == (3, 1, 1)
    assert delta_via_involution(lk3(), sigma) == 1
    _report(9, "involution delta equals intrinsic delta on all fixtures; "
               "rank-22 fixture gives delta = 1")


def test_criterion_10_degeneracy_scan():
    res1 = model_degeneracy_scan(s311_model(), 10)
    assert res1.status == "no-witness" and res1.delta is None
    L = n4_model().lattice
    res2 = da_degeneracy_scan(L, n4_sprime(), 10)
    assert res2.status == "degenerate"
    assert norm(L, res2.delta) == -2
    assert norm(L, res2.delta1) == -4
    assert norm(L, res2.delta2) == -4
    _report(10, "scan: no witness over S311 (glue obstruction); overlattice witness "
                "has norms (-2,-4,-4)")


def test_criterion_11_byte_determinism(tmp_path):
    e8 = tmp_path / "e8.json"
    e8.write_text(json.dumps(
        {"gram": [list(r) for r in standard_lattice("E8(-1)").gram]}))

    def run_once(args, seed):
        proc = subprocess.run(
            [sys.executable, "-m", "zlattice", *args],
            capture_output=True, env=child_env(PYTHONHASHSEED=str(seed)),
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    demo_outputs = {run_once(["demo", "s311"], seed) for seed in range(10)}
    root_outputs = {run_once(["roots", str(e8), "--norm", "-2"], seed)
                    for seed in range(10)}
    assert len(demo_outputs) == 1
    assert len(root_outputs) == 1
    _report(11, "demo and roots output byte-identical over 10 runs with "
                "varying hash seeds")
