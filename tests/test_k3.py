import random

import pytest
from hypothesis import given, strategies as st

from helpers import n4_model, s311_model, s311_plus
from zlattice import (
    BRANCH_CURVE,
    CANONICAL,
    FIBER,
    NotEven,
    NotHyperbolic,
    RankExceeds20,
    RECORDED_COVERING_DATA_311,
    RECORDED_SYMMETRY_GROUP_311,
    SECTION,
    F4Class,
    WrongGramOnMarkedVectors,
    determinant,
    direct_sum,
    f4_checks,
    f4_intersection,
    is_nondegenerate,
    make_lattice,
    make_picard_model,
    model_degeneracy_scan,
    model_from_json_dict,
    s311_selfcheck,
    standard_lattice,
    vectors_of_norm,
)
from zlattice import intlinalg as la
from zlattice import involutions
from zlattice.errors import InvalidInputFile

S = standard_lattice("S311")


# --- model validation ---


def test_minimal_model_valid():
    m = s311_model()
    assert m.lattice.rank == 3
    assert m.marked_sublattice().rank == 3
    assert m.u_sublattice().induced_gram() == ((-2, 1), (1, 0))


def test_model_validation_errors():
    pic_y = standard_lattice("PicY")
    with pytest.raises(NotEven):
        make_picard_model(pic_y, (0, 0, 1), (1, 0, 0), (0, 1, 0))
    e8m = standard_lattice("E8(-1)")
    z = (0,) * 8
    with pytest.raises(NotHyperbolic):
        make_picard_model(e8m, z[:7] + (1,), (1,) + z[1:], (0, 1) + z[2:])
    with pytest.raises(WrongGramOnMarkedVectors) as exc:
        make_picard_model(S, (1, 0, 0), (0, 0, 1), (0, 1, 0))
    assert "expected" in str(exc.value)
    big = direct_sum(S, make_lattice(tuple(
        tuple(-2 if i == j else 0 for j in range(18)) for i in range(18))))
    with pytest.raises(RankExceeds20):
        make_picard_model(big, (0, 0, 1) + (0,) * 18,
                          (1, 0, 0) + (0,) * 18, (0, 1, 0) + (0,) * 18)


# --- the criterion ---


def test_nondegenerate_on_minimal_model():
    ok, wits = is_nondegenerate(s311_model())
    assert ok
    assert set(wits) == {(0, 1, 0), (0, -1, 0)}


def test_degenerate_possible_with_extra_root():
    m = s311_plus(-2)
    ok, wits = is_nondegenerate(m)
    assert not ok
    assert set(wits) == {
        (0, 1, 0, 0), (0, -1, 0, 0), (0, 0, 0, 1), (0, 0, 0, -1)
    }


def test_nondegenerate_with_minus_four_summand():
    ok, wits = is_nondegenerate(s311_plus(-4))
    assert ok
    assert set(wits) == {(0, 1, 0, 0), (0, -1, 0, 0)}


def test_witnesses_contain_f_and_are_negation_closed():
    for m in (s311_model(), s311_plus(-2), s311_plus(-4), s311_plus(-6), n4_model()):
        _, wits = is_nondegenerate(m)
        assert m.f in wits
        assert set(wits) == {tuple(-c for c in w) for w in wits}


def test_direct_sum_models_match_root_count_of_summand():
    for d_gram in (((-2,),), ((-4,),), ((-6,),), ((-4, 0), (0, -6)),
                   ((-2, -1), (-1, -2))):
        D = make_lattice(d_gram)
        k = D.rank
        N = direct_sum(S, D)
        pad = (0,) * k
        m = make_picard_model(N, (0, 0, 1) + pad, (1, 0, 0) + pad, (0, 1, 0) + pad)
        ok, wits = is_nondegenerate(m)
        d_roots = vectors_of_norm(D, -2).count
        assert ok == (d_roots == 0)
        assert len(wits) == 2 + d_roots


def test_verdict_invariant_under_unimodular_basis_change():
    rng = random.Random(61)
    base = s311_plus(-4)
    N = base.lattice
    n = N.rank
    for _ in range(20):
        t = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for _ in range(6):
            i, j = rng.randrange(n), rng.randrange(n)
            if i == j:
                continue
            c = rng.choice((-1, 1))
            for k in range(n):
                t[k][j] += c * t[k][i]
        t = tuple(tuple(r) for r in t)
        tinv_frac = la.rational_inverse(t)
        tinv = tuple(tuple(int(x) for x in row) for row in tinv_frac)
        g2 = la.mat_mul(la.mat_mul(la.transpose(t), N.gram), t)
        remap = lambda v: la.mat_vec(tinv, v)
        m2 = make_picard_model(make_lattice(g2), remap(base.a0),
                               remap(base.e), remap(base.f))
        ok1, wits1 = is_nondegenerate(base)
        ok2, wits2 = is_nondegenerate(m2)
        assert ok1 == ok2
        assert {tuple(remap(w)) for w in wits1} == set(wits2)


# --- degeneracy scan over models ---


def test_model_scan_no_witness_cases():
    for m in (s311_model(), s311_plus(-4), n4_model()):
        res = model_degeneracy_scan(m, 6)
        assert res.status == "no-witness"
        assert res.delta is None


def test_model_scan_reaches_rank_20_without_a_box(monkeypatch):
    # the marked S311 alone rules the witness out, so no box is built:
    # a box at bound 1 would hold 3^19 or 3^20 cells
    def no_box(*args):
        raise AssertionError("box search reached")

    monkeypatch.setattr(involutions, "bounded_vectors_of_norm", no_box)
    e8 = standard_lattice("E8(-1)")
    for extra in ((e8, e8), (e8, e8, standard_lattice("A1(-1)"))):
        N = S
        for piece in extra:
            N = direct_sum(N, piece)
        pad = (0,) * (N.rank - 3)
        m = make_picard_model(N, (0, 0, 1) + pad, (1, 0, 0) + pad, (0, 1, 0) + pad)
        assert model_degeneracy_scan(m, 1).status == "no-witness"


# --- numerology of the branch curve ---


def test_f4_intersection_values():
    assert f4_intersection(FIBER, FIBER) == 0
    assert f4_intersection(FIBER, SECTION) == 1
    assert f4_intersection(SECTION, SECTION) == -4
    assert f4_intersection(BRANCH_CURVE, SECTION) == 0
    assert f4_intersection(BRANCH_CURVE, BRANCH_CURVE) == 36
    assert f4_intersection(BRANCH_CURVE, CANONICAL) == -18


def test_f4_class_arithmetic():
    assert BRANCH_CURVE + SECTION == F4Class(12, 4)
    assert CANONICAL * -2 == -2 * CANONICAL == F4Class(12, 4)


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50),
       st.integers(-50, 50), st.integers(-5, 5))
def test_f4_intersection_bilinear_symmetric(x1, y1, x2, y2, k):
    a, b = F4Class(x1, y1), F4Class(x2, y2)
    assert f4_intersection(a, b) == f4_intersection(b, a)
    assert a * k == k * a
    assert f4_intersection(k * a, b) == k * f4_intersection(a, b)
    assert f4_intersection(a + b, b) == f4_intersection(a, b) + f4_intersection(b, b)


def test_f4_intersection_matches_pic_f4_gram():
    pic = standard_lattice("PicF4")
    basis = (FIBER, SECTION)
    for i in range(2):
        for j in range(2):
            assert f4_intersection(basis[i], basis[j]) == pic.gram[i][j]


def test_f4_checks_all_pass():
    items = f4_checks()
    assert all(it.ok for it in items)
    names = [it.name for it in items]
    assert "arithmetic genus" in names
    genus = next(it for it in items if it.name == "arithmetic genus")
    assert "10" in genus.detail


def test_s311_selfcheck_all_pass():
    items = s311_selfcheck()
    assert all(it.ok for it in items)
    inv = next(it for it in items if it.name == "invariants")
    assert inv.detail == "(r,a,delta) = (3,1,1)"


def test_recorded_symmetry_group():
    assert RECORDED_SYMMETRY_GROUP_311 == ("id",)
    # recorded values are not checks: the self-check holds only computed items
    assert RECORDED_COVERING_DATA_311 == "branch class meets e once and f twice upstairs"
    assert not any("recorded" in it.name for it in s311_selfcheck())


# --- file format ---


def test_model_json_round_trip():
    data = {
        "gram": [list(r) for r in S.gram],
        "a0": [0, 0, 1],
        "e": [1, 0, 0],
        "f": [0, 1, 0],
    }
    m = model_from_json_dict(data)
    assert m.lattice.gram == S.gram
    assert m.f == (0, 1, 0)


def test_model_json_rejections():
    with pytest.raises(InvalidInputFile):
        model_from_json_dict({"gram": [[2]]})
    with pytest.raises(WrongGramOnMarkedVectors):
        model_from_json_dict({
            "gram": [list(r) for r in S.gram],
            "a0": [1, 0, 0], "e": [0, 0, 1], "f": [0, 1, 0],
        })
