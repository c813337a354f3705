import random
import time
from fractions import Fraction

import pytest

import oracles
from helpers import (
    DEEP_D1,
    DEEP_GRAM,
    DEEP_WITNESS,
    OVER44_D1,
    OVER44_GRAM,
    PLAIN44_GRAM,
    E8B,
    lk3,
    n4_model,
    n4_sprime,
    psi_minus,
    psi_split,
    random_involution,
    random_involution_data,
    s_copy_basis,
    same_sublattice,
    sigma_s311_fixed,
)
from zlattice import (
    DegeneracyScanResult,
    DegenerateSublattice,
    EmbeddingMismatch,
    NotInSublattice,
    NotInvolution,
    NotIsometry,
    SNotInAntiFixed,
    WrongNorm,
    da_degeneracy_scan,
    delta4_membership,
    determinant,
    direct_sum,
    eigenlattices,
    inner_product,
    involution_from_json_dict,
    involution_rank_sum_check,
    is_even,
    is_type,
    make_involution,
    make_lattice,
    make_sublattice,
    model_degeneracy_scan,
    norm,
    orthogonal_complement,
    period_domain_summary,
    saturate,
    signature,
    standard_lattice,
    two_elementary_invariants,
)
from zlattice import intlinalg as la, involutions
from zlattice.involutions import MembershipResult, _box_search, _doubled_projector, _scan_key

U = standard_lattice("U")
S = standard_lattice("S311")


def _neg_id(n):
    return tuple(tuple(-1 if i == j else 0 for j in range(n)) for i in range(n))


# --- construction ---


def test_make_involution_examples():
    assert make_involution(S, _neg_id(3)).matrix == _neg_id(3)
    uu = direct_sum(U, U)
    swap = ((0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0))
    assert make_involution(uu, swap)((1, 0, 0, 0)) == (0, 0, 1, 0)
    # the stored eigen split is derived data: equality, hash and repr
    # depend on (ambient, matrix) alone
    a, b = make_involution(uu, swap), make_involution(uu, swap)
    b = b._replace(fixed=b.anti)
    assert a == b and not (a != b) and hash(a) == hash(b) and repr(a) == repr(b)
    assert "fixed" not in repr(a) and "anti" not in repr(a)
    assert a != make_involution(uu, la.identity(4))


def test_derived_values_are_not_checked_again(monkeypatch):
    # make_* check outside input once; what the library derives from a
    # checked value is valid by construction and never re-proves its
    # independence with integer_rank
    uu = direct_sum(U, U)
    swap = ((0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0))
    sk = make_sublattice(S, ((1, 1, 0), (0, 0, 2)))  # not primitive
    sc = make_sublattice(lk3(), s_copy_basis())
    psi_s, model = psi_split(), n4_model()

    def derive():
        psi = make_involution(uu, swap)
        return (psi, psi.fixed.basis, psi.anti.basis,
                orthogonal_complement(sk).basis, saturate(sk).basis,
                period_domain_summary(psi_s, sc), model_degeneracy_scan(model, 2))

    expected = derive()

    class Rechecked(Exception):
        pass

    def refuse(*args, **kwargs):
        raise Rechecked

    monkeypatch.setattr(la, "integer_rank", refuse)
    assert derive() == expected
    with pytest.raises(Rechecked):
        make_sublattice(S, ((1, 0, 0),))


def test_make_involution_rejections():
    with pytest.raises(NotInvolution):
        make_involution(U, ((1, 1), (0, 1)))
    # an involution of Z^2 that is not an isometry of U
    with pytest.raises(NotIsometry):
        make_involution(U, ((1, 0), (0, -1)))


def _naive_rejection(gram, mat):
    """The error make_involution must raise, from plain triple loops: psi^2
    != I first, else psi^t G psi != G; None when both hold."""
    n = len(mat)

    def mul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]

    if mul(mat, mat) != [[int(i == j) for j in range(n)] for i in range(n)]:
        return NotInvolution
    mt = [list(col) for col in zip(*mat)]
    if mul(mul(mt, gram), mat) != [list(row) for row in gram]:
        return NotIsometry
    return None


def _is_signed_unit(vec, i):
    return vec[i] in (1, -1) and not any(x for k, x in enumerate(vec) if k != i)


def test_make_involution_single_entry_mutants():
    # One changed entry c at (i, j) keeps psi^2 = I only when column i of
    # psi is +-e_i and row j is -+e_j (for i == j: c = -2 psi_ii), so such
    # positions are tried besides random ones; those reach the isometry
    # check, where some fail and some pass.
    rng = random.Random(1016)
    seen = {NotInvolution: 0, NotIsometry: 0, None: 0}
    for _ in range(24):
        n = rng.randint(10, 22)
        gram, mat = random_involution_data(rng, n)
        L = make_lattice(tuple(map(tuple, gram)))
        assert _naive_rejection(L.gram, mat) is None
        make_involution(L, mat)
        cols = list(zip(*mat))
        keep = [(i, j) for i in range(n) for j in range(n)
                if _is_signed_unit(cols[i], i) and _is_signed_unit(mat[j], j)
                and (i == j or mat[i][i] == -mat[j][j])]
        picks = rng.sample(keep, min(6, len(keep)))
        picks += [(rng.randrange(n), rng.randrange(n)) for _ in range(8)]
        for i, j in picks:
            c = -2 * mat[i][i] if i == j and rng.random() < 0.5 else rng.choice((-2, -1, 1, 2))
            bad = [row[:] for row in mat]
            bad[i][j] += c
            expected = _naive_rejection(L.gram, bad)
            seen[expected] += 1
            if expected is None:
                assert make_involution(L, bad).matrix == tuple(map(tuple, bad))
            else:
                with pytest.raises(expected):
                    make_involution(L, bad)
    assert all(seen.values()), seen


def test_make_involution_rank22_non_isometry_squaring_to_identity():
    # (1, 0; 0, -1) on the first U block, the identity elsewhere: psi^2 = I
    # but e.f = 1 goes to -1
    L = lk3()
    n = L.rank
    m = tuple(tuple((-1 if i == 1 else 1) if i == j else 0 for j in range(n))
              for i in range(n))
    assert la.mat_mul(m, m) == la.identity(n)
    with pytest.raises(NotIsometry):
        make_involution(L, m)


# --- eigenlattices ---


def test_eigenlattices_are_the_kernels_of_psi_shifted_entrywise():
    rng = random.Random(23)
    for _ in range(40):
        psi = random_involution(rng)
        n = psi.ambient.rank
        for sign, eigen in ((-1, psi.fixed), (1, psi.anti)):
            shifted = tuple(tuple(x + sign * (i == j) for j, x in enumerate(row))
                            for i, row in enumerate(psi.matrix))
            assert eigen.basis == la.kernel(shifted, ncols=n)


def test_eigenlattices_minus_id():
    fixed, anti = eigenlattices(make_involution(S, _neg_id(3)))
    assert fixed.rank == 0
    assert anti.rank == 3
    assert same_sublattice(anti, make_sublattice(S, ((1, 0, 0), (0, 1, 0), (0, 0, 1))))


def test_eigenlattices_block_swap():
    uu = direct_sum(U, U)
    psi = make_involution(uu, ((0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0)))
    fixed, anti = eigenlattices(psi)
    assert same_sublattice(fixed, make_sublattice(uu, ((1, 0, 1, 0), (0, 1, 0, 1))))
    assert same_sublattice(anti, make_sublattice(uu, ((1, 0, -1, 0), (0, 1, 0, -1))))
    # induced forms are the doubled hyperbolic plane on both sides
    # (basis sign conventions may differ; determinant and parity are invariant)
    assert determinant(fixed.induced_lattice()) == -4
    assert determinant(anti.induced_lattice()) == -4
    assert is_even(fixed.induced_lattice())


def test_eigenlattices_split_blocks():
    L = direct_sum(U, make_lattice(((-2,),)))
    psi = make_involution(L, ((1, 0, 0), (0, 1, 0), (0, 0, -1)))
    fixed, anti = eigenlattices(psi)
    assert fixed.induced_gram() == ((0, 1), (1, 0))
    assert anti.induced_gram() == ((-2,),)


def test_eigenlattice_properties_random():
    rng = random.Random(101)
    for _ in range(40):
        psi = random_involution(rng)
        L = psi.ambient
        fixed, anti = eigenlattices(psi)
        assert fixed.rank + anti.rank == L.rank
        for x in fixed.basis:
            for y in anti.basis:
                assert inner_product(L, x, y) == 0
        assert same_sublattice(saturate(fixed), fixed)
        assert same_sublattice(saturate(anti), anti)
        assert involution_rank_sum_check(psi)
        # index of the direct sum in L is a power of 2
        cols = fixed.basis + anti.basis
        if cols:
            idx = abs(la.bareiss_det(la.transpose(cols)))
            assert idx > 0 and (idx & (idx - 1)) == 0


# --- typed involutions ---


def test_is_type_examples():
    L = lk3()
    Sc = make_sublattice(L, s_copy_basis())
    theta = make_involution(Sc.induced_lattice(), _neg_id(3))
    assert is_type(psi_minus(), Sc, theta)
    assert is_type(psi_split(), Sc, theta)

    uu = direct_sum(U, U)
    swap = make_involution(uu, ((0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0)))
    first_u = make_sublattice(uu, ((1, 0, 0, 0), (0, 1, 0, 0)))
    theta_id = make_involution(first_u.induced_lattice(), ((1, 0), (0, 1)))
    assert not is_type(swap, first_u, theta_id)  # psi(S) is the other block


def test_is_type_checks_restriction_not_just_stability():
    psi = make_involution(U, ((1, 0), (0, 1)))
    line = make_sublattice(U, ((1, 0),))
    theta_neg = make_involution(line.induced_lattice(), ((-1,),))
    assert not is_type(psi, line, theta_neg)


def test_is_type_embedding_mismatch():
    Sc = make_sublattice(lk3(), s_copy_basis())
    theta = make_involution(U, ((1, 0), (0, 1)))  # wrong induced lattice
    with pytest.raises(EmbeddingMismatch):
        is_type(psi_minus(), Sc, theta)


# --- period-domain data ---


def test_period_domain_frozen_fixture():
    Sc = make_sublattice(lk3(), s_copy_basis())
    summ = period_domain_summary(psi_split(), Sc)
    assert (summ.rank_fixed, summ.rank_anti_s) == (2, 17)
    assert summ.fixed_hyperbolic and summ.anti_s_hyperbolic
    assert (summ.dim_lambda_plus, summ.dim_lambda_minus) == (1, 16)


def test_period_domain_minus_id():
    Sc = make_sublattice(lk3(), s_copy_basis())
    summ = period_domain_summary(psi_minus(), Sc)
    assert summ.rank_fixed == 0
    assert not summ.fixed_hyperbolic
    assert summ.dim_lambda_plus is None
    assert summ.rank_anti_s == 19


def test_period_domain_rank_sum_is_19_for_type_311_fixtures():
    L = lk3()
    cases = [
        (psi_split(), make_sublattice(L, s_copy_basis())),
        (psi_minus(), make_sublattice(L, s_copy_basis())),
        (sigma_s311_fixed(), make_sublattice(L, s_copy_basis(E8B))),
    ]
    for psi, Sc in cases:
        summ = period_domain_summary(psi, Sc)
        assert summ.rank_fixed + summ.rank_anti_s == 19


def test_period_domain_requires_s_in_anti_part():
    # sigma fixes the E8A root used by the first-copy basis
    Sc = make_sublattice(lk3(), s_copy_basis())
    with pytest.raises(SNotInAntiFixed):
        period_domain_summary(sigma_s311_fixed(), Sc)


def test_anti_s_matches_sympy_nullspace_oracle():
    rng = random.Random(211)
    seen = set()
    for _ in range(60):
        psi = random_involution(rng)
        anti = psi.anti
        s_basis = anti.basis[: rng.randint(0, anti.rank)]
        summ = period_domain_summary(psi, make_sublattice(psi.ambient, s_basis))
        rank, inertia = oracles.sympy_anti_s(psi.ambient.gram, psi.matrix, s_basis)
        hyperbolic = rank >= 1 and inertia == (1, rank - 1, 0)
        assert (summ.rank_anti_s, summ.anti_s_hyperbolic) == (rank, hyperbolic)
        assert summ.rank_fixed == psi.fixed.rank
        seen.add((rank > 0, hyperbolic))
    assert seen == {(False, False), (True, False), (True, True)}


# --- half-vector membership ---


def test_delta4_no_room_when_s_is_everything():
    L = make_lattice(OVER44_GRAM)
    full = make_sublattice(L, ((1, 0), (0, 1)))
    d1 = OVER44_D1
    assert norm(L, d1) == -4
    res = delta4_membership(L, full, d1, 5)
    assert res.status == "no"
    # d1 in 2L passes the coset test; the rank-0 complement holds nothing
    one = make_lattice(((-1,),))
    assert delta4_membership(one, make_sublattice(one, ((1,),)), (2,), 1).status == "no"


def test_delta4_glue_class_absent_in_plain_sum():
    L = make_lattice(PLAIN44_GRAM)
    Ssub = make_sublattice(L, ((1, 0),))
    res = delta4_membership(L, Ssub, (1, 0), 5)
    assert res.status == "no"


def test_delta4_yes_in_overlattice():
    L = make_lattice(OVER44_GRAM)
    Ssub = make_sublattice(L, (OVER44_D1,))
    res = delta4_membership(L, Ssub, OVER44_D1, 5)
    assert res.status == "yes"
    assert res.witness == (0, 1)
    # the constructed delta has norm -2
    delta = tuple((a + b) // 2 for a, b in zip(OVER44_D1, res.witness))
    assert all((a + b) % 2 == 0 for a, b in zip(OVER44_D1, res.witness))
    assert norm(L, delta) == -2
    assert inner_product(L, OVER44_D1, res.witness) == 0


def test_delta4_unknown_then_yes_as_bound_grows():
    L = make_lattice(DEEP_GRAM)
    Ssub = make_sublattice(L, (DEEP_D1,))
    assert delta4_membership(L, Ssub, DEEP_D1, 1).status == "unknown"
    res = delta4_membership(L, Ssub, DEEP_D1, 2)
    assert res.status == "yes"
    assert res.witness == DEEP_WITNESS
    assert norm(L, res.witness) == -4
    assert inner_product(L, DEEP_D1, res.witness) == 0
    assert all((a + b) % 2 == 0 for a, b in zip(DEEP_D1, res.witness))


def test_delta4_validation():
    L = make_lattice(OVER44_GRAM)
    Ssub = make_sublattice(L, (OVER44_D1,))
    with pytest.raises(WrongNorm):
        delta4_membership(L, Ssub, (4, -2), 3)  # in S, but norm -16
    with pytest.raises(NotInSublattice):
        delta4_membership(L, Ssub, (0, 2), 3)
    for bad in (0, 2.5, True, "3"):
        with pytest.raises(ValueError, match="bound must be a positive integer"):
            delta4_membership(L, Ssub, OVER44_D1, bad)
    other = make_sublattice(make_lattice(PLAIN44_GRAM), ((1, 0),))
    with pytest.raises(EmbeddingMismatch):
        delta4_membership(L, other, (1, 0), 3)


# --- degeneracy scan ---


def test_da_scan_minimal_model_never_finds_witness():
    model = __import__("helpers").s311_model()
    marked = model.marked_sublattice()
    for bound in (1, 5, 10):
        res = da_degeneracy_scan(model.lattice, marked, bound)
        assert res.status == "no-witness"
        assert res.delta is None


def test_da_scan_overlattice_witness():
    res = da_degeneracy_scan(n4_model().lattice, n4_sprime(), 3)
    assert res.status == "degenerate"
    assert res.delta == (0, 0, 1, -1)
    assert res.delta1 == (0, 0, 2, -1)
    assert res.delta2 == (0, 0, 0, -1)
    L = n4_model().lattice
    assert norm(L, res.delta) == -2
    assert norm(L, res.delta1) == -4
    assert norm(L, res.delta2) == -4
    assert tuple((a + b) for a, b in zip(res.delta1, res.delta2)) == \
        tuple(2 * c for c in res.delta)


def test_da_scan_witness_stable_under_larger_bound():
    L = n4_model().lattice
    Ssub = n4_sprime()
    first = da_degeneracy_scan(L, Ssub, 1)
    assert first.status == "degenerate"
    for bound in (2, 3, 5):
        assert da_degeneracy_scan(L, Ssub, bound).delta == first.delta


def test_integer_split_matches_fraction_split():
    rng = random.Random(29)
    accepted = rejected = 0
    while accepted + rejected < 1200:
        n = rng.randint(2, 5)
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                g[i][j] = g[j][i] = rng.randint(-5, 5)
        L = make_lattice(tuple(map(tuple, g)))
        basis = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(1, n - 1))]
        if la.integer_rank(la.transpose(basis)) != len(basis):
            continue
        s = make_sublattice(L, basis)
        gs = s.induced_gram()
        den = abs(la.bareiss_det(gs))
        if den in (0, 1, 2):
            continue
        proj = _doubled_projector(s, gs, den)
        perp = la.kernel([la.mat_vec(L.gram, b) for b in basis], ncols=n)
        for _ in range(40):
            if rng.random() < 0.5:
                delta = tuple(rng.randint(-3, 3) for _ in range(n))
            else:
                # S plus its complement: the split is integral
                parts = [rng.randint(-2, 2) for _ in basis + list(perp)]
                delta = tuple(sum(c * v[i] for c, v in zip(parts, basis + list(perp)))
                              for i in range(n))
            scaled = la.mat_vec(proj, delta)
            if any(c % den for c in scaled):
                got = None
                rejected += 1
            else:
                d1 = tuple(c // den for c in scaled)
                got = d1, tuple(2 * a - b for a, b in zip(delta, d1))
                accepted += 1
            assert got == oracles.fraction_split(g, basis, delta), (g, basis, delta)
    assert min(accepted, rejected) > 300
    # the box itself rejects delta = (0, 1, -1): 2 proj_S(delta) is not
    # integral, although rounding it down gives two parts of norm -4.  S =
    # <-6> has the single 2-torsion value q = 1/2, so the scan answers from
    # the glue obstruction and the box runs only on the box-only path
    L = make_lattice(((-6, 3, 2), (3, -2, -2), (2, -2, -4)))
    s = make_sublattice(L, [(-1, -1, 1)])
    assert oracles.fraction_split(L.gram, s.basis, (0, 1, -1)) is None
    assert _box(L, s, 1).status == "no-witness-within-bound"
    assert da_degeneracy_scan(L, s, 1).status == "no-witness"


def _box(L, s, bound):
    # the box search on S's own basis: its projector reads only S's span
    gs = s.induced_gram()
    return _box_search(L, s, gs, abs(la.bareiss_det(gs)), bound)


def _random_even_gram(rng):
    """A random even nondegenerate Gram matrix of rank 2-5, or None."""
    n = rng.randint(2, 5)
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = 2 * rng.randint(-3, 1)
        for j in range(i + 1, n):
            g[i][j] = g[j][i] = rng.randint(-2, 2)
    return g if la.bareiss_det(g) else None


def _random_even_case(rng):
    """A random even nondegenerate N of rank 2-5 and a nondegenerate S of
    smaller rank, non-primitive about a third of the time; None on a miss."""
    g = _random_even_gram(rng)
    if g is None:
        return None
    n = len(g)
    basis = [tuple(rng.randint(-1, 1) for _ in range(n)) for _ in range(rng.randint(1, n - 1))]
    if la.integer_rank(la.transpose(basis)) != len(basis):
        return None
    if rng.random() < 0.3:
        basis[0] = tuple(2 * c for c in basis[0])
    L = make_lattice(tuple(map(tuple, g)))
    s = make_sublattice(L, basis)
    if la.bareiss_det(s.induced_gram()) == 0:
        return None
    return L, s


def test_glue_obstruction_never_hides_a_box_witness():
    rng = random.Random(37)
    cases = found = obstructed = non_primitive = 0
    while cases < 500:
        case = _random_even_case(rng)
        if case is None:
            continue
        L, s = case
        cases += 1
        got = da_degeneracy_scan(L, s, 2)
        if not same_sublattice(saturate(s), s):
            # the scan works on the saturation alone: the basis of S
            # changes neither the status nor the witness
            non_primitive += 1
            assert got == da_degeneracy_scan(L, saturate(s), 2), (L.gram, s.basis)
        box = _box(L, s, 2)
        found += box.status == "degenerate"
        if got.status == "no-witness":
            obstructed += 1
            assert box.status != "degenerate", (L.gram, s.basis, box)
        else:
            assert got == box
    assert found >= 10 and obstructed >= 100 and non_primitive >= 50


def test_glue_obstruction_pinned_cases():
    # non-primitive S = U + Z 2w on N4, w = (0, 0, 2, -1): the unsaturated
    # A_S has no class with q = 1, yet the witness is there; only the
    # saturation U + Z w shows the glue
    L = n4_model().lattice
    s = make_sublattice(L, ((1, -1, 0, 0), (0, 1, 0, 0), (0, 0, 4, -2)))
    res = da_degeneracy_scan(L, s, 3)
    assert res == da_degeneracy_scan(L, n4_sprime(), 3)
    assert (res.status, res.delta, res.delta1, res.delta2) == \
        ("degenerate", (0, 0, 1, -1), (0, 0, 2, -1), (0, 0, 0, -1))
    # S = U(2): both basis classes have q = 0, and only the polar term
    # 2b = 1 gives their sum q = 1; N glues U(2) + <-4> along it
    L = make_lattice(((-2, 1, -2), (1, 0, 0), (-2, 0, -4)))
    s = make_sublattice(L, ((2, 1, -1), (0, 1, 0)))
    assert s.induced_gram() == ((0, 2), (2, 0))
    assert da_degeneracy_scan(L, s, 2) == DegeneracyScanResult(
        "degenerate", (1, 0, -1), (2, 0, -1), (0, 0, -1))
    # an odd S has no discriminant form mod 2Z: <-1> + <-1> split along
    # its two lines has a witness although A_S is trivial
    L = make_lattice(((-1, 0), (0, -1)))
    res = da_degeneracy_scan(L, make_sublattice(L, ((1, 0),)), 1)
    assert (res.status, res.delta) == ("degenerate", (1, -1))
    # S = span(e0, e1) has det 31: A_S is odd and has no class of order 2,
    # so S alone rules the witness out, although the complement <-4> has
    # one with q = 1; an odd invariant factor read as 2-torsion hides it
    L = make_lattice(((-4, 1, 0), (1, -8, 0), (0, 0, -4)))
    s = make_sublattice(L, ((1, 0, 0), (0, 1, 0)))
    assert determinant(s.induced_lattice()) == 31
    assert da_degeneracy_scan(L, s, 2).status == "no-witness"


def test_scan_reads_one_gram_of_s(monkeypatch):
    # the scan builds the Gram of S's saturation once and runs one Bareiss
    # on it, inside its one Smith read-out; the second, where there is
    # one, is the complement's
    dets, grams = [], []
    bareiss, induced = la.bareiss_det, involutions.SublatticeEmbedding.induced_gram

    def counted_det(m):
        dets.append(m)
        return bareiss(m)

    def counted_gram(sub):
        grams.append(sub)
        return induced(sub)

    monkeypatch.setattr(la, "bareiss_det", counted_det)
    monkeypatch.setattr(involutions.SublatticeEmbedding, "induced_gram", counted_gram)
    model = __import__("helpers").s311_model()
    n4 = n4_model().lattice
    u2 = make_lattice(((-2, 1, -2), (1, 0, 0), (-2, 0, -4)))
    cases = (
        (model.lattice, model.marked_sublattice(), 5, "no-witness", 1, 1),
        (u2, make_sublattice(u2, ((2, 1, -1), (0, 1, 0))), 2, "degenerate", 2, 2),
        (n4, n4_sprime(), 2, "degenerate", 2, 2),
        (n4, make_sublattice(n4, ((1, -1, 0, 0), (0, 1, 0, 0), (0, 0, 4, -2))), 2,
         "degenerate", 2, 2),
    )
    for L, s, bound, status, calls, distinct in cases:
        dets.clear()
        grams.clear()
        assert da_degeneracy_scan(L, s, bound).status == status
        assert (len(dets), len(set(dets))) == (calls, distinct), (s.basis, dets)
        sat = saturate(s)
        assert sum(g.rank == s.rank and all(map(sat.contains, g.basis)) for g in grams) == 1


def test_glue_decisions_build_no_fraction(monkeypatch):
    # (r, a, delta) and the glue obstruction read the integer classes of
    # the Smith form; Fraction is left to the printed values
    made = []
    new = Fraction.__new__

    def counting(cls, *args, **kw):
        made.append(args)
        return new(cls, *args, **kw)

    monkeypatch.setattr(Fraction, "__new__", counting)
    assert Fraction(1, 2) and made
    made.clear()
    assert two_elementary_invariants(S) == (3, 1, 1)
    assert two_elementary_invariants(make_lattice(((0, 2), (2, 0)))) == (2, 2, 0)
    assert two_elementary_invariants(make_lattice(((2, 0), (0, -2)))) == (2, 2, 1)
    L = make_lattice(((-4, 0, 0), (0, -8, 0), (0, 0, -8)))
    assert da_degeneracy_scan(L, make_sublattice(L, ((1, 0, 0),)), 1).status == "no-witness"
    L = make_lattice(((-2, 1, -2), (1, 0, 0), (-2, 0, -4)))
    s = make_sublattice(L, ((2, 1, -1), (0, 1, 0)))
    assert da_degeneracy_scan(L, s, 2).status == "degenerate"
    assert made == []


def _plain_norm(gram, v):
    return sum(v[i] * gram[i][j] * v[j] for i in range(len(v)) for j in range(len(v)))


def _planted_case(rng):
    """A random even N with two orthogonal roots r1, r2, and S = Z(r1 + r2)
    plus, half the time, a vector orthogonal to r1 - r2; delta = r1 splits
    as ((r1 + r2) + (r1 - r2))/2.  Returns (N, S, r1 + r2) or None."""
    g = _random_even_gram(rng)
    if g is None:
        return None
    n = len(g)
    roots = oracles.brute_box_vectors(g, -2, 1)
    pairs = [(a, b) for a in roots for b in roots
             if a < b and _plain_norm(g, tuple(x + y for x, y in zip(a, b))) == -4]
    if not pairs:
        return None
    r1, r2 = rng.choice(pairs)
    d1 = tuple(a + b for a, b in zip(r1, r2))
    basis = [d1]
    perp = la.kernel([la.mat_vec(g, tuple(a - b for a, b in zip(r1, r2)))], ncols=n)
    if rng.random() < 0.5:
        extra = tuple(sum(rng.randint(-1, 1) * v[i] for v in perp) for i in range(n))
        if la.integer_rank(la.transpose(basis + [extra])) == 2:
            basis.append(extra)
    L = make_lattice(tuple(map(tuple, g)))
    s = make_sublattice(L, basis)
    if la.bareiss_det(s.induced_gram()) == 0:
        return None
    return L, s, d1


def test_box_search_is_the_key_minimal_split():
    # every splitting candidate of the brute box, split by Fractions and
    # judged by plain-dot norms; the witness is the _scan_key minimum
    rng = random.Random(47)
    cases = found = several = 0
    while cases < 300:
        case = _planted_case(rng) if cases % 2 else _random_even_case(rng)
        if case is None:
            continue
        L, s = case[:2]
        cases += 1
        bound = rng.randint(1, 2)
        hits = []
        for delta in oracles.brute_box_vectors(L.gram, -2, bound):
            split = oracles.fraction_split(L.gram, s.basis, delta)
            if split and all(_plain_norm(L.gram, d) == -4 for d in split):
                hits.append((delta, *split))
        got = _box(L, s, bound)
        if not hits:
            assert got.status == "no-witness-within-bound", (L.gram, s.basis, bound)
            continue
        found += 1
        several += len(hits) > 2  # hits come in +- pairs
        best = min(hits, key=lambda h: _scan_key(h[0]))
        assert got == DegeneracyScanResult("degenerate", *best), (L.gram, s.basis, bound)
    assert found >= 50 and several >= 20


def test_delta4_bounded_witness_is_the_key_minimal_glue():
    # on an indefinite complement the search is bounded; its witness is
    # the _scan_key minimum over the brute box of the complement's Gram
    rng = random.Random(53)
    cases = found = several = 0
    while cases < 300:
        case = _planted_case(rng)
        if case is None:
            continue
        L, s, d1 = case
        comp = orthogonal_complement(s)
        p, q, _ = signature(comp.induced_lattice())
        if not (p and q):
            continue
        cases += 1
        bound = rng.randint(1, 2)
        hits = []
        for c in oracles.brute_box_vectors(comp.induced_gram(), -4, bound):
            amb = [0] * L.rank
            for j, b in enumerate(comp.basis):
                for i in range(L.rank):
                    amb[i] += c[j] * b[i]
            if all((a + b) % 2 == 0 for a, b in zip(d1, amb)):
                hits.append((c, tuple(amb)))
        got = delta4_membership(L, s, d1, bound)
        if not hits:
            assert got.status in ("no", "unknown") and got.witness is None
            continue
        found += 1
        several += len(hits) > 2
        witness = min(hits, key=lambda h: _scan_key(h[0]))[1]
        if next(x for x in witness if x) < 0:
            witness = tuple(-x for x in witness)
        assert got == MembershipResult("yes", witness), (L.gram, s.basis, d1, bound)
    assert found >= 50 and several >= 20


@pytest.mark.parametrize("k", [4, 16])
def test_glue_obstruction_on_both_sides(k):
    # N = <-4> + <-8>^k: over S = <-8>^k every 2-torsion class has q = 0;
    # over S = <-4> the class e0/2 has q = 1 and the complement <-8>^k
    # rules the witness out.  A 2^k class walk or a 3^(k+1)-cell box would
    # not answer k = 16 in time.
    n = k + 1
    L = make_lattice(tuple(tuple((-4 if i == 0 else -8) * (i == j) for j in range(n))
                           for i in range(n)))
    unit = la.identity(n)
    for basis in (unit[1:], unit[:1]):
        s = make_sublattice(L, basis)
        start = time.perf_counter()
        assert da_degeneracy_scan(L, s, 1).status == "no-witness"
        assert time.perf_counter() - start < 1.0
        if k == 4:
            assert _box(L, s, 2).status == "no-witness-within-bound"


def test_rank_zero_sublattice_is_obstructed_before_the_box(monkeypatch):
    # a rank-0 S has a trivial discriminant group, so the glue obstruction
    # answers exactly and the box and its projector are never built
    def refuse(sat, gs, den):
        raise AssertionError("the box search ran")

    monkeypatch.setattr(involutions, "_doubled_projector", refuse)
    for L in (S, standard_lattice("LK3")):
        got = da_degeneracy_scan(L, make_sublattice(L, []), 1)
        assert got == DegeneracyScanResult("no-witness", None, None, None)


def test_da_scan_rejects_degenerate_sublattice():
    iso = make_sublattice(U, ((1, 0),))
    with pytest.raises(DegenerateSublattice):
        da_degeneracy_scan(U, iso, 2)


def test_da_scan_bound_validation():
    # checked before the glue obstruction, which would answer "no-witness"
    model = __import__("helpers").s311_model()
    for bad in (0, 2.5, True, "3"):
        with pytest.raises(ValueError, match="bound must be a positive integer"):
            model_degeneracy_scan(model, bad)
        with pytest.raises(ValueError, match="bound must be a positive integer"):
            da_degeneracy_scan(n4_model().lattice, n4_sprime(), bad)


# --- file format ---


def test_involution_json_round_trip():
    psi, s = involution_from_json_dict(
        {"gram": [[0, 1], [1, 0]], "matrix": [[0, 1], [1, 0]]}
    )
    assert psi.matrix == ((0, 1), (1, 0))
    assert s is None
    psi2, s2 = involution_from_json_dict(
        {
            "gram": [[0, 1], [1, 0]],
            "matrix": [[-1, 0], [0, -1]],
            "s_basis": [[1, 0]],
        }
    )
    assert s2 is not None and s2.basis == ((1, 0),)


def test_involution_json_rejections():
    from zlattice.errors import InvalidInputFile

    with pytest.raises(InvalidInputFile):
        involution_from_json_dict({"gram": [[0, 1], [1, 0]]})
    with pytest.raises(NotInvolution):
        involution_from_json_dict(
            {"gram": [[0, 1], [1, 0]], "matrix": [[1, 1], [0, 1]]}
        )
