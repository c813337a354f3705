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
    DimensionMismatch,
    EmbeddingMismatch,
    EnumerationOverflow,
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
from zlattice.involutions import MembershipResult, _box_search, _split

U = standard_lattice("U")
S = standard_lattice("S311")


def _neg_id(n):
    return tuple(tuple(-1 if i == j else 0 for j in range(n)) for i in range(n))


def _scan_key(v):
    """The witness order on vectors of either sign: smallest coordinate box
    first, then the sign convention of canonical_order (positive first
    nonzero preferred), then lexicographic.  On the representatives the
    searches sort, it is their stable sort by box alone."""
    first = next((c for c in v if c), 0)
    return (max(map(abs, v), default=0), 0 if first > 0 else 1, v)


# --- construction ---


def test_make_involution_examples():
    assert make_involution(S, _neg_id(3)).matrix == _neg_id(3)
    uu = direct_sum(U, U)
    swap = ((0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0))
    assert la.mat_vec(make_involution(uu, swap).matrix, (1, 0, 0, 0)) == (0, 0, 1, 0)
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
            idx = abs(oracles.dense_bareiss_det(la.transpose(cols)))
            assert idx > 0 and (idx & (idx - 1)) == 0


def test_rank_sum_check_rejects_records_built_by_hand():
    # make_involution's records pass, psi_minus with a rank-0 fixed part
    # included; each record below breaks one invariant the check reads
    psi = psi_split()
    assert all(map(involution_rank_sum_check, (psi, psi_minus(), sigma_s311_fixed())))
    assert not involution_rank_sum_check(psi._replace(fixed=psi.anti, anti=psi.fixed))
    dropped = psi.anti._replace(basis=psi.anti.basis[1:])
    assert not involution_rank_sum_check(psi._replace(anti=dropped))
    # psi = id on U: each 2 e_j lies in 2U, so 2U splits every column,
    # but 2U is not primitive
    ident = make_involution(U, la.identity(2))
    doubled = ident._replace(fixed=make_sublattice(U, ((2, 0), (0, 2))))
    assert not involution_rank_sum_check(doubled)


def test_rank_sum_check_runs_two_hermite_reductions(monkeypatch):
    # one saturate per eigenlattice, not one solve per column and side
    psi = psi_split()
    calls = []
    hnf = la.hnf_with_transform

    def counted(*args, **kwargs):
        calls.append(args)
        return hnf(*args, **kwargs)

    monkeypatch.setattr(la, "hnf_with_transform", counted)
    assert involution_rank_sum_check(psi)
    assert len(calls) == 2


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

    # U under the swap, S = span((1, 0), (1, 1)): psi(b1) = b2 - b1 and
    # psi(b2) = b2, so column j of theta holds psi(b_j), and theta is not
    # symmetric
    swap = make_involution(U, ((0, 1), (1, 0)))
    s = make_sublattice(U, ((1, 0), (1, 1)))
    assert is_type(swap, s, make_involution(s.induced_lattice(), ((-1, 0), (1, 1))))
    # span((2, 0), (0, 1)) holds psi((0, 1)) = (1, 0) only over Q
    half = make_sublattice(U, ((2, 0), (0, 1)))
    for m in (_neg_id(2), la.identity(2), ((0, 1), (1, 0))):
        assert not is_type(swap, half, make_involution(half.induced_lattice(), m))


def test_is_type_checks_restriction_not_just_stability():
    psi = make_involution(U, ((1, 0), (0, 1)))
    line = make_sublattice(U, ((1, 0),))
    theta_neg = make_involution(line.induced_lattice(), ((-1,),))
    assert not is_type(psi, line, theta_neg)


def test_pieces_of_another_lattice_are_refused():
    # S311 pieces handed to an involution of U, or to a scan over U
    swap = make_involution(U, ((0, 1), (1, 0)))
    on_s = make_sublattice(S, ((1, 0, 0),))
    theta = make_involution(on_s.induced_lattice(), ((-1,),))
    other = "sublattice is embedded in a different lattice"
    with pytest.raises(EmbeddingMismatch, match=other):
        is_type(swap, on_s, theta)
    with pytest.raises(EmbeddingMismatch, match=other):
        period_domain_summary(swap, on_s)
    # S311's <-2> would be obstructed: the check comes first
    with pytest.raises(EmbeddingMismatch, match=other):
        da_degeneracy_scan(U, on_s, 1)
    assert da_degeneracy_scan(S, on_s, 1).status == "no-witness"


def test_make_involution_rejects_a_matrix_of_the_wrong_shape():
    for m in (la.identity(3), ((1, 0), (0,)), ((1, 0),)):
        with pytest.raises(DimensionMismatch, match="matrix is not 2 x 2"):
            make_involution(U, m)


def test_is_type_embedding_mismatch():
    Sc = make_sublattice(lk3(), s_copy_basis())
    theta = make_involution(U, ((1, 0), (0, 1)))  # wrong induced lattice
    with pytest.raises(EmbeddingMismatch):
        is_type(psi_minus(), Sc, theta)


def _type_triple(rng):
    """(psi, S, theta, true) with psi from random_involution and S spanned
    by an eigenlattice, by vectors from v, psi v, v +- psi v and 2v
    (sometimes a non-primitive S; two forms of one v give a theta that is
    not symmetric), or by random vectors.  true is the restriction read by
    columns, None when psi does not stabilize S; theta is true, -id or
    id."""
    psi = random_involution(rng)
    L, n = psi.ambient, psi.ambient.rank
    kind = rng.randrange(3)
    if kind == 0:
        basis = list(rng.choice((psi.fixed, psi.anti)).basis)
    else:
        basis = []
        for _ in range(rng.randint(1, n)):
            v = tuple(rng.randint(-2, 2) for _ in range(n))
            pv = la.mat_vec(psi.matrix, v)
            forms = [v]
            if kind == 1:
                forms = rng.sample((v, pv, tuple(a + b for a, b in zip(v, pv)),
                                    tuple(a - b for a, b in zip(v, pv)),
                                    tuple(2 * a for a in v)), rng.randint(1, 2))
            for w in forms:
                if any(w) and la.integer_rank(la.transpose(basis + [w])) == len(basis) + 1:
                    basis.append(w)
    s = make_sublattice(L, basis)
    true = oracles.restriction_by_columns(psi.matrix, s)
    k = s.rank
    theta = rng.choice([m for m in (true, _neg_id(k), la.identity(k)) if m is not None])
    return psi, s, make_involution(s.induced_lattice(), theta), true


def test_is_type_matches_the_restriction_read_by_columns():
    rng = random.Random(83)
    answers = {True: 0, False: 0}
    skewed = over_q = 0
    for _ in range(1500):
        psi, s, theta, true = _type_triple(rng)
        got = is_type(psi, s, theta)
        assert got == (true == theta.matrix), (psi, s.basis, theta.matrix)
        answers[got] += 1
        skewed += got and theta.matrix != la.transpose(theta.matrix)
        if true is None:
            images = [la.mat_vec(psi.matrix, b) for b in s.basis]
            over_q += la.integer_rank(la.transpose(list(s.basis) + images)) == s.rank
    assert min(answers.values()) >= 300 and skewed >= 30 and over_q >= 10, \
        (answers, skewed, over_q)


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


def test_period_domain_pairing_matches_triple_loop(monkeypatch):
    # the pairing B_S^t G A handed to la.kernel is the triple-loop one, also
    # when S has rank 0 and when anti has rank 0 (psi = id, so S = 0 too)
    rng = random.Random(2627)
    cases = []
    for _ in range(30):
        psi = random_involution(rng)
        anti = psi.anti.basis
        cases.append((psi, anti[: rng.randint(0, len(anti))]))
    cases.append((psi_split(), ()))
    cases.append((make_involution(lk3(), la.identity(22)), ()))
    pairings = []
    kernel = la.kernel

    def spy(m, ncols=None):
        pairings.append(m)
        return kernel(m, ncols)

    monkeypatch.setattr(la, "kernel", spy)
    seen = set()
    for psi, s_basis in cases:
        pairings.clear()
        summ = period_domain_summary(psi, make_sublattice(psi.ambient, s_basis))
        anti = psi.anti.basis
        assert pairings == [oracles.naive_pairing(s_basis, psi.ambient.gram, anti)]
        if not s_basis:
            assert summ.rank_anti_s == len(anti)
        seen.add((len(s_basis) > 0, len(anti) > 0))
    assert seen == {(False, False), (False, True), (True, True)}


def _nonsymmetric_involutions(rng, count):
    """Involutions psi != psi^t with fixed rank >= 2 and a basis vector a of
    anti with psi^t a != -a, so a check that read psi^t for psi would fail
    on them."""
    found = []
    while len(found) < count:
        psi = random_involution(rng)
        m = psi.matrix
        if m == la.transpose(m) or psi.fixed.rank < 2:
            continue
        if all(la.mat_vec(la.transpose(m), a) == tuple(-c for c in a) for a in psi.anti.basis):
            continue
        found.append(psi)
    return found


def test_negation_check_reads_psi_not_its_transpose():
    for psi in _nonsymmetric_involutions(random.Random(2628), 10):
        summ = period_domain_summary(psi, make_sublattice(psi.ambient, psi.anti.basis))
        assert summ.rank_anti_s == 0 and summ.rank_fixed == psi.fixed.rank


def test_negation_check_names_the_first_offender():
    # of two basis vectors that psi does not negate, the first is named
    for psi in _nonsymmetric_involutions(random.Random(2629), 10):
        a, (f0, f1) = psi.anti.basis[0], psi.fixed.basis[:2]
        for basis, first in (((a, f0, f1), f0), ((f1, a, f0), f1)):
            s = make_sublattice(psi.ambient, basis)
            message = f"basis vector {first} is not negated by the involution"
            with pytest.raises(SNotInAntiFixed) as exc:
                period_domain_summary(psi, s)
            assert str(exc.value) == message


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


def test_positive_definite_complement_answers_an_exact_no():
    # the coset test passes, d1 = (1, 0) = 2 (0, 1) + (1, -2), but the
    # complement <4> is positive definite and holds no norm -4 vector
    L = make_lattice(((-4, -2), (-2, 0)))
    s = make_sublattice(L, ((1, 0),))
    comp = orthogonal_complement(s)
    assert comp.induced_gram() == ((4,),)
    assert all((a - b) % 2 == 0 for a, b in zip((1, 0), comp.basis[0]))
    for bound in (1, 3):
        assert delta4_membership(L, s, (1, 0), bound) == MembershipResult("no", None)


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
    # _split decides d1 = 2 proj_S(delta) in the coordinates of S's
    # saturation; the oracle splits over S's own basis by Fractions
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
        sat = saturate(make_sublattice(L, basis))
        gs = sat.induced_gram()
        den = abs(la.bareiss_det(gs))
        if den in (0, 1, 2):
            continue
        adj = tuple(tuple(int(den * x) for x in row) for row in la.rational_inverse(gs))
        bg = la.mat_mul(sat.basis, L.gram)
        perp = la.kernel([la.mat_vec(L.gram, b) for b in basis], ncols=n)
        for _ in range(40):
            if rng.random() < 0.5:
                delta = tuple(rng.randint(-3, 3) for _ in range(n))
            else:
                # S plus its complement: the split is integral
                parts = [rng.randint(-2, 2) for _ in basis + list(perp)]
                delta = tuple(sum(c * v[i] for c, v in zip(parts, basis + list(perp)))
                              for i in range(n))
            split = _split(bg, adj, den, delta)
            if split is None:
                got = None
                rejected += 1
            else:
                y, z = split
                assert y == tuple(inner_product(L, b, delta) for b in sat.basis)
                d1 = sat.to_ambient(z)
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
    # the box search as da_degeneracy_scan calls it, on S's saturation:
    # _split reads d1's integrality from its coordinates there
    sat = saturate(s)
    gs = sat.induced_gram()
    return _box_search(L, sat, gs, abs(la.bareiss_det(gs)), bound)


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
        assert sum(g.rank == s.rank and all(sat.from_ambient(v) is not None for v in g.basis)
                   for g in grams) == 1


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
    plus, half the time, a combination of the basis of (r1 - r2)-perp;
    delta = r1 splits as ((r1 + r2) + (r1 - r2))/2, so r1 - r2 is a glue
    partner of d1 = r1 + r2.  Returns (N, S, d1) or None."""
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
        coeffs = [rng.randint(-1, 1) for _ in perp]
        extra = tuple(sum(c * v[i] for c, v in zip(coeffs, perp)) for i in range(n))
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


def _unimodular(rng, n, ops):
    """(t, tinv): a product of `ops` random column operations col_j += +-col_i
    and its inverse, as lists of rows."""
    t = [list(row) for row in la.identity(n)]
    tinv = [list(row) for row in la.identity(n)]
    for _ in range(ops):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        for row in t:
            row[j] += c * row[i]
        tinv[i] = [a - c * b for a, b in zip(tinv[i], tinv[j])]
    return t, tinv


def _rebased(L, s, t, tinv, *vectors):
    """L, s and vectors in the basis given by the columns of t: Gram t^t G t,
    coordinates tinv v."""
    g = la.mat_mul(la.transpose(t), la.mat_mul(L.gram, t))
    L2 = make_lattice(g)
    return (L2, make_sublattice(L2, [la.mat_vec(tinv, b) for b in s.basis]),
            *(la.mat_vec(tinv, v) for v in vectors))


def _deep_planted_case(rng):
    """N = <-2> + <-2>, plus <-4> or <-6> two times in three, and S = Z(e0 +
    e1), plus Z e2 half the time there, in a random basis.  The norm -2
    vectors are +-e0 and +-e1, and both split, with d1 = e0 + e1; the basis
    puts them at radius 3 or 4, in either lexicographic order."""
    n = rng.choice((2, 3, 3))
    L = make_lattice(tuple(tuple(-2 * (1 + (i == 2) * rng.randint(1, 2)) * (i == j)
                                 for j in range(n)) for i in range(n)))
    basis = [(1, 1, 0)[:n]] + ([(0, 0, 1)] if n == 3 and rng.random() < 0.5 else [])
    while True:
        t, tinv = _unimodular(rng, n, rng.randint(3, 8))
        if all(max(abs(row[j]) for row in tinv) in (3, 4) for j in (0, 1)):
            return _rebased(L, make_sublattice(L, basis), t, tinv)


def _radii(bound):
    # the box radii of the searches: 1, 2, 4, ..., capped at bound
    out = [1]
    while out[-1] < bound:
        out.append(min(2 * out[-1], bound))
    return out


def _same_step(v, bound):
    """The range of box radii that the search's box holding v adds."""
    radii = [0, *_radii(bound)]
    k = next(k for k, r in enumerate(radii) if r >= max(map(abs, v)))
    return range(radii[k - 1] + 1, radii[k] + 1)


def test_growing_boxes_keep_the_key_minimal_split_where_radii_mix():
    # bounds 3-5, where one box adds several radii (4 adds 3 and 4): the
    # witness is still the _scan_key minimum of the brute box.  One case in
    # three is planted with its only witnesses at radius 3 or 4; the others
    # are the random and planted cases above in a random basis.  A box past
    # 2 10^4 cells is skipped only to keep the brute oracle quick
    rng = random.Random(71)
    cases = found = deep = mixed = 0
    while cases < 150:
        kind = cases % 3
        if kind == 0:
            case = _deep_planted_case(rng)
        else:
            case = _planted_case(rng) if kind == 1 else _random_even_case(rng)
            if case is not None:
                case = _rebased(*case[:2], *_unimodular(rng, case[0].rank, rng.randint(0, 6)))
        if case is None:
            continue
        L, s = case
        bound = rng.randint(3, 5)
        if (2 * bound + 1) ** L.rank > 2 * 10**4:
            continue
        cases += 1
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
        best = min(hits, key=lambda h: _scan_key(h[0]))
        assert got == DegeneracyScanResult("degenerate", *best), (L.gram, s.basis, bound)
        deep += max(map(abs, best[0])) >= 3
        # the first hit of best's box in canonical order is another vector:
        # without the sort by radius that box would answer with it
        step = _same_step(best[0], bound)
        mixed += min(h[0] for h in hits
                     if h[0] > (0,) * L.rank and max(map(abs, h[0])) in step) != best[0]
    assert found >= 80 and deep >= 30 and mixed >= 5, (found, deep, mixed)


def test_growing_boxes_scan_only_up_to_the_witness(monkeypatch):
    # the boxes the searches ask for: the witness of N4 with S' lies at
    # radius 1, DEEP's partner at radius 2, and a miss scans every radius
    radii = []
    box = involutions.bounded_vectors_of_norm

    def recorded(L, m, bound):
        radii.append(bound)
        return box(L, m, bound)

    monkeypatch.setattr(involutions, "bounded_vectors_of_norm", recorded)
    assert da_degeneracy_scan(n4_model().lattice, n4_sprime(), 6).delta == (0, 0, 1, -1)
    assert radii == [1]
    radii.clear()
    L = make_lattice(DEEP_GRAM)
    assert delta4_membership(L, make_sublattice(L, (DEEP_D1,)), DEEP_D1, 4) == \
        MembershipResult("yes", DEEP_WITNESS)
    assert radii == [1, 2]
    radii.clear()
    # S = <-4> with S-perp = <-4> + <0>, which holds no norm -2 vector
    L = make_lattice(((-4, 0, 0), (0, -4, 0), (0, 0, 0)))
    assert da_degeneracy_scan(L, make_sublattice(L, ((1, 0, 0),)), 5).status == \
        "no-witness-within-bound"
    assert radii == [1, 2, 4, 5]


def test_growing_boxes_refuse_the_full_box_before_the_first(monkeypatch):
    # N4 + A1(-1)^8 at bound 4 has 9^12 cells, past _MAX_BOX_CELLS, though
    # the unit box holds the N4 witness: the search raises, as the single
    # full box did, and scans nothing
    n4 = n4_model().lattice
    L = direct_sum(n4, make_lattice(tuple(tuple(-2 * (i == j) for j in range(8))
                                          for i in range(8))))
    s = make_sublattice(L, [v + (0,) * 8 for v in n4_sprime().basis])
    # the glue obstruction passes: at bound 1 the box answers
    assert da_degeneracy_scan(L, s, 1).delta == (0, 0, 1, -1) + (0,) * 8
    scanned = []
    monkeypatch.setattr(involutions, "bounded_vectors_of_norm",
                        lambda *args: scanned.append(args))
    with pytest.raises(EnumerationOverflow) as exc:
        da_degeneracy_scan(L, s, 4)
    assert str(exc.value) == ("box of side 9 in rank 12 has 282429536481 cells "
                              "(limit 200000000); lower the bound")
    assert scanned == []


def _glue_hits(L, comp, d1, candidates):
    """The (c, w) with c among candidates, in the complement's coordinates,
    w its ambient image summed entry by entry, and d1 + w in 2L."""
    hits = []
    for c in candidates:
        amb = [0] * L.rank
        for j, b in enumerate(comp.basis):
            for i in range(L.rank):
                amb[i] += c[j] * b[i]
        if all((a + b) % 2 == 0 for a, b in zip(d1, amb)):
            hits.append((c, tuple(amb)))
    return hits


def _key_minimal(hits):
    """The ambient w of the _scan_key-minimal c, its first nonzero made
    positive."""
    witness = min(hits, key=lambda h: _scan_key(h[0]))[1]
    if next(x for x in witness if x) < 0:
        witness = tuple(-x for x in witness)
    return witness


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
        hits = _glue_hits(L, comp, d1, oracles.brute_box_vectors(comp.induced_gram(), -4, bound))
        got = delta4_membership(L, s, d1, bound)
        # r1 - r2 is a partner, so a planted case never answers "no"
        assert got.status != "no", (L.gram, s.basis, d1, bound)
        if not hits:
            assert got == MembershipResult("unknown", None)
            continue
        found += 1
        several += len(hits) > 2
        assert got == MembershipResult("yes", _key_minimal(hits)), (L.gram, s.basis, d1, bound)
    assert found >= 50 and several >= 20


def test_delta4_bounded_witness_is_the_key_minimal_glue_at_bounds_3_4():
    # the same oracle at bounds 3-4, whose boxes add radius 3, or 3 and 4;
    # half the cases are taken in a random basis of N
    rng = random.Random(67)
    cases = found = deep = 0
    while cases < 80:
        case = _planted_case(rng)
        if case is None:
            continue
        L, s, d1 = case
        if rng.random() < 0.5:
            L, s, d1 = _rebased(L, s, *_unimodular(rng, L.rank, rng.randint(1, 6)), d1)
        comp = orthogonal_complement(s)
        p, q, _ = signature(comp.induced_lattice())
        if not (p and q):
            continue
        cases += 1
        bound = rng.randint(3, 4)
        hits = _glue_hits(L, comp, d1, oracles.brute_box_vectors(comp.induced_gram(), -4, bound))
        got = delta4_membership(L, s, d1, bound)
        assert got.status != "no", (L.gram, s.basis, d1, bound)
        if not hits:
            assert got == MembershipResult("unknown", None)
            continue
        found += 1
        deep += max(map(abs, min(hits, key=lambda h: _scan_key(h[0]))[0])) >= 3
        assert got == MembershipResult("yes", _key_minimal(hits)), (L.gram, s.basis, d1, bound)
    assert found >= 50 and deep >= 5, (found, deep)


def test_delta4_definite_witness_is_the_key_minimal_glue():
    # on a definite complement the enumeration is complete, so any bound
    # gives the _scan_key minimum over the whole brute box of the a priori
    # coordinate bound, and the answer is never "unknown"; a box past 10^5
    # cells is skipped only to keep the oracle quick
    rng = random.Random(59)
    cases = beyond = 0
    while cases < 60:
        case = _planted_case(rng)
        if case is None:
            continue
        L, s, d1 = case
        comp = orthogonal_complement(s)
        gram = comp.induced_gram()
        p, q, _ = signature(comp.induced_lattice())
        box = oracles.coordinate_bound(gram, -4)
        if (p and q) or (2 * box + 1) ** comp.rank > 10**5:
            continue
        cases += 1
        hits = _glue_hits(L, comp, d1, oracles.brute_box_vectors(gram, -4, box))
        bound = rng.randint(1, 2)
        got = delta4_membership(L, s, d1, bound)
        # r1 - r2 is a partner, so the complement is negative definite
        assert hits and got == MembershipResult("yes", _key_minimal(hits)), (L.gram, s.basis, d1)
        beyond += max(map(abs, min(hits, key=lambda h: _scan_key(h[0]))[0])) > bound
    assert beyond >= 3


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
    # answers exactly and the box search never runs
    def refuse(*args):
        raise AssertionError("the box search ran")

    monkeypatch.setattr(involutions, "_box_search", refuse)
    for L in (S, standard_lattice("LK3")):
        got = da_degeneracy_scan(L, make_sublattice(L, []), 1)
        assert got == DegeneracyScanResult("no-witness", None, None, None)


def test_degenerate_complement_falls_through_to_the_box():
    # S = <-4> has the class e0/2 with q = 1, and S-perp = <-4> + <0> is
    # degenerate, with no discriminant form: nothing is ruled out, so the
    # box runs and, finding no norm -2 vector, answers within its bound
    L = make_lattice(((-4, 0, 0), (0, -4, 0), (0, 0, 0)))
    s = make_sublattice(L, ((1, 0, 0),))
    for bound in (1, 2):
        assert da_degeneracy_scan(L, s, bound) == DegeneracyScanResult(
            "no-witness-within-bound", None, None, None)


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
