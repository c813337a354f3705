import enum
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import oracles
from helpers import n4_model, n4_sprime, random_involution_data, same_sublattice
from zlattice import (
    DegenerateSublattice,
    DimensionMismatch,
    NotIntegral,
    NotSquare,
    NotSymmetric,
    RankDeficient,
    UnknownName,
    determinant,
    direct_sum,
    inner_product,
    is_even,
    is_hyperbolic,
    lattice_from_json_dict,
    make_involution,
    make_lattice,
    make_sublattice,
    norm,
    orthogonal_complement,
    saturate,
    signature,
    standard_lattice,
)
from zlattice.errors import InvalidInputFile
from zlattice import intlinalg as la
from zlattice.lattices import SublatticeEmbedding, check_vector

U = standard_lattice("U")
S = standard_lattice("S311")
E8M = standard_lattice("E8(-1)")
LK3 = standard_lattice("LK3")

E_T, F_T, A_T = (1, 0, 0), (0, 1, 0), (0, 0, 1)  # S311 basis order
U_BASIS = (A_T, (1, 1, 0))  # (A~, E~+F~)


# --- construction ---


def test_make_lattice_basic():
    L = make_lattice(((0, 1), (1, 0)))
    assert L.rank == 2
    assert S.gram == ((-2, 2, 1), (2, -2, 0), (1, 0, -2))


def test_make_lattice_rejects_bad_gram():
    with pytest.raises(NotSymmetric) as exc:
        make_lattice(((0, 1), (2, 0)))
    assert "gram[0][1] = 1 but gram[1][0] = 2" in str(exc.value)
    with pytest.raises(NotSquare):
        make_lattice(((0, 1, 0), (1, 0, 0)))
    with pytest.raises(NotIntegral):
        make_lattice(((0, 1.5), (1.5, 0)))
    with pytest.raises(NotIntegral):
        make_lattice(((True, 0), (0, 1)))


class _Bit(enum.IntEnum):
    ZERO = 0
    ONE = 1


class _Int(int):
    pass


# entries the boundary must refuse: a bool is not an integer here, and
# neither is a float, string, None or Fraction, even of integral value
_NOT_INTS = (True, False, 2.0, 1.5, "1", None, Fraction(2, 1))


def _same_int(rng, x):
    """x itself, or an int subclass instance equal to it."""
    roll = rng.random()
    if roll < 0.3 and x in (0, 1):
        return _Bit(x)
    if roll < 0.6:
        return _Int(x)
    return x


def _per_entry_verdict(rows):
    """The rule the boundary keeps, entry by entry: the NotIntegral message
    for the first entry in row-major order that is a bool or not an int,
    or None when every entry passes."""
    for row in rows:
        for x in row:
            if isinstance(x, bool) or not isinstance(x, int):
                return f"entry {x!r} is not an integer"
    return None


def _spoil(rng, rows, count):
    """Nonempty rows as lists, with count entries at random places (a place
    may repeat) replaced by entries that are not integers."""
    out = [list(row) for row in rows]
    for _ in range(count):
        row = rng.choice(out)
        row[rng.randrange(len(row))] = rng.choice(_NOT_INTS)
    return out


def _assert_same_objects(got, given):
    assert len(got) == len(given)
    for a, b in zip(got, given):
        assert len(a) == len(b) and all(x is y for x, y in zip(a, b))


def test_integer_boundary_matches_per_entry_rule():
    # check_vector, make_lattice and make_involution give the verdict and
    # the NotIntegral message of the per-entry rule on mixed rows, accept
    # int subclasses (an IntEnum member, a plain subclass) and keep them
    # as the same objects
    rng = random.Random(2606)
    seen = {"accepted": 0, "rejected": 0, "several": 0}

    def judge(call, rows, *args):
        got = message = None
        try:
            got = call(*args)
        except NotIntegral as exc:
            message = str(exc)
        expected = _per_entry_verdict(rows)
        assert message == expected, (rows, message)
        seen["accepted" if expected is None else "rejected"] += 1
        seen["several"] += sum(_per_entry_verdict([[x]]) is not None
                               for row in rows for x in row) > 1
        return got

    for _ in range(120):
        n = rng.randint(1, 6)
        spoiled = rng.choice((0, 0, 1, 2, 3))

        L = make_lattice(la.identity(n))
        vec = _spoil(rng, [[_same_int(rng, rng.randint(-3, 3)) for _ in range(n)]], spoiled)[0]
        got = judge(check_vector, [vec], L, vec)
        if got is not None:
            _assert_same_objects([got], [vec])

        gram = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                gram[i][j] = gram[j][i] = _same_int(rng, rng.choice((0, 1, -2, 2**70)))
        rows = _spoil(rng, gram, spoiled)
        got = judge(make_lattice, rows, rows)
        if got is not None:
            _assert_same_objects(got.gram, rows)

        g, m = random_involution_data(rng, rng.randint(2, 6))
        L = make_lattice(g)
        m = [[_same_int(rng, x) for x in row] for row in m]
        rows = _spoil(rng, m, spoiled)
        got = judge(make_involution, rows, L, rows)
        if got is not None:
            _assert_same_objects(got.matrix, rows)
    assert all(seen.values()), seen


def test_integer_boundary_names_the_first_bad_entry():
    L = make_lattice(la.identity(3))
    with pytest.raises(NotIntegral, match=r"^entry True is not an integer$"):
        check_vector(L, (_Bit.ONE, True, 2.0))
    with pytest.raises(NotIntegral, match=r"^entry 'a' is not an integer$"):
        make_lattice(((0, "a", None), (None, 0, 1.5), (Fraction(2, 1), 1, 0)))
    with pytest.raises(NotIntegral, match=r"^entry Fraction\(2, 1\) is not an integer$"):
        make_lattice(((0, 1), (Fraction(2, 1), None)))
    with pytest.raises(NotIntegral, match=r"^entry None is not an integer$"):
        make_involution(U, ((0, 1), (None, 0.0)))
    # the integer check comes before the shape and symmetry checks
    with pytest.raises(NotIntegral, match=r"^entry False is not an integer$"):
        make_lattice(((0, 1, 2), (3, False)))
    psi = make_involution(U, ((_Int(0), _Bit.ONE), (_Bit.ONE, _Bit.ZERO)))
    assert psi.matrix[0][1] is _Bit.ONE and type(psi.matrix[0][0]) is _Int


def test_rank_zero_lattice():
    Z = make_lattice(())
    assert Z.rank == 0
    assert determinant(Z) == 1
    assert signature(Z) == (0, 0, 0)


# --- inner products and norms ---


def test_inner_product_examples():
    assert inner_product(U, (1, 0), (0, 1)) == 1
    assert inner_product(S, E_T, A_T) == 1
    assert inner_product(S, F_T, F_T) == -2
    assert norm(S, F_T) == -2


def test_inner_product_dimension_check():
    with pytest.raises(DimensionMismatch):
        inner_product(U, (1, 0, 0), (0, 1))


# --- determinant and signature ---


def test_determinant_examples():
    assert determinant(U) == -1
    assert determinant(S) == 2
    pic_y = standard_lattice("PicY")
    assert determinant(pic_y) == 1
    assert determinant(pic_y) == oracles.cofactor_det([list(r) for r in pic_y.gram])


def test_signature_examples():
    assert signature(U) == (1, 1, 0)
    assert signature(E8M) == (0, 8, 0)
    assert signature(LK3) == (3, 19, 0)
    assert signature(make_lattice(((0,),))) == (0, 0, 1)


def test_signature_matches_sympy_on_random_symmetric():
    rng = random.Random(19)
    for _ in range(40):
        n = rng.randint(1, 5)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = rng.randint(-6, 6)
        L = make_lattice(tuple(tuple(r) for r in m))
        assert signature(L) == oracles.sympy_inertia(m)


def test_is_definite_examples_and_sympy():
    """Definiteness is read off the signature (no zero and one sign), so
    the signature is checked on definite and semidefinite Gram matrices."""
    assert signature(standard_lattice("A1(-1)")) == (0, 1, 0)
    assert signature(make_lattice(((2,),))) == (1, 0, 0)
    assert signature(standard_lattice("PicY")) == (1, 2, 0)
    rng = random.Random(23)
    seen = set()
    for _ in range(60):
        n = rng.randint(1, 4)
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.5:
            # +-A^t A: definite unless A is singular
            sign = rng.choice((-1, 1))
            m = [[sign * sum(a[k][i] * a[k][j] for k in range(n)) for j in range(n)]
                 for i in range(n)]
        else:
            m = [[a[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        p, q, z = signature(make_lattice(m))
        assert (p, q, z) == oracles.sympy_inertia(m)
        seen.add(z == 0 and (p == 0 or q == 0))
    assert seen == {True, False}


def _random_unimodular(rng, n, steps=8):
    t = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice((-1, 1))
        for k in range(n):
            t[k][j] += c * t[k][i]
    return tuple(tuple(r) for r in t)


def test_det_and_signature_are_basis_invariants():
    rng = random.Random(29)
    for L in (U, S, E8M, standard_lattice("PicY")):
        g = L.gram
        for _ in range(25):
            t = _random_unimodular(rng, L.rank)
            g2 = la.mat_mul(la.mat_mul(la.transpose(t), g), t)
            L2 = make_lattice(g2)
            assert determinant(L2) == determinant(L)
            assert signature(L2) == signature(L)


# --- parity, definiteness, hyperbolicity ---


def test_parity_predicates():
    assert is_even(U) and is_even(S) and is_even(LK3)
    assert not is_even(standard_lattice("PicY"))
    assert is_even(make_lattice(()))


def test_hyperbolic_predicate():
    assert is_hyperbolic(U)
    assert is_hyperbolic(S)
    assert not is_hyperbolic(E8M)
    assert not is_hyperbolic(make_lattice(()))


# --- direct sums ---


def test_direct_sum_examples():
    m2 = make_lattice(((-2,),))
    X = direct_sum(U, m2)
    assert X.rank == 3 and determinant(X) == 2
    assert direct_sum(U, make_lattice(())).gram == U.gram
    assert LK3.rank == 22


def test_direct_sum_multiplicativity():
    rng = random.Random(31)
    for _ in range(30):
        n1, n2 = rng.randint(1, 3), rng.randint(1, 3)
        def sym(n):
            m = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    m[i][j] = m[j][i] = rng.randint(-5, 5)
            return make_lattice(tuple(tuple(r) for r in m))
        A, B = sym(n1), sym(n2)
        X = direct_sum(A, B)
        assert determinant(X) == determinant(A) * determinant(B)
        sa, sb, sx = signature(A), signature(B), signature(X)
        assert sx == (sa[0] + sb[0], sa[1] + sb[1], sa[2] + sb[2])


# --- sublattices ---


def test_sublattice_embedding_basics():
    u = make_sublattice(S, U_BASIS)
    assert u.rank == 2
    assert u.induced_gram() == ((-2, 1), (1, 0))
    assert determinant(u.induced_lattice()) == -1
    assert is_even(u.induced_lattice())
    assert u.from_ambient(F_T) is None
    assert u.from_ambient((1, 1, 0)) == (0, 1)
    assert u.to_ambient((0, 1)) == (1, 1, 0)
    # rank 0: the zero vector alone is a member, with no coordinates
    zero = SublatticeEmbedding(U, ())
    assert zero.from_ambient((0, 0)) == ()
    assert zero.from_ambient((1, 0)) is None


def test_induced_gram_matches_triple_loop():
    # B (B G)^t is B G B^t for symmetric G, on sparse and dense bases of
    # rank 0 up to full rank, with entries past 2^64
    rng = random.Random(2626)
    seen = {"rank 0": 0, "full rank": 0, "past 2^64": 0}
    for _ in range(150):
        n = rng.randint(1, 9)
        span = rng.choice((3, 2**70))
        density = rng.choice((0.15, 0.5, 1.0))

        def entry():
            return rng.randint(-span, span) if rng.random() < density else 0

        gram = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                gram[i][j] = gram[j][i] = entry()
        L = make_lattice(gram)
        k = rng.choice((0, n, rng.randint(0, n)))
        basis = tuple(tuple(entry() for _ in range(n)) for _ in range(k))
        got = SublatticeEmbedding(L, basis).induced_gram()
        assert got == oracles.naive_pairing(basis, L.gram, basis)
        seen["rank 0"] += k == 0
        seen["full rank"] += k == n and la.integer_rank(la.transpose(basis)) == n
        seen["past 2^64"] += any(abs(x) >= 2**64 for row in got for x in row)
    assert all(seen.values()), seen


def test_to_ambient_matches_double_loop():
    rng = random.Random(41)
    for _ in range(200):
        n = rng.randint(1, 6)
        L = make_lattice(la.identity(n))
        basis = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(rng.randint(0, n))]
        if basis and la.integer_rank(la.transpose(basis)) != len(basis):
            continue
        k = make_sublattice(L, basis)
        coords = tuple(rng.randint(-9, 9) for _ in basis)
        naive = [0] * n
        for j, b in enumerate(basis):
            for i in range(n):
                naive[i] += coords[j] * b[i]
        assert k.to_ambient(coords) == tuple(naive)
    empty = make_sublattice(S, ())
    assert empty.to_ambient(()) == (0, 0, 0)
    with pytest.raises(DimensionMismatch, match="expected 2 internal coordinates, got 3"):
        make_sublattice(S, U_BASIS).to_ambient((1, 0, 0))
    with pytest.raises(DimensionMismatch, match="expected 0 internal coordinates, got 1"):
        empty.to_ambient((1,))


def test_sublattice_rejects_dependent_basis():
    with pytest.raises(RankDeficient):
        make_sublattice(U, ((1, 0), (2, 0)))


def test_orthogonal_complement_examples():
    u = make_sublattice(S, U_BASIS)
    c = orthogonal_complement(u)
    assert c.rank == 1
    assert c.induced_gram() == ((-2,),)
    assert same_sublattice(c, make_sublattice(S, (F_T,)))

    # isotropic vector: complement of Z e inside U is Z e itself
    e_line = make_sublattice(U, ((1, 0),))
    ce = orthogonal_complement(e_line)
    assert ce.rank == 1
    assert ce.induced_gram() == ((0,),)
    assert same_sublattice(ce, e_line)

    cf = orthogonal_complement(make_sublattice(S, (F_T,)))
    assert cf.rank == 2
    assert determinant(cf.induced_lattice()) == -1

    # the complement of the zero sublattice is everything
    assert orthogonal_complement(make_sublattice(S, ())).basis == la.identity(3)


def test_orthogonal_complement_properties():
    rng = random.Random(43)
    for _ in range(25):
        k = rng.randint(1, 2)
        vs = []
        while len(vs) < k:
            v = tuple(rng.randint(-2, 2) for _ in range(3))
            try:
                make_sublattice(S, tuple(vs) + (v,))
            except RankDeficient:
                continue
            vs.append(v)
        K = make_sublattice(S, tuple(vs))
        if determinant(K.induced_lattice()) == 0:
            continue
        C = orthogonal_complement(K)
        assert K.rank + C.rank == S.rank
        for b in C.basis:
            for v in K.basis:
                assert inner_product(S, b, v) == 0
        assert same_sublattice(saturate(C), C)


def _index_in(outer, inner) -> int:
    """[outer : inner] for sublattices of equal rank, inner inside outer:
    |det| of inner's basis written in outer's basis, by cofactor expansion."""
    coords = [outer.from_ambient(v) for v in inner.basis]
    assert None not in coords
    return abs(oracles.cofactor_det([list(c) for c in coords]))


def test_saturate_examples():
    two_e = make_sublattice(U, ((2, 0),))
    assert same_sublattice(saturate(two_e), make_sublattice(U, ((1, 0),)))
    assert _index_in(saturate(two_e), two_e) == 2
    sk = make_sublattice(S, ((1, 1, 0), (0, 0, 2)))
    assert same_sublattice(saturate(sk), make_sublattice(S, ((1, 1, 0), (0, 0, 1))))
    # the first HNF pivot is 1, the second 2
    assert _index_in(saturate(sk), sk) == oracles.sympy_maximal_minor_gcd(sk.basis) == 2
    u = make_sublattice(S, U_BASIS)
    assert saturate(u) is u
    assert oracles.sympy_maximal_minor_gcd(u.basis) == 1


def test_saturate_runs_two_hermite_reductions(monkeypatch):
    # non-primitive S = U + Z 2w on N4, w = (0, 0, 2, -1): one HNF finds
    # the index and gives the left kernel, the second is the outer kernel's
    calls = []
    hnf = la.hnf_with_transform

    def counted(m, ncols=None):
        calls.append(m)
        return hnf(m, ncols)

    s = make_sublattice(n4_model().lattice, ((1, -1, 0, 0), (0, 1, 0, 0), (0, 0, 4, -2)))
    monkeypatch.setattr(la, "hnf_with_transform", counted)
    sat = saturate(s)
    assert len(calls) == 2
    monkeypatch.undo()
    assert same_sublattice(sat, n4_sprime())


def test_saturate_keeps_primitive_and_matches_minor_gcd():
    rng = random.Random(43)
    primitive = non_primitive = late_pivot = 0
    for _ in range(300):
        n = rng.randint(1, 6)
        L = make_lattice(la.identity(n))
        basis = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(0, n))]
        if basis and la.integer_rank(la.transpose(basis)) != len(basis):
            continue
        if basis and rng.random() < 0.3:
            j = rng.randrange(len(basis))
            basis[j] = tuple(2 * c for c in basis[j])
        k = make_sublattice(L, basis)
        index = oracles.sympy_maximal_minor_gcd(basis)
        sat = saturate(k)
        if index == 1:
            primitive += 1
            assert sat is k
            continue
        non_primitive += 1
        # the double integer kernel, as saturate has always built it
        left = la.kernel(k.basis, ncols=n)
        assert sat.basis == (la.kernel(left, ncols=n) if left else la.identity(n))
        assert _index_in(sat, k) == index, basis
        assert oracles.sympy_maximal_minor_gcd(sat.basis) == 1
        first_row_gcd = 0
        for c in basis[0]:
            first_row_gcd = la.xgcd(first_row_gcd, c)[0]
        late_pivot += first_row_gcd == 1
    assert primitive >= 50 and non_primitive >= 50 and late_pivot >= 10


# --- named lattices ---


def test_standard_lattice_catalog():
    assert standard_lattice("U").gram == ((0, 1), (1, 0))
    assert standard_lattice("A1(-1)").gram == ((-2,),)
    assert standard_lattice("PicF4").gram == ((0, 1), (1, -4))
    assert standard_lattice("PicY").gram == ((-1, 1, 1), (1, -1, 0), (1, 0, -4))
    assert standard_lattice("S311").gram == ((-2, 2, 1), (2, -2, 0), (1, 0, -2))
    assert E8M.rank == 8 and signature(E8M) == (0, 8, 0) and is_even(E8M)
    assert abs(determinant(E8M)) == 1


def test_lk3_is_even_unimodular_3_19():
    assert is_even(LK3)
    assert abs(determinant(LK3)) == 1
    assert signature(LK3) == (3, 19, 0)


def test_unknown_name():
    with pytest.raises(UnknownName) as exc:
        standard_lattice("E7")
    assert "E7" in str(exc.value)


# --- file format ---


def test_lattice_from_json_dict():
    L = lattice_from_json_dict({"gram": [[0, 1], [1, 0]], "name": "u"})
    assert L.gram == ((0, 1), (1, 0))
    assert L.name == "u"


def test_lattice_json_rejections():
    with pytest.raises(InvalidInputFile):
        lattice_from_json_dict({})
    with pytest.raises(NotSymmetric) as exc:
        lattice_from_json_dict({"gram": [[0, 1], [2, 0]]})
    assert "gram[0][1]" in str(exc.value)
    with pytest.raises(NotIntegral):
        lattice_from_json_dict({"gram": [[0.5]]})


# --- hypothesis: small symmetric matrices round-trip basics ---


sym2 = st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9))


@given(sym2)
def test_two_by_two_det_and_inertia_consistent(t):
    a, b, d = t
    L = make_lattice(((a, b), (b, d)))
    det = determinant(L)
    p, n, z = signature(L)
    assert p + n + z == 2
    if det != 0:
        assert z == 0
        # sign of det determined by inertia
        assert (det > 0) == (n % 2 == 0)
    else:
        assert z >= 1
