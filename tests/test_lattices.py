import random

import pytest
from hypothesis import given, strategies as st

import oracles
from zlattice import (
    DegenerateSublattice,
    DimensionMismatch,
    NonIntegralImage,
    NotIntegral,
    NotSquare,
    NotSymmetric,
    RankDeficient,
    UnknownName,
    ZeroNormVector,
    determinant,
    direct_sum,
    inner_product,
    is_definite,
    is_even,
    is_hyperbolic,
    lattice_from_json_dict,
    make_lattice,
    make_sublattice,
    norm,
    orthogonal_complement,
    reflection,
    same_sublattice,
    saturate,
    saturation_index,
    signature,
    standard_lattice,
    sublattice_index_from_bases,
)
from zlattice.errors import InvalidInputFile
from zlattice import intlinalg as la

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
    for L in (E8M, standard_lattice("A1(-1)"), make_lattice(((2,),))):
        assert is_definite(L)
    for L in (U, make_lattice(((0,),)), standard_lattice("PicY")):
        assert not is_definite(L)
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
        p, q, z = oracles.sympy_inertia(m)
        got = is_definite(make_lattice(m))
        assert got == (z == 0 and (p == 0 or q == 0))
        seen.add(got)
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
    assert u.contains((1, 1, 0))
    assert not u.contains(F_T)
    assert u.from_ambient((1, 1, 0)) == (0, 1)
    assert u.to_ambient((0, 1)) == (1, 1, 0)


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


def test_saturate_examples():
    two_e = make_sublattice(U, ((2, 0),))
    assert same_sublattice(saturate(two_e), make_sublattice(U, ((1, 0),)))
    sk = make_sublattice(S, ((1, 1, 0), (0, 0, 2)))
    assert same_sublattice(saturate(sk), make_sublattice(S, ((1, 1, 0), (0, 0, 1))))
    assert saturation_index(sk) == 2  # the first HNF pivot is 1, the second 2
    u = make_sublattice(S, U_BASIS)
    assert saturate(u) is u
    assert saturation_index(u) == 1
    assert saturation_index(two_e) == 2


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
        assert saturation_index(k) == index, basis
        sat = saturate(k)
        if index == 1:
            primitive += 1
            assert sat is k
            continue
        non_primitive += 1
        # the double integer kernel, as saturate has always built it
        left = la.kernel(k.basis, ncols=n)
        assert sat.basis == (la.kernel(left, ncols=n) if left else la.identity(n))
        assert sublattice_index_from_bases(sat.basis, k.basis) == index
        first_row_gcd = 0
        for c in basis[0]:
            first_row_gcd = la.xgcd(first_row_gcd, c)[0]
        late_pivot += first_row_gcd == 1
    assert primitive >= 50 and non_primitive >= 50 and late_pivot >= 10


def test_sublattice_index():
    inner = ((2, 0), (0, 3))
    outer = ((1, 0), (0, 1))
    assert sublattice_index_from_bases(outer, inner) == 6


# --- reflections ---


def test_reflection_examples():
    assert reflection(S, F_T, F_T) == (0, -1, 0)
    assert reflection(S, F_T, E_T) == (1, 2, 0)
    for x in (E_T, F_T, A_T):
        assert reflection(S, F_T, reflection(S, F_T, x)) == x


def test_reflection_errors():
    with pytest.raises(ZeroNormVector):
        reflection(U, (1, 0), (0, 1))
    g4 = make_lattice(((-4,), ))
    # fine when the projection coefficient is integral
    assert reflection(g4, (1,), (2,)) == (-2,)
    L = make_lattice(((-4, 0), (0, -2)))
    with pytest.raises(NonIntegralImage):
        reflection(L, (1, 1), (1, 0))


def test_reflection_in_root_is_isometry():
    rng = random.Random(47)
    roots = [v for v in
             [(x, y, z) for x in range(-2, 3) for y in range(-2, 3) for z in range(-2, 3)]
             if norm(S, v) == -2]
    assert roots
    for _ in range(40):
        d = rng.choice(roots)
        x = tuple(rng.randint(-3, 3) for _ in range(3))
        y = tuple(rng.randint(-3, 3) for _ in range(3))
        assert inner_product(S, reflection(S, d, x), reflection(S, d, y)) == \
            inner_product(S, x, y)


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
