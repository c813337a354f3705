"""Exact integer linear algebra against independent oracles.

The kernel routines back every lattice operation, so they get the
heaviest randomized cross-checking: naive cofactor determinants, sympy
Smith forms, and exact eigenvalue counts.
"""

import collections
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import oracles
from helpers import skewed_block_sum
from zlattice import intlinalg as la
from zlattice import standard_lattice


def rand_matrix(rng, rows, cols, lo=-9, hi=9):
    return tuple(
        tuple(rng.randint(lo, hi) for _ in range(cols)) for _ in range(rows)
    )


def rand_symmetric(rng, n, lo=-9, hi=9):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = rng.randint(lo, hi)
    return tuple(tuple(r) for r in m)


# --- products ---


def naive_mat_mul(a, b):
    # a factor with no rows carries no width, so A (m x 0) times B (0 x p)
    # has m empty rows
    width = len(b[0]) if b else 0
    return tuple(
        tuple(sum(row[k] * b[k][j] for k in range(len(b))) for j in range(width))
        for row in a
    )


def sparse_matrix(rng, rows, cols, density, lo=-9, hi=9):
    return tuple(
        tuple(rng.randint(lo, hi) if rng.random() < density else 0 for _ in range(cols))
        for _ in range(rows)
    )


def test_mat_mul_empty_shapes():
    assert la.mat_mul((), ((1, 2),)) == ()
    assert la.mat_mul((), ()) == ()
    assert la.mat_mul(((), ()), ()) == ((), ())
    assert la.mat_mul(((1, 2), (3, 4), (0, 0)), ((), ())) == ((), (), ())
    assert la.mat_mul(((0, 0),), ((1, 2, 3), (4, 5, 6))) == ((0, 0, 0),)
    assert la.mat_mul(((-3,),), ((7,),)) == ((-21,),)


def test_mat_mul_matches_naive_triple_loop():
    rng = random.Random(61)
    big = 2**64
    densities = (0.05, 0.3, 1.0)
    for _ in range(300):
        m, k, p = (rng.randint(0, 9) for _ in range(3))
        lo, hi = rng.choice(((-9, 9), (-big * 5, big * 5)))
        a = sparse_matrix(rng, m, k, rng.choice(densities), lo, hi)
        b = sparse_matrix(rng, k, p, rng.choice(densities), lo, hi)
        if m and k and rng.random() < 0.3:
            a = tuple((0,) * k if i == m // 2 else row for i, row in enumerate(a))
        if k and p and rng.random() < 0.3:
            j = rng.randrange(p)
            b = tuple(tuple(0 if c == j else x for c, x in enumerate(row)) for row in b)
        assert la.mat_mul(a, b) == naive_mat_mul(a, b)
    # the square sizes the involution checks multiply, at 5 % and full density
    for n in (10, 18, 22):
        for density in (0.05, 1.0):
            a = sparse_matrix(rng, n, n, density)
            b = sparse_matrix(rng, n, n, density, -big, big)
            assert la.mat_mul(a, b) == naive_mat_mul(a, b)


# --- determinant ---


def test_det_trivial_cases():
    assert la.bareiss_det(()) == 1
    assert la.bareiss_det(((7,),)) == 7
    assert la.bareiss_det(((0, 1), (1, 0))) == -1


def test_det_matches_cofactor_and_sympy():
    # bareiss_det is the last minor of ldl, so it takes symmetric matrices
    rng = random.Random(11)
    for _ in range(150):
        n = rng.randint(1, 5)
        m = rand_symmetric(rng, n)
        d = la.bareiss_det(m)
        assert d == oracles.cofactor_det([list(r) for r in m])
        assert d == oracles.sympy_det(m)


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
def test_det_2x2_formula(a, b, d):
    assert la.bareiss_det(((a, b), (b, d))) == a * d - b * b


# --- HNF ---


def test_hnf_structure():
    rng = random.Random(23)
    for _ in range(120):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = rand_matrix(rng, rows, cols)
        h, u = la.hnf_with_transform(m)
        # U unimodular, H = M U
        assert abs(oracles.dense_bareiss_det(u)) == 1
        assert la.mat_mul(m, u) == h
        # pivots positive, entries to the left of a pivot reduced into [0, pivot)
        r = la.integer_rank(m)
        pivot_rows = []
        for j in range(r):
            i = next(k for k in range(rows) if h[k][j] != 0)
            pivot_rows.append(i)
            assert h[i][j] > 0
            for jj in range(j):
                assert 0 <= h[i][jj] < h[i][j]
        # columns beyond the rank vanish
        for j in range(r, cols):
            assert all(h[i][j] == 0 for i in range(rows))


def test_hnf_idempotent_on_column_span():
    rng = random.Random(5)
    for _ in range(60):
        m = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        h, _ = la.hnf_with_transform(m)
        h2, _ = la.hnf_with_transform(h)
        assert h2 == h


def test_hnf_zero_rows_needs_ncols():
    h, u = la.hnf_with_transform((), ncols=3)
    assert h == ()
    assert u == la.identity(3)
    # the rank needs no width: a matrix with no rows has rank 0
    assert la.integer_rank(()) == 0


# --- kernel and integral solving ---


def test_kernel_annihilates_and_has_right_rank():
    rng = random.Random(37)
    for _ in range(120):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = rand_matrix(rng, rows, cols, -6, 6)
        ker = la.kernel(m)
        assert len(ker) == cols - la.integer_rank(m)
        for v in ker:
            assert la.mat_vec(m, v) == tuple([0] * rows)
        # kernel basis is itself independent
        if ker:
            cols_mat = tuple(tuple(v[i] for v in ker) for i in range(cols))
            assert la.integer_rank(cols_mat) == len(ker)


def test_kernel_is_saturated():
    # kernel of (2  0; 0  1) acting by rows on Z^3 style examples
    ker = la.kernel(((2, 0, 0), (0, 0, 3)))
    assert ker == ((0, 1, 0),)
    # a scaled relation must come back primitive
    ker2 = la.kernel(((4, -2),))
    assert ker2 == ((1, 2),)
    # no rows: everything is in the kernel, and the width must be given
    assert la.kernel((), ncols=2) == ((1, 0), (0, 1))
    with pytest.raises(ValueError, match="ncols required"):
        la.kernel(())


def test_kernel_mod2_spans_the_brute_force_kernel():
    # 0-6 rows by 0-7 columns, square, wide and tall, some rows zero and
    # some matrices all even: the returned 0/1 vectors are independent mod
    # 2 and span every x in {0,1}^ncols with M x = 0 (mod 2)
    rng = random.Random(89)
    kinds = collections.Counter()
    for trial in range(400):
        nrows, ncols = trial % 7, trial // 7 % 8
        m = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)]
        if trial % 5 == 0:
            m = [[2 * x for x in row] for row in m]
        for row in m:
            if rng.random() < 0.2:
                row[:] = [0] * ncols
        basis = la.kernel_mod2(m, ncols)
        assert all(len(v) == ncols and set(v) <= {0, 1} for v in basis), m
        span = {(0,) * ncols}
        for v in basis:
            span |= {tuple((a + b) % 2 for a, b in zip(w, v)) for w in span}
        assert len(span) == 2 ** len(basis), m
        brute = {x for x in itertools.product((0, 1), repeat=ncols)
                 if all(sum(a * b for a, b in zip(row, x)) % 2 == 0 for row in m)}
        assert span == brute, m
        kinds["wide" if ncols > nrows else "tall" if ncols < nrows else "square"] += 1
        kinds["zero row"] += any(not any(row) for row in m)
        kinds["all even"] += bool(m) and all(x % 2 == 0 for row in m for x in row)
        kinds["no rows"] += not m
    assert min(kinds.values()) >= 40, kinds


def test_solve_int_roundtrip_and_unsolvable():
    rng = random.Random(73)
    for _ in range(120):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = rand_matrix(rng, rows, cols, -5, 5)
        x = tuple(rng.randint(-4, 4) for _ in range(cols))
        v = la.mat_vec(m, x)
        y = la.solve_int(m, v)
        assert y is not None
        assert la.mat_vec(m, y) == v
    assert la.solve_int(((2,),), (1,)) is None
    assert la.solve_int(((2, 4), (0, 0)), (1, 3)) is None
    # the pivot row solves, the free row below it does not
    assert la.solve_int(((1,), (1,)), (1, 2)) is None
    # no caller hands it a matrix with no rows, whose width is unknown
    with pytest.raises(ValueError, match="ncols required"):
        la.solve_int((), ())


def test_solve_int_one_pass_matches_the_two_pass_rule():
    # wide, square and tall systems, some with zero rows, against the rule
    # that re-checks every row after back-substitution; a right side off
    # the image is usually unsolvable
    rng = random.Random(79)
    solved = unsolvable = 0
    for _ in range(4000):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = [list(r) for r in rand_matrix(rng, rows, cols, -4, 4)]
        for r in m:
            if rng.random() < 0.2:
                r[:] = [0] * cols
        if rng.random() < 0.5:
            v = la.mat_vec(m, tuple(rng.randint(-3, 3) for _ in range(cols)))
            v = tuple(c + (rng.random() < 0.3) * rng.randint(-2, 2) for c in v)
        else:
            v = tuple(rng.randint(-6, 6) for _ in range(rows))
        y = la.solve_int(m, v)
        assert y == oracles.two_pass_solve_int(m, v), (m, v)
        if y is None:
            unsolvable += 1
        else:
            solved += 1
            assert la.mat_vec(m, y) == v
    assert solved >= 1000 and unsolvable >= 1000


# --- SNF ---


def test_snf_transforms_and_divisibility():
    rng = random.Random(41)
    for trial in range(140):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = rand_matrix(rng, rows, cols, -8, 8)
        if trial >= 100:
            # rank-deficient: a product through an inner dimension below
            # min(rows, cols), so D must end in zeros
            inner = rng.randint(0, min(rows, cols) - 1)
            a = rand_matrix(rng, rows, inner, -3, 3)
            b = rand_matrix(rng, inner, cols, -3, 3)
            m = tuple(tuple(sum(a[i][t] * b[t][j] for t in range(inner)) for j in range(cols))
                      for i in range(rows))
        d, q = la.snf_with_transforms(m)
        assert abs(oracles.dense_bareiss_det(q)) == 1
        diag = [d[i][i] for i in range(min(rows, cols))]
        for i in range(len(diag) - 1):
            if diag[i + 1] != 0:
                assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert d[i][j] == 0
        assert all(x >= 0 for x in diag)
        # M Q = P^-1 D: column j of M Q is d_j times column j of a unimodular
        # matrix, and zero past the diagonal
        mq = la.mat_mul(m, q)
        quotients = []
        for j in range(cols):
            col = [row[j] for row in mq]
            dj = diag[j] if j < len(diag) else 0
            if dj == 0:
                assert not any(col)
            else:
                assert all(x % dj == 0 for x in col)
                quotients.append([x // dj for x in col])
        # the quotient columns extend to a unimodular matrix: the gcd of
        # their maximal minors is 1
        r = len(quotients)
        minors = [oracles.sympy_det(tuple(tuple(quotients[c][i] for c in range(r)) for i in sub))
                  for sub in itertools.combinations(range(rows), r)]
        assert math.gcd(*minors) == 1
        # the full diagonal, zeros and ones included, so a wrong rank shows
        assert tuple(diag) == oracles.sympy_smith_diagonal(m)


# --- sparse sweeps against the dense eliminations ---


def _dense_rank_and_kernel(m, ncols=None):
    h, u = oracles.dense_hnf_with_transform(m, ncols)
    nc = len(u)
    rank = sum(1 for c in range(nc) if any(row[c] for row in h))
    return rank, tuple(tuple(u[r][c] for r in range(nc)) for c in range(rank, nc))


def _assert_same_as_dense(m, ncols=None):
    if len(m) == (len(m[0]) if m else ncols) and m == la.transpose(m):
        # bareiss_det is the last minor of ldl, so it takes symmetric matrices
        assert la.bareiss_det(m) == oracles.dense_bareiss_det(m), m
    assert la.hnf_with_transform(m, ncols) == oracles.dense_hnf_with_transform(m, ncols), m
    rank, ker = _dense_rank_and_kernel(m, ncols)
    assert la.kernel(m, ncols) == ker, m
    assert la.integer_rank(m) == (rank if m else 0), m
    if m:
        assert la.snf_with_transforms(m) == oracles.dense_snf_with_transforms(m), m


def _random_sparse_case(rng):
    """A random integer matrix with 0-12 rows and columns, square half the
    time, of density 0.1-1.0, sometimes singular by a scaled copied row
    and sometimes with a zeroed row or column."""
    nr = rng.randint(0, 12)
    nc = nr if rng.random() < 0.5 else rng.randint(0, 12)
    density = rng.uniform(0.1, 1.0)
    lim = rng.choice((1, 1, 2, 9, 100))
    rows = [[rng.randint(-lim, lim) if rng.random() < density else 0 for _ in range(nc)]
            for _ in range(nr)]
    if nr >= 2 and rng.random() < 0.3:
        i, j = rng.sample(range(nr), 2)
        k = rng.randint(-2, 2)
        rows[i] = [k * x for x in rows[j]]
    if nr and rng.random() < 0.2:
        rows[rng.randrange(nr)] = [0] * nc
    if nr and nc and rng.random() < 0.2:
        j = rng.randrange(nc)
        for row in rows:
            row[j] = 0
    return la.freeze(rows), nc


def test_sparse_sweeps_equal_the_dense_eliminations():
    # every output is the same as the dense code's: kernel bases are read
    # from U and discriminant generators from Q, so the goldens rest on it
    rng = random.Random(2323)
    for _ in range(2000):
        m, nc = _random_sparse_case(rng)
        _assert_same_as_dense(m, None if m else nc)
    # skewed block sums up to rank 22, with unit entries (U, E8(-1)) and
    # without (A1(-1), <-4>, <-6> only, so every entry is even), and
    # their top rows, whose kernels are not trivial
    blocks = {"U": ((0, 1), (1, 0)), "E8(-1)": standard_lattice("E8(-1)").gram,
              "A1(-1)": ((-2,),), "<-4>": ((-4,),), "<-6>": ((-6,),)}
    for k in range(45):
        pool = ("A1(-1)", "<-4>", "<-6>") if k % 3 == 0 else tuple(blocks)
        chosen = []
        for b in rng.choices(pool, k=rng.randint(1, 8)):
            if sum(map(len, chosen)) + len(blocks[b]) <= 22:
                chosen.append(blocks[b])
        n = sum(map(len, chosen))
        g = la.freeze(skewed_block_sum(rng, chosen, rng.randint(0, 2 * n)))
        assert (k % 3 != 0) or all(x % 2 == 0 for row in g for x in row)
        _assert_same_as_dense(g)
        _assert_same_as_dense(g[: rng.randint(1, len(g))])


# --- rational inverse ---


def test_rational_inverse_roundtrip():
    rng = random.Random(67)
    done = 0
    while done < 60:
        n = rng.randint(1, 5)
        m = rand_matrix(rng, n, n)
        if oracles.dense_bareiss_det(m) == 0:
            continue
        inv = la.rational_inverse(m)
        prod = tuple(
            tuple(sum(Fraction(m[i][k]) * inv[k][j] for k in range(n)) for j in range(n))
            for i in range(n)
        )
        assert prod == tuple(
            tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
        )
        done += 1


# --- inertia ---


def test_inertia_matches_sympy_eigenvalue_signs():
    rng = random.Random(83)
    for k in range(240):
        n = rng.randint(1, 5)
        m = [list(row) for row in rand_symmetric(rng, n, -7, 7)]
        if k % 3 == 1:
            # hollow: every pivot search starts with the b_j += b_i repair
            for i in range(n):
                m[i][i] = 0
        elif k % 3 == 2:
            # a zero trailing block: symmetric swaps, then a block with
            # zero minors when it is not paired with the rest
            z = rng.randint(1, n)
            for i in range(n - z, n):
                for j in range(n - z, n):
                    m[i][j] = 0
        m = tuple(map(tuple, m))
        assert la.inertia(m) == oracles.sympy_inertia(m)


def test_inertia_known_values():
    assert la.inertia(((0, 1), (1, 0))) == (1, 1, 0)
    assert la.inertia(((0, 0), (0, 0))) == (0, 0, 2)
    assert la.inertia(((2, 0), (0, -3))) == (1, 1, 0)
    assert la.inertia(()) == (0, 0, 0)


def _random_posdef_gram(rng, n):
    # A^t A + I is positive definite for any integer A
    a = rand_matrix(rng, n, n, -3, 3)
    at = la.transpose(a)
    g = la.mat_mul(at, a)
    return tuple(
        tuple(g[i][j] + (1 if i == j else 0) for j in range(n)) for i in range(n)
    )


def test_ldl_reconstructs_definite_and_signs_match_inertia():
    rng = random.Random(89)
    for _ in range(60):
        n = rng.randint(1, 6)
        g = _random_posdef_gram(rng, n)
        if rng.random() < 0.5:
            g = tuple(tuple(-x for x in row) for row in g)
        d, lam = la.ldl(g)
        assert d == [oracles.sympy_det(tuple(row[: i + 1] for row in g[: i + 1]))
                     for i in range(n)]
        # G = M diag(d_i / d_(i-1)) M^t with M = lam / d
        mu = [[Fraction(lam[i][j], d[j]) for j in range(n)] for i in range(n)]
        piv = [Fraction(x, y) for x, y in zip(d, [1, *d])]
        for i in range(n):
            assert mu[i][i] == 1 and all(mu[i][j] == 0 for j in range(i + 1, n))
            for j in range(n):
                assert sum(mu[i][k] * piv[k] * mu[j][k] for k in range(n)) == g[i][j]
    for _ in range(150):
        n = rng.randint(1, 5)
        # a diagonal shift makes about half of them positive definite
        shift = rng.choice((0, rng.randint(1, 12)))
        g = tuple(
            tuple(x + (shift if i == j else 0) for j, x in enumerate(row))
            for i, row in enumerate(rand_symmetric(rng, n, -4, 4))
        )
        d, _ = la.ldl(g)
        assert len(d) == n
        posdef = all(x > 0 for x in d)
        assert posdef == (la.inertia(g) == (n, 0, 0))
        assert posdef == (oracles.sympy_inertia(g) == (n, 0, 0))


def _random_symmetric_case(rng):
    """A random symmetric integer matrix of rank 0-22, of density 0.05-1.0:
    hollow (every pivot search starts with the b_j += b_i repair), with
    some zero diagonal entries (the symmetric swap), with a trailing zero
    block, or singular as B^t A B through an inner rank below n."""
    n = rng.randint(0, 22)
    kind = rng.randrange(5)
    lim = rng.choice((1, 1, 2, 9, 100))
    if kind == 4 and n:
        r = rng.randint(0, n - 1)
        b = rand_matrix(rng, r, n, -3, 3)
        a = rand_symmetric(rng, r, -lim, lim)
        return la.mat_mul(la.mat_mul(la.transpose(b), a), b) if r else ((0,) * n,) * n
    density = rng.uniform(0.05, 1.0)
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            if rng.random() < density:
                m[i][j] = m[j][i] = rng.randint(-lim, lim)
    if kind == 1:
        for i in range(n):
            m[i][i] = 0
    elif kind == 2:
        for i in rng.sample(range(n), rng.randint(0, n)):
            m[i][i] = 0
    elif kind == 3 and n:
        z = rng.randint(1, n)
        for row in m[n - z :]:
            row[n - z :] = [0] * z
    return la.freeze(m)


def test_ldl_equals_the_dense_elimination():
    # ldl updates only the rows with a nonzero in the pivot column and
    # rescales a skipped row when it is next read; its (d, lam) must be the
    # dense code's exactly, since LLL and Fincke-Pohst read them.  Every
    # zero in d comes from the all-zero block, so the singular cases run it
    rng = random.Random(3535)
    hits = collections.Counter()
    blocks = (((0, 1), (1, 0)), standard_lattice("E8(-1)").gram, ((-2,),), ((-4,),),
              standard_lattice("LK3").gram)
    for k in range(3300):
        if k < 3000:
            g = _random_symmetric_case(rng)
        else:
            # skewed sums of U, E8(-1), A1(-1), <-4> and LK3 up to rank 22;
            # a light skew keeps some of U's zero diagonal entries
            chosen = []
            for b in rng.choices(blocks, k=rng.randint(1, 8)):
                if sum(map(len, chosen)) + len(b) <= 22:
                    chosen.append(b)
            n = sum(map(len, chosen))
            g = la.freeze(skewed_block_sum(rng, chosen, rng.randint(0, n)))
        d, lam = la.ldl(g)
        assert (d, lam) == oracles.dense_ldl(g), g
        n = len(g)
        hits["swap"] += n > 1 and not g[0][0] and any(g[i][i] for i in range(n))
        hits["pair"] += n > 1 and not any(g[i][i] for i in range(n)) and any(map(any, g))
        hits["singular"] += n > 0 and d[-1] == 0
        if k % 10 == 0 and n <= 12:
            assert la.bareiss_det(g) == oracles.sympy_det(g), g
    assert min(hits["swap"], hits["pair"], hits["singular"]) >= 300, hits


# --- LLL on Gram matrices ---


def _lll_checked(g, sign=1):
    # LLL reduces ldl(sign G) in place and the rows it is handed: handed
    # the identity rows it returns T^t, so form T^t G T here, compare
    # (T^t G T, T) with the Fraction reference on G and the reduced
    # (d, lam) with a fresh ldl of T^t (sign G) T.  Handed wider rows B
    # that are not the identity, it returns T^t B
    n = len(g)
    signed = tuple(tuple(sign * x for x in row) for row in g)
    d, lam = la.ldl(signed)
    t = la.transpose(la.lll_reduce_gram(d, lam, la.identity(n)))
    g2 = la.mat_mul(la.mat_mul(la.transpose(t), g), t)
    assert (g2, t) == oracles.fraction_lll(g)
    assert (d, lam) == la.ldl(la.mat_mul(la.mat_mul(la.transpose(t), signed), t))
    basis = tuple(tuple((3 * i + 5 * j) % 7 - 3 for j in range(n + 2)) for i in range(n))
    assert la.lll_reduce_gram(*la.ldl(signed), basis) == la.mat_mul(la.transpose(t), basis)
    return g2, t


def test_lll_preserves_lattice_and_reduces():
    rng = random.Random(97)
    for _ in range(40):
        n = rng.randint(1, 6)
        g = _random_posdef_gram(rng, n)
        g2, t = _lll_checked(g)
        assert abs(oracles.dense_bareiss_det(t)) == 1
        assert la.bareiss_det(g2) == la.bareiss_det(g)
        assert la.inertia(g2) == (n, 0, 0)
        # size-reduced and Lovasz-reduced with delta = 3/4, in Fractions
        b, mu = oracles.fraction_gram_schmidt(g2)
        assert all(abs(mu[i][j]) <= Fraction(1, 2) for i in range(n) for j in range(i))
        assert all(b[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * b[k - 1]
                   for k in range(1, n))


def _skew(rng, g, ops):
    # T^t G T for a product T of `ops` elementary column operations
    n = len(g)
    t = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(ops if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        for row in t:
            row[j] += c * row[i]
    return la.mat_mul(la.mat_mul(la.transpose(t), g), t)


def test_lll_matches_fraction_reference():
    # skewed 2 I_n reaches |mu| = 1/2 often, so the rounding ties are hit
    rng = random.Random(101)
    e8 = tuple(tuple(-x for x in row) for row in standard_lattice("E8(-1)").gram)
    for k in range(200):
        n = rng.randint(1, 9)
        if k % 4 == 0:
            g = tuple(tuple(2 * (i == j) for j in range(n)) for i in range(n))
        elif k % 4 == 1:
            g = e8
        else:
            g = _random_posdef_gram(rng, n)
        _lll_checked(_skew(rng, g, rng.randint(0, 3 * len(g))))


def test_lll_on_negative_binary_forms():
    # -G for binary forms that need a swap: the swap's new pivot keeps the
    # sign of the one it replaces, so a lost sign shows in T here, before
    # any random draw that it could send round forever
    for g in (((4, 2), (2, 2)), ((6, 1), (1, 2)), ((10, 3), (3, 1))):
        _lll_checked(g, -1)


@given(st.integers(0, 2 ** 32), st.integers(1, 8), st.sampled_from(("posdef", "2I", "E8")),
       st.integers(0, 40), st.sampled_from((1, -1)))
def test_lll_on_either_sign_matches_fraction_reference(seed, n, kind, ops, sign):
    # one factorization of +-G serves LLL: T is that of G, and the (d, lam)
    # left in place are those of T^t (+-G) T
    rng = random.Random(seed)
    if kind == "E8":
        g = tuple(tuple(-x for x in row) for row in standard_lattice("E8(-1)").gram)
    elif kind == "2I":
        g = tuple(tuple(2 * (i == j) for j in range(n)) for i in range(n))
    else:
        g = _random_posdef_gram(rng, n)
    _lll_checked(_skew(rng, g, ops), sign)


def test_lll_factors_once(monkeypatch):
    # the Fraction reference factors once more after every swap, so its
    # factorizations count the swaps; LLL itself factors nothing, and runs
    # on the caller's one factorization
    calls = collections.Counter()

    def count(module, fname):
        def counted(*a, _orig=getattr(module, fname)):
            calls[fname] += 1
            return _orig(*a)
        monkeypatch.setattr(module, fname, counted)

    e8 = tuple(tuple(-x for x in row) for row in standard_lattice("E8(-1)").gram)
    g = _skew(random.Random(100), e8, 30)
    d, lam = la.ldl(g)
    count(oracles, "fraction_gram_schmidt")
    count(la, "ldl")
    oracles.fraction_lll(g)
    assert calls["fraction_gram_schmidt"] - 1 >= 20
    la.lll_reduce_gram(d, lam, la.identity(len(g)))
    assert calls["ldl"] == 0
