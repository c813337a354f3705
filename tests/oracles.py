"""Independent reference implementations used only by the test suite.

Everything in the package proper is hand-rolled exact arithmetic; the
oracles here go through a different route (sympy, naive cofactor
expansion, brute-force coordinate boxes) so agreement is meaningful.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import sympy as sp
from sympy.matrices.normalforms import smith_normal_form

from zlattice.intlinalg import Mat, freeze, hnf_with_transform, mat_vec, solve_int, transpose, xgcd


def cofactor_det(m) -> int:
    """Laplace expansion along the first row.  Exponential; fine for rank <= 8."""
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        sign = -1 if j % 2 else 1
        total += sign * m[0][j] * cofactor_det(minor)
    return total


def sympy_det(m) -> int:
    if len(m) == 0:
        return 1
    return int(sp.Matrix([list(r) for r in m]).det())


def sympy_inertia(m):
    """(positive, negative, zero) eigenvalue counts of a symmetric matrix.

    Counts exact real roots of the characteristic polynomial with
    multiplicity; symmetric matrices have only real eigenvalues.
    """
    n = len(m)
    if n == 0:
        return (0, 0, 0)
    mat = sp.Matrix([list(r) for r in m])
    x = sp.Symbol("x")
    poly = sp.Poly(mat.charpoly(x), x)
    pos = neg = zero = 0
    for root in sp.real_roots(poly):
        if root.is_zero:
            zero += 1
        elif root.is_positive:
            pos += 1
        else:
            neg += 1
    return (pos, neg, zero)


def sympy_smith_diagonal(m):
    """All min(rows, cols) diagonal entries of the Smith form, made
    nonnegative, zeros and ones included, so a wrong rank shows."""
    if len(m) == 0 or len(m[0]) == 0:
        return ()
    diag = smith_normal_form(sp.Matrix([list(r) for r in m]), domain=sp.ZZ)
    return tuple(abs(int(diag[i, i])) for i in range(min(diag.shape)))


def sympy_invariant_factors(m):
    """Nontrivial invariant factors (> 1) of an integer matrix, sorted."""
    if len(m) == 0:
        return ()
    mat = sp.Matrix([list(r) for r in m])
    diag = smith_normal_form(mat, domain=sp.ZZ)
    factors = [abs(int(diag[i, i])) for i in range(min(diag.shape))]
    return tuple(f for f in factors if f > 1)


def sympy_maximal_minor_gcd(rows):
    """gcd of all k x k minors of a k x n integer matrix of rank k, each
    minor a sympy determinant; for the basis rows of a sublattice K this is
    the index [sat(K) : K]."""
    k = len(rows)
    if k == 0:
        return 1
    mat = sp.Matrix([list(r) for r in rows])
    g = 0
    for cols in itertools.combinations(range(mat.cols), k):
        g = math.gcd(g, int(mat.extract(list(range(k)), list(cols)).det()))
    return g


def fraction_gram_schmidt(gram):
    """(b, mu): Gram-Schmidt squares b[j] = b*_j.b*_j and unit lower
    triangular multipliers mu[i][j] = b_i.b*_j / b[j] of a positive definite
    Gram matrix, by right-looking elimination in Fractions.

    The rational LDL^t that intlinalg.ldl computes fraction-free; on a
    positive definite form no pivot is zero, so no repair step is needed.
    """
    n = len(gram)
    a = [[Fraction(x) for x in row] for row in gram]
    b = []
    for t in range(n):
        p = a[t][t]
        b.append(p)
        col = [a[i][t] for i in range(t + 1, n)]
        for i, ci in enumerate(col, t + 1):
            a[i][t] = ci / p
            for j, cj in enumerate(col[: i - t], t + 1):
                a[i][j] -= ci * cj / p
    mu = [a[i][:i] + [Fraction(1)] + [Fraction(0)] * (n - i - 1) for i in range(n)]
    return b, mu


def fraction_lll(gram):
    """(G', T) of LLL with delta = 3/4 on a positive definite Gram matrix,
    the multipliers and the exchange test in Fractions.

    The same decisions as intlinalg.lll_reduce_gram, taken on rationals:
    mu rounds half up, and b_k >= (3/4 - mu^2) b_(k-1) keeps the pair.
    Size reduction updates mu in place; a swap refactors.
    """
    n = len(gram)
    a = [list(row) for row in gram]
    t = [[int(i == j) for j in range(n)] for i in range(n)]
    b, mu = fraction_gram_schmidt(a)
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = math.floor(mu[k][j] + Fraction(1, 2))
            if q:
                for i in range(n):
                    a[k][i] -= q * a[j][i]
                for i in range(n):
                    a[i][k] -= q * a[i][j]
                for r in t:
                    r[k] -= q * r[j]
                for i in range(j):
                    mu[k][i] -= q * mu[j][i]
                mu[k][j] -= q
        if b[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * b[k - 1]:
            k += 1
        else:
            a[k], a[k - 1] = a[k - 1], a[k]
            for row in a:
                row[k], row[k - 1] = row[k - 1], row[k]
            for r in t:
                r[k], r[k - 1] = r[k - 1], r[k]
            b, mu = fraction_gram_schmidt(a)
            k = max(k - 1, 1)
    return tuple(map(tuple, a)), tuple(map(tuple, t))


def naive_pairing(a, gram, b) -> Mat:
    """A G B^t by plain loops over the definition: entry (i, j) is the sum
    of a_i[x] G[x][y] b_j[y] over every x and y, the pairing of row i of A
    with row j of B.  The Gram of the rows of B, B G B^t, is
    naive_pairing(B, G, B).  No product is reordered or skipped, so it is an
    independent route to what mat_mul computes with the sparse factor on
    the left."""
    n = len(gram)
    out = []
    for u in a:
        row = []
        for v in b:
            total = 0
            for x in range(n):
                for y in range(n):
                    total += u[x] * gram[x][y] * v[y]
            row.append(total)
        out.append(tuple(row))
    return tuple(out)

def brute_box_vectors(gram, target, bound):
    """All integer vectors with max-|coordinate| <= bound and v^T G v = target.

    Plain itertools product, no shortcuts; the package's box scan walks
    the trailing coordinates and solves for the first, so this is an
    independent route.
    """
    n = len(gram)
    hits = []
    for v in itertools.product(range(-bound, bound + 1), repeat=n):
        s = 0
        for i in range(n):
            row = gram[i]
            vi = v[i]
            if vi:
                s += vi * sum(row[j] * v[j] for j in range(n))
        if s == target:
            hits.append(tuple(v))
    return hits


@functools.lru_cache(maxsize=8)
def _sympy_gram_inverse(gram, s_basis):
    """G_S^{-1} as Fractions, inverted by sympy; cached because a box
    oracle splits many vectors over the same S."""
    n = len(gram)

    def dot(u, v):
        return sum(u[i] * gram[i][j] * v[j] for i in range(n) for j in range(n))

    inv = sp.Matrix([[dot(b, c) for c in s_basis] for b in s_basis]).inv()
    return tuple(tuple(Fraction(int(x.p), int(x.q)) for x in row) for row in inv.tolist())


def fraction_split(gram, s_basis, delta):
    """(delta1, delta2) with delta1 = 2 proj_S(delta) and delta2 = 2 delta -
    delta1, or None when delta1 is not an integer vector.

    proj_S(delta) = sum_j y_j b_j over the basis b_j of S, where G_S y =
    (b_j . delta)_j; the inverse of G_S is taken by sympy and the rest is
    per-entry Fraction arithmetic.
    """
    n, r = len(gram), len(s_basis)

    def dot(u, v):
        return sum(u[i] * gram[i][j] * v[j] for i in range(n) for j in range(n))

    ginv = _sympy_gram_inverse(tuple(map(tuple, gram)), tuple(map(tuple, s_basis)))
    rhs = [dot(b, delta) for b in s_basis]
    y = [sum(ginv[j][k] * rhs[k] for k in range(r)) for j in range(r)]
    d1 = []
    for i in range(n):
        c = 2 * sum(Fraction(s_basis[j][i]) * y[j] for j in range(r))
        if c.denominator != 1:
            return None
        d1.append(int(c))
    return tuple(d1), tuple(2 * a - b for a, b in zip(delta, d1))


def coordinate_bound(gram, target) -> int:
    """A priori bound on max |x_i| over the x with x^T G x = target, G definite.

    x_i = (G^{-1} e_i)^T G x, so by Cauchy-Schwarz in the form G,
    x_i^2 <= target * (G^{-1})_ii (both factors have the sign of G).  The
    inverse is taken by sympy; floor(sqrt(p/q)) = isqrt(p*q) // q exactly.
    """
    ginv = sp.Matrix([list(r) for r in gram]).inv()
    bound = 0
    for i in range(len(gram)):
        v = abs(sp.Rational(target) * ginv[i, i])
        bound = max(bound, math.isqrt(int(v.p) * int(v.q)) // int(v.q))
    return bound


def reduce_mod2z(value: Fraction) -> Fraction:
    """Canonical representative of a rational mod 2Z in [0, 2)."""
    return value - 2 * math.floor(value / 2)


def fraction_pairing(gram, g, h):
    """The rational pairing g^T G h, or (i, value) for the first basis
    vector i whose pairing with g (or else h) is not an integer.

    Per-entry Fraction arithmetic on the representatives as given; the
    package writes each vector over one common denominator and stays in
    integers, so agreement is meaningful.
    """
    n = len(gram)
    g = [Fraction(x) for x in g]
    h = [Fraction(x) for x in h]
    for v in (g, h):
        for i, row in enumerate(gram):
            pairing = sum(Fraction(row[j]) * v[j] for j in range(n))
            if pairing.denominator != 1:
                return i, pairing
    return sum(g[i] * Fraction(gram[i][j]) * h[j] for i in range(n) for j in range(n))


def involution_triple(gram, psi):
    """(r, a, delta) of the fixed lattice of an involution psi of an even
    unimodular lattice, read off psi without a discriminant group.

    r = rank of ker(psi - I), by sympy.  a = rank of psi + I over F_2, by
    elimination mod 2: (psi + I) L / 2 L_+ is L / (L_+ + L_-) = (Z/2)^a.
    delta = 1 when some x.psi(x) is odd; x -> x.psi(x) mod 2 is additive
    (the cross term is 2 x.psi(y)), so the basis vectors decide it
    (Nikulin 1979, 1.5).
    """
    n = len(gram)
    r = n - (sp.Matrix([list(row) for row in psi]) - sp.eye(n)).rank()
    rows = [[(psi[i][j] + (i == j)) % 2 for j in range(n)] for i in range(n)]
    a = 0
    for col in range(n):
        pivot = next((i for i in range(a, n) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[a], rows[pivot] = rows[pivot], rows[a]
        for i in range(n):
            if i != a and rows[i][col]:
                rows[i] = [x ^ y for x, y in zip(rows[i], rows[a])]
        a += 1
    delta = int(any(sum(gram[i][k] * psi[k][i] for k in range(n)) % 2 for i in range(n)))
    return r, a, delta


def sympy_anti_s(gram, matrix, s_basis):
    """(rank, inertia) of the anti-invariant part orthogonal to S.

    The rational nullspace of [psi + id; B_S^T G] is taken by sympy and its
    Gram matrix goes to sympy_inertia; a rational change of basis keeps the
    rank and the signature, so neither depends on saturating the basis.
    """
    n = len(gram)
    g = sp.Matrix([list(r) for r in gram])
    plus = sp.Matrix([list(r) for r in matrix]) + sp.eye(n)
    rows = plus.col_join(sp.Matrix([list(b) for b in s_basis]) * g) if s_basis else plus
    null = rows.nullspace()
    if not null:
        return 0, (0, 0, 0)
    basis = sp.Matrix.hstack(*null)
    return len(null), sympy_inertia((basis.T * g * basis).tolist())


# --- dense eliminations: the intlinalg kernels before their sweeps went
# sparse, kept verbatim as references that every output must equal ---


def dense_bareiss_det(m: Mat) -> int:
    """Determinant of a square integer matrix, fraction-free.

    The empty 0x0 matrix has determinant 1.
    """
    n = len(m)
    if n == 0:
        return 1
    a = [list(map(int, row)) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k]), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def dense_ldl(gram) -> tuple[list[int], list[list[int]]]:
    """Symmetric fraction-free (Bareiss) elimination of a symmetric integer
    matrix.

    Returns fresh lists (d, lam) of ints for the basis B the elimination
    ended up using: d[i] is the leading principal minor of order i + 1 of
    B^t G B, and lam is lower triangular with lam[i][i] = d[i] and
    lam[i][j] = d[j] mu[i][j], where B^t G B = mu diag(p) mu^t with mu unit
    lower triangular and pivots p[i] = d[i] / d[i - 1] (d[-1] = 1).  Step t
    updates a_ij <- (d[t] a_ij - a_it a_jt) // d[t - 1] for i, j > t, and
    every division is exact (Sylvester's identity): before step t, a_ij
    (i, j >= t) is the minor of rows 0..t-1, i and columns 0..t-1, j, so
    a_tt = d[t] and a_it = lam[i][t].

    A zero pivot is repaired as in a rational congruence reduction: a
    symmetric swap with a later basis vector of nonzero square, or, when
    every remaining diagonal entry is zero, b_j += b_i for a pair with
    b_i.b_j != 0.  Both act linearly on the bordered minors the matrix
    holds.  A block that is entirely zero leaves zero minors.  By
    Sylvester's law the signs of the pivots, read by sign_counts, are the
    inertia.

    When every pivot has the same strict sign, G is definite, so no repair
    step ran (a definite form has no zero diagonal entry at any stage): B is
    the given basis and (d, lam) are its integral Gram-Schmidt data (de
    Weger): d[j] = d[j - 1] b*_j.b*_j and lam[i][j] = d[j - 1] b_i.b*_j.
    Only the lower triangle is kept current; a repair step first mirrors it
    into the upper one, which is never read otherwise.
    """
    n = len(gram)
    a = [list(row[: i + 1]) + [0] * (n - i - 1) for i, row in enumerate(gram)]
    d: list[int] = []
    prev = 1
    t = 0
    while t < n:
        piv = t if a[t][t] else next((i for i in range(t + 1, n) if a[i][i]), None)
        if piv != t:
            for i in range(t, n):
                for j in range(t, i):
                    a[j][i] = a[i][j]
            if piv is None:
                pair = next(
                    ((i, j) for i in range(t, n) for j in range(i + 1, n) if a[i][j]),
                    None,
                )
                if pair is None:
                    d.extend([0] * (n - t))
                    break
                i, j = pair
                # b_j += b_i; columns left of t hold the multipliers of b_j
                for k in range(n):
                    a[j][k] += a[i][k]
                for k in range(t, n):
                    a[k][j] += a[k][i]
                continue
            a[t], a[piv] = a[piv], a[t]
            for row in a[t:]:
                row[t], row[piv] = row[piv], row[t]
        p = a[t][t]
        d.append(p)
        col = [a[i][t] for i in range(t + 1, n)]
        for i, ci in enumerate(col, t + 1):
            row = a[i]
            row[t + 1 : i + 1] = [(p * x - ci * cj) // prev
                                  for x, cj in zip(row[t + 1 : i + 1], col)]
        prev = p
        t += 1
    lam = [row[: i + 1] + [0] * (n - i - 1) for i, row in enumerate(a)]
    return d, lam


def dense_hnf_with_transform(m, ncols: int | None = None) -> tuple[Mat, Mat]:
    """Column-style Hermite normal form.

    Returns (H, U) with H = M * U, U unimodular.  Pivots are positive,
    entries to the left of a pivot in its row are reduced into [0, pivot),
    and zero columns are pushed to the end.  ``ncols`` must be supplied when
    M has no rows.
    """
    nr = len(m)
    nc = len(m[0]) if nr else ncols
    if nc is None:
        raise ValueError("ncols required for a matrix with no rows")
    h = [list(map(int, row)) for row in m]
    u = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

    def combine(c1, c2, a, b, c, d):
        # (col c1, col c2) <- (a*col c1 + b*col c2, c*col c1 + d*col c2)
        for mat in (h, u):
            for row in mat:
                s, t = row[c1], row[c2]
                row[c1] = a * s + b * t
                row[c2] = c * s + d * t

    col = 0
    for row in range(nr):
        if col >= nc:
            break
        piv = next((c for c in range(col, nc) if h[row][c]), None)
        if piv is None:
            continue
        if piv != col:
            for mat in (h, u):
                for r in mat:
                    r[col], r[piv] = r[piv], r[col]
        for c in range(col + 1, nc):
            if h[row][c] == 0:
                continue
            a, b = h[row][col], h[row][c]
            g, x, y = xgcd(a, b)
            combine(col, c, x, y, -(b // g), a // g)
        if h[row][col] < 0:
            for mat in (h, u):
                for r in mat:
                    r[col] = -r[col]
        p = h[row][col]
        for c in range(col):
            q = h[row][c] // p
            if q:
                for mat in (h, u):
                    for r in mat:
                        r[c] -= q * r[col]
        col += 1
    return freeze(h), freeze(u)


def dense_snf_with_transforms(m) -> tuple[Mat, Mat]:
    """Smith normal form with its column transform.

    Returns (D, Q) with P * M * Q = D for some unimodular P that is not
    kept, D diagonal with nonnegative entries satisfying d1 | d2 | ... ,
    and Q unimodular.
    """
    nr = len(m)
    nc = len(m[0]) if nr else 0
    d = [list(map(int, row)) for row in m]
    q = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

    def row_add(i, j, k):
        # row i += k * row j
        d[i] = [x + k * y for x, y in zip(d[i], d[j])]

    def col_swap(i, j):
        for mat in (d, q):
            for r in mat:
                r[i], r[j] = r[j], r[i]

    def col_add(i, j, k):
        # col j += k * col i
        for mat in (d, q):
            for r in mat:
                r[j] += k * r[i]

    t = 0
    while t < min(nr, nc):
        # smallest nonzero entry of the remaining block to (t, t)
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                if d[i][j] and (best is None or abs(d[i][j]) < abs(d[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        while True:
            i, j = best
            if i != t:
                d[t], d[i] = d[i], d[t]
            if j != t:
                col_swap(t, j)
            dirty = False
            for i in range(t + 1, nr):
                if d[i][t]:
                    row_add(i, t, -(d[i][t] // d[t][t]))
                    if d[i][t]:
                        dirty = True
            for j in range(t + 1, nc):
                if d[t][j]:
                    col_add(t, j, -(d[t][j] // d[t][t]))
                    if d[t][j]:
                        dirty = True
            if dirty:
                best = min(
                    ((i, j) for i in range(t, nr) for j in range(t, nc) if d[i][j]),
                    key=lambda ij: abs(d[ij[0]][ij[1]]),
                )
                continue
            # pivot divides everything below-right, or we fold a bad row in
            offender = next(
                (
                    (i, j)
                    for i in range(t + 1, nr)
                    for j in range(t + 1, nc)
                    if d[i][j] % d[t][t]
                ),
                None,
            )
            if offender is None:
                break
            row_add(t, offender[0], 1)
            best = (t, t)
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
        t += 1
    return freeze(d), freeze(q)


# --- earlier decision rules, kept as references for their one-pass and
# one-identity replacements ---


def two_pass_solve_int(m, v):
    """The two-pass rule that solve_int's one row pass must agree with:
    back-substitute the pivot rows of the column HNF, then check every row
    of H y = v again."""
    h, u = hnf_with_transform(m)
    nr, nc = len(m), len(u)
    y = [0] * nc
    col = 0
    for row in range(nr):
        if col < nc and h[row][col]:
            s = v[row] - sum(h[row][c] * y[c] for c in range(col))
            if s % h[row][col]:
                return None
            y[col] = s // h[row][col]
            col += 1
    for row in range(nr):
        if sum(h[row][c] * y[c] for c in range(nc)) != v[row]:
            return None
    return mat_vec(u, y)


def restriction_by_columns(psi_matrix, s):
    """The matrix of psi restricted to the sublattice embedding s, in s's
    basis coordinates: column j holds the coordinates of psi(b_j), each
    read by from_ambient.  None when psi maps some b_j outside S."""
    cols = []
    for b in s.basis:
        coords = s.from_ambient(mat_vec(psi_matrix, b))
        if coords is None:
            return None
        cols.append(coords)
    return transpose(cols)


def stacked_coset_solve(comp_basis, d1):
    """The integer coset test that delta4_membership's read mod 2 must agree
    with: one solution (u, y) of d1 = 2u + B^t y, B the complement's basis
    rows, by solve_int on the stacked n x (n + k) matrix [2I | B^t].
    Returns y, or None when there is none."""
    n = len(d1)
    stacked = tuple(tuple(2 * (i == j) for j in range(n)) + tuple(b[i] for b in comp_basis)
                    for i in range(n))
    sol = solve_int(stacked, d1)
    return None if sol is None else sol[n:]
