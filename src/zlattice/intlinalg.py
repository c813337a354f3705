"""Exact linear algebra over the integers and rationals.

Matrices are immutable tuples of tuples of Python ints (or Fractions where
noted); nothing here ever touches floating point.  The routines this package
leans on are a fraction-free Bareiss determinant, a column-style Hermite
normal form with recorded transform, a Smith normal form with all four
transforms, and one exact symmetric LDL^t elimination (ldl).  Its pivots
give the inertia, and on a definite Gram matrix its multipliers are the
Gram-Schmidt data that the Gram-only LLL and the Fincke-Pohst enumeration
in roots both work from; roots scales them to integers once, so the
search itself does no rational arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

Vec = tuple[int, ...]
Mat = tuple[Vec, ...]


def freeze(rows) -> Mat:
    return tuple(tuple(int(x) for x in row) for row in rows)


def identity(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(m: Mat) -> Mat:
    if not m:
        return ()
    return tuple(zip(*m))


def mat_mul(a, b) -> Mat:
    if not a:
        return ()
    bt = list(zip(*b)) if b else []
    return tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in a)


def mat_vec(m, v) -> Vec:
    return tuple(sum(map(mul, row, v)) for row in m)


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and a*x + b*y = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def bareiss_det(m: Mat) -> int:
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


def hnf_with_transform(m, ncols: int | None = None) -> tuple[Mat, Mat]:
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


def integer_rank(m, ncols: int | None = None) -> int:
    if not m and not ncols:
        return 0
    h, _ = hnf_with_transform(m, ncols)
    nc = len(h[0]) if h else (ncols or 0)
    return sum(1 for c in range(nc) if any(row[c] for row in h))


def kernel(m, ncols: int | None = None) -> tuple[Vec, ...]:
    """Basis of the integer kernel {x : M x = 0}, as a tuple of vectors.

    The basis is primitive: it spans the full kernel sublattice, since it
    comes from the unimodular transform of a Hermite reduction.
    """
    nc = len(m[0]) if m else ncols
    if nc is None:
        raise ValueError("ncols required for a matrix with no rows")
    if not m:
        return tuple(identity(nc))
    h, u = hnf_with_transform(m, ncols)
    rank = sum(1 for c in range(nc) if any(row[c] for row in h))
    return tuple(tuple(u[r][c] for r in range(nc)) for c in range(rank, nc))


def solve_int(m, v, ncols: int | None = None) -> Vec | None:
    """One integer solution x of M x = v, or None if none exists."""
    nc = len(m[0]) if m else ncols
    if nc is None:
        raise ValueError("ncols required for a matrix with no rows")
    if not m:
        return tuple([0] * nc)
    h, u = hnf_with_transform(m, ncols)
    nr = len(m)
    # pivot row of column c is its topmost nonzero entry
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


def snf_with_transforms(m) -> tuple[Mat, Mat, Mat, Mat, Mat]:
    """Smith normal form with all transforms.

    Returns (D, P, Pinv, Q, Qinv) with P * M * Q = D, D diagonal with
    nonnegative entries satisfying d1 | d2 | ... ; P, Q unimodular.
    """
    nr = len(m)
    nc = len(m[0]) if nr else 0
    d = [list(map(int, row)) for row in m]
    p = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    pinv = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    q = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]
    qinv = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

    def row_swap(i, j):
        d[i], d[j] = d[j], d[i]
        p[i], p[j] = p[j], p[i]
        for r in pinv:
            r[i], r[j] = r[j], r[i]

    def row_add(i, j, k):
        # row i += k * row j ; keeps P*M*Q = D and P*Pinv = I
        for mat in (d, p):
            for c in range(len(mat[i])):
                mat[i][c] += k * mat[j][c]
        for r in pinv:
            r[j] -= k * r[i]

    def row_neg(i):
        d[i] = [-x for x in d[i]]
        p[i] = [-x for x in p[i]]
        for r in pinv:
            r[i] = -r[i]

    def col_swap(i, j):
        for r in d:
            r[i], r[j] = r[j], r[i]
        for r in q:
            r[i], r[j] = r[j], r[i]
        qinv[i], qinv[j] = qinv[j], qinv[i]

    def col_add(i, j, k):
        # col j += k * col i
        for mat in (d, q):
            for r in mat:
                r[j] += k * r[i]
        for c in range(nc):
            qinv[i][c] -= k * qinv[j][c]

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
                row_swap(t, i)
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
            row_neg(t)
        t += 1
    return freeze(d), freeze(p), freeze(pinv), freeze(q), freeze(qinv)


def invariant_factors(m) -> tuple[int, ...]:
    """Diagonal of the Smith form, nontrivial factors only (entries > 1),
    in divisibility order.  Zero entries (infinite factors) are kept last."""
    d, *_ = snf_with_transforms(m)
    n = min(len(d), len(d[0]) if d else 0)
    diag = [d[i][i] for i in range(n)]
    return tuple(x for x in diag if x != 1)


def rational_inverse(m):
    """Inverse of a square nonsingular matrix, entries as Fractions."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            raise ZeroDivisionError("matrix is singular")
        a[c], a[piv] = a[piv], a[c]
        f = a[c][c]
        a[c] = [x / f for x in a[c]]
        for i in range(n):
            if i != c and a[i][c]:
                g = a[i][c]
                a[i] = [x - g * y for x, y in zip(a[i], a[c])]
    return tuple(tuple(row[n:]) for row in a)


_ZERO, _ONE = Fraction(0), Fraction(1)


def ldl(gram) -> tuple[list[Fraction], list[list[Fraction]]]:
    """Exact symmetric elimination of a symmetric integer matrix.

    Returns fresh lists (d, mu): pivots d and unit lower-triangular
    multipliers mu with B^t G B = mu diag(d) mu^t, where B is the basis the
    elimination ended up using.  A zero pivot is repaired as in a rational
    congruence reduction: a symmetric swap with a later basis vector of
    nonzero square, or, when every remaining diagonal entry is zero,
    b_j += b_i for a pair with b_i.b_j != 0; a block that is entirely zero
    leaves zero pivots.  By Sylvester's law the signs of d are the inertia.

    When every pivot has the same strict sign, G is definite, so no repair
    step ran (a definite form has no zero diagonal entry at any stage): B is
    the given basis and mu is its Gram-Schmidt data, mu[i][j] =
    b_i.b*_j / d[j] with d[j] = b*_j.b*_j.  Only the lower triangle is
    kept current; a repair step first mirrors it into the upper one, which
    is never read otherwise.
    """
    n = len(gram)
    a = [
        [Fraction(x) for x in row[: i + 1]] + [0] * (n - i - 1)
        for i, row in enumerate(gram)
    ]
    d: list[Fraction] = []
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
                    d.extend([_ZERO] * (n - t))
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
            if ci:
                f = a[i][t] = ci / p
                row = a[i]
                for j, cj in enumerate(col[: i - t], t + 1):
                    if cj:
                        row[j] -= f * cj
        t += 1
    mu = [row[:i] + [_ONE] + [_ZERO] * (n - i - 1) for i, row in enumerate(a)]
    return d, mu


def sign_counts(d) -> tuple[int, int, int]:
    """(positive, negative, zero) entries of a pivot list."""
    pos = sum(1 for x in d if x.numerator > 0)
    neg = sum(1 for x in d if x.numerator < 0)
    return pos, neg, len(d) - pos - neg


def inertia(gram) -> tuple[int, int, int]:
    """Exact Sylvester inertia (positive, negative, zero) of a symmetric
    integer matrix: the signs of its ldl pivots."""
    return sign_counts(ldl(gram)[0])


# Lovasz constant of the LLL exchange condition.
_LLL_DELTA = Fraction(3, 4)


def lll_reduce_gram(gram) -> tuple[Mat, Mat]:
    """LLL-reduce a positive definite Gram matrix without vector coordinates.

    Returns (G', T) with G' = T^t G T and T unimodular; raises ValueError
    when an ldl pivot of G is not positive.  Size reduction updates the
    Gram-Schmidt data in place; only a swap refactors.
    """
    n = len(gram)
    a = [list(map(int, row)) for row in gram]
    t = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    b, mu = ldl(a)
    if any(x <= 0 for x in b):
        raise ValueError("gram matrix is not positive definite")

    def reduce_pair(k, j, qq):
        # b_k -= qq * b_j
        for i in range(n):
            a[k][i] -= qq * a[j][i]
        for i in range(n):
            a[i][k] -= qq * a[i][j]
        for r in t:
            r[k] -= qq * r[j]

    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = int((mu[k][j] + Fraction(1, 2)).__floor__())
            if q:
                reduce_pair(k, j, q)
                for i in range(j):
                    mu[k][i] -= q * mu[j][i]
                mu[k][j] -= q
        if b[k] >= (_LLL_DELTA - mu[k][k - 1] ** 2) * b[k - 1]:
            k += 1
        else:
            a[k], a[k - 1] = a[k - 1], a[k]
            for row in a:
                row[k], row[k - 1] = row[k - 1], row[k]
            for r in t:
                r[k], r[k - 1] = r[k - 1], r[k]
            b, mu = ldl(a)
            k = max(k - 1, 1)
    return freeze(a), freeze(t)
