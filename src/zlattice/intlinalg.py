"""Exact linear algebra over the integers.

Matrices are immutable tuples of tuples of Python ints; the kernels copy
their input rows as given and convert nothing, since the make_*
constructors check every entry at the boundary.  Nothing here ever
touches floating point, and every routine but rational_inverse (whose
result has rational entries) runs on ints alone.  No code in the package
calls rational_inverse: the tests keep it as a rational reference, and the
perfbench span tracer reads it by name.  mat_mul costs what the nonzero
entries of its left factor cost, one scaled row of B each: row i of AB sums
only the rows of B at the nonzero entries of row i of A, so AB costs
nnz(A) * cols(B), and the mostly-zero Gram and involution matrices of the
K3 lattice multiply at a fraction of n^3.  The cost is not symmetric in
the factors, so callers put the sparse factor on the left, rewriting with
G = G^t and (AB)^t = B^t A^t where they must.  The routines this package
leans on are a fraction-free Bareiss determinant, a column-style Hermite
normal form with recorded transform, a Smith normal form with its column
transform, and one fraction-free symmetric LDL^t elimination (ldl).  The
first three pay only for live rows: a Bareiss step updates the rows with a
nonzero in its column and brings a skipped row current when it is next
read (the skipped scalings telescope), the Hermite sweeps visit the
nonzero columns of the pivot row and skip the rows where both columns are
zero, and the Smith form takes a unit pivot, found by list membership,
whenever its block has one.  Each
returns exactly what the dense elimination returns: the same determinant,
(H, U) and (D, Q).  The leading minors of ldl give the inertia, and on a
definite Gram matrix they and its scaled multipliers are the integral
Gram-Schmidt data.  The Gram-only LLL factors nothing: it keeps the
caller's (d, lam) of a definite form of either sign current for the
Fincke-Pohst search in roots; neither uses rationals.
"""

from __future__ import annotations

from operator import mul

Vec = tuple[int, ...]
Mat = tuple[Vec, ...]


def freeze(rows) -> Mat:
    return tuple(map(tuple, rows))


def identity(n: int) -> Mat:
    zeros = [0] * n
    rows = []
    for i in range(n):
        zeros[i] = 1
        rows.append(tuple(zeros))
        zeros[i] = 0
    return tuple(rows)


def transpose(m: Mat) -> Mat:
    return tuple(zip(*m))


def mat_mul(a, b) -> Mat:
    # row i of AB is the sum of x * (row k of B) over the nonzero x = A[i][k],
    # so AB costs nnz(A) * cols(B): callers put the sparse factor on the left
    zero = (0,) * len(b[0]) if b else ()
    out = []
    for row in a:
        acc = None
        for x, r in zip(row, b):
            if x:
                if acc is None:
                    acc = r if x == 1 else [x * c for c in r]
                else:
                    acc = [s + x * c for s, c in zip(acc, r)]
        out.append(zero if acc is None else tuple(acc))
    return tuple(out)


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

    The empty 0x0 matrix has determinant 1.  Step k of Bareiss's
    elimination (Math. Comp. 22, 1968), with pivots p[0] = 1 and
    p[k + 1] = a_kk, sets a_ij <- (p[k + 1] a_ij - a_ik a_kj) // p[k] for
    i, j > k, and every a_ij is then a minor of M.  It updates only the
    rows with a nonzero in column k, each with one comprehension over the
    row tail.  On any other row the step would be the scaling
    a_ij <- a_ij p[k + 1] / p[k], and a run of them from step s to step k
    telescopes to p[k] / p[s].  So such a row keeps the minors of step s
    (seen[i] = s) until it is next read, and is brought current then with
    one sweep x * p[k] // p[s]: exact, because the current value is itself
    a minor.  Every stored entry is a minor of some step, so Bareiss's size
    bound holds.  A scaling keeps zeros zero, so the pivot tests may read a
    row that is behind.
    """
    n = len(m)
    if n == 0:
        return 1
    a = [list(row) for row in m]
    seen = [0] * n
    p = [1]
    sign = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k]), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            seen[k], seen[pivot] = seen[pivot], seen[k]
            sign = -sign
        prev = p[k]
        row = a[k][k:]
        if seen[k] != k:
            g = p[seen[k]]
            row = [x * prev // g for x in row]
        pk, top = row[0], row[1:]
        for i in range(k + 1, n):
            row = a[i]
            x = row[k]
            if x:
                s = seen[i]
                if s == k:
                    row[k + 1 :] = [(y * pk - x * z) // prev
                                    for y, z in zip(row[k + 1 :], top)]
                else:
                    # catch up from step s, then take step k
                    g = p[s]
                    x = x * prev // g
                    row[k + 1 :] = [(y * prev // g * pk - x * z) // prev
                                    for y, z in zip(row[k + 1 :], top)]
                seen[i] = k + 1
        p.append(pk)
    return sign * (a[n - 1][n - 1] * p[n - 1] // p[seen[n - 1]])


def hnf_with_transform(m, ncols: int | None = None) -> tuple[Mat, Mat]:
    """Column-style Hermite normal form.

    Returns (H, U) with H = M * U, U unimodular.  Pivots are positive,
    entries to the left of a pivot in its row are reduced into [0, pivot),
    and zero columns are pushed to the end.  ``ncols`` must be supplied when
    M has no rows.

    Each sweep pays only for nonzero entries (Cohen, A Course in
    Computational Algebraic Number Theory, 2.4).  Row `row` lists its
    nonzero columns >= col once; a combine changes only columns col and c,
    so the list stays valid.  Every row above `row` is zero in columns
    >= col, so the column operations on H start at `row`, and they skip
    the rows of H and U where both entries are 0.  The reduction left of
    the pivot reads all its quotients from the row first (each changes
    only its own column) and updates only the rows with a nonzero in the
    pivot column.
    """
    nr = len(m)
    nc = len(m[0]) if nr else ncols
    if nc is None:
        raise ValueError("ncols required for a matrix with no rows")
    h = [list(row) for row in m]
    u = [[0] * nc for _ in range(nc)]
    for i in range(nc):
        u[i][i] = 1

    col = 0
    for row in range(nr):
        if col >= nc:
            break
        hr = h[row]
        nz = [c for c in range(col, nc) if hr[c]]
        if not nz:
            continue
        live = h[row:] + u
        piv = nz[0]
        if piv != col:
            for r in live:
                r[col], r[piv] = r[piv], r[col]
        for c in nz[1:]:
            a, b = hr[col], hr[c]
            g, x, y = xgcd(a, b)
            # (col, c) <- (x col + y c, -(b/g) col + (a/g) c)
            e, f = -(b // g), a // g
            for r in live:
                s, t = r[col], r[c]
                if s or t:
                    r[col] = x * s + y * t
                    r[c] = e * s + f * t
        if hr[col] < 0:
            for r in live:
                r[col] = -r[col]
        p = hr[col]
        qs = [(c, hr[c] // p) for c in range(col) if not 0 <= hr[c] < p]
        if qs:
            for r in live:
                v = r[col]
                if v:
                    for c, q in qs:
                        r[c] -= q * v
        col += 1
    return freeze(h), freeze(u)


def integer_rank(m) -> int:
    if not m:
        return 0
    h, _ = hnf_with_transform(m)
    return sum(1 for c in zip(*h) if any(c))


def kernel(m, ncols: int | None = None) -> tuple[Vec, ...]:
    """Basis of the integer kernel {x : M x = 0}, as a tuple of vectors.

    The basis is primitive: it spans the full kernel sublattice, since it
    comes from the unimodular transform of a Hermite reduction.
    """
    h, u = hnf_with_transform(m, ncols)
    rank = sum(1 for c in zip(*h) if any(c))
    return tuple(zip(*u))[rank:]


def solve_int(m, v) -> Vec | None:
    """One integer solution x of M x = v, or None if none exists.

    H = M U is solved row by row.  The pivot row of column col is its
    topmost nonzero entry; any other row is zero from column col on, so
    its residual, after the columns already solved, must be 0.
    """
    h, u = hnf_with_transform(m)
    nr, nc = len(m), len(u)
    y = [0] * nc
    col = 0
    for row in range(nr):
        s = v[row] - sum(h[row][c] * y[c] for c in range(col))
        if col < nc and h[row][col]:
            if s % h[row][col]:
                return None
            y[col] = s // h[row][col]
            col += 1
        elif s:
            return None
    return mat_vec(u, y)


def snf_with_transforms(m) -> tuple[Mat, Mat]:
    """Smith normal form with its column transform.

    Returns (D, Q) with P * M * Q = D for some unimodular P that is not
    kept, D diagonal with nonnegative entries satisfying d1 | d2 | ... ,
    and Q unimodular.

    The pivot is the first entry of least absolute value in the block, in
    row-major order.  A unit is looked for first, by list membership row by
    row; only a block without one is scanned entry by entry.  A unit
    pivot clears its row and column in one pass and divides everything,
    so no divisibility scan follows it.  Rows from t are zero left of t and
    rows above t are zero from t on, so the column operations on D start
    at row t, and they skip the rows of D and Q whose entry in the source
    column is 0.  A row operation is one comprehension; the column
    operations of a pass read all their quotients from row t first and go
    over the rows once.
    """
    nr = len(m)
    nc = len(m[0]) if nr else 0
    d = [list(row) for row in m]
    q = [[0] * nc for _ in range(nc)]
    for i in range(nc):
        q[i][i] = 1

    def smallest():
        # first entry of least |x| in the block from (t, t), row-major; a
        # unit is looked for first, by list membership: rows from t are
        # zero left of t, so whole rows are searched
        for i in range(t, nr):
            r = d[i]
            if 1 in r:
                j = r.index(1)
                return i, r.index(-1) if -1 in r[:j] else j
            if -1 in r:
                return i, r.index(-1)
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                if d[i][j] and (best is None or abs(d[i][j]) < abs(d[best[0]][best[1]])):
                    best = (i, j)
        return best

    t = 0
    while t < min(nr, nc):
        best = smallest()
        if best is None:
            break
        while True:
            i, j = best
            if i != t:
                d[t], d[i] = d[i], d[t]
            if j != t:
                for r in d[t:] + q:
                    r[t], r[j] = r[j], r[t]
            top = d[t]
            p = top[t]
            dirty = False
            # row i -= (d_it // p) row t
            for i in range(t + 1, nr):
                k = d[i][t] // p
                if k:
                    d[i] = [x - k * y for x, y in zip(d[i], top)]
                if d[i][t]:
                    dirty = True
            # col j -= (d_tj // p) col t: each reads column t and changes
            # only its own column, so all the quotients are read first
            ks = [(j, x // p) for j, x in enumerate(top[t + 1 :], t + 1) if x]
            if ks:
                for r in d[t:] + q:
                    x = r[t]
                    if x:
                        for j, k in ks:
                            r[j] -= k * x
            if p == 1 or p == -1:
                # a unit clears its row and column and divides everything
                break
            if dirty or any(top[t + 1 :]):
                best = smallest()
                continue
            # pivot divides everything below-right, or we fold a bad row in
            offender = next(
                (
                    i
                    for i in range(t + 1, nr)
                    for j in range(t + 1, nc)
                    if d[i][j] % p
                ),
                None,
            )
            if offender is None:
                break
            d[t] = [x + y for x, y in zip(top, d[offender])]
            best = (t, t)
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
        t += 1
    return freeze(d), freeze(q)


def rational_inverse(m):
    """Inverse of a square nonsingular matrix, entries as Fractions."""
    from fractions import Fraction

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


def ldl(gram) -> tuple[list[int], list[list[int]]]:
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


def sign_counts(d) -> tuple[int, int, int]:
    """(positive, negative, zero) pivots d[i] / d[i - 1] of an ldl minor
    list: the signs of d[i] * d[i - 1], with d[-1] = 1."""
    signs = [x * y for x, y in zip(d, [1, *d])]
    pos = sum(1 for x in signs if x > 0)
    neg = sum(1 for x in signs if x < 0)
    return pos, neg, len(d) - pos - neg


def inertia(gram) -> tuple[int, int, int]:
    """Exact Sylvester inertia (positive, negative, zero) of a symmetric
    integer matrix: the signs of its ldl pivots."""
    return sign_counts(ldl(gram)[0])


def lll_reduce_gram(d, lam) -> Mat:
    """LLL-reduce a definite Gram matrix G, given only (d, lam) = ldl(G).

    Returns T unimodular and leaves (d, lam) = ldl(T^t G T) in place.  The
    reduction (Cohen, Alg. 2.6.7, delta = 3/4) updates only T and (d, lam):
    mu = lam[k][j] / d[j] rounds to (2 lam[k][j] + d[j]) // (2 d[j]), the
    Lovasz test reads 4 (d[k] d[k-2] + lam[k][k-1]^2) >= 3 d[k-1]^2
    (d[-1] = 1), size reduction changes row k of lam, and a swap of b_(k-1)
    and b_k updates their rows and columns by exact divisions.  G may be
    negative: ldl(-G) is ldl(G) with d[j] and column j of lam times
    (-1)^(j+1), so each test reads the same values, each update keeps the
    sign of its column, and T is that of -G.
    """
    n = len(d)
    t = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    k = 1
    while k < n:
        lk = lam[k]
        for j in range(k - 1, -1, -1):
            q = (2 * lk[j] + d[j]) // (2 * d[j])
            if q:
                # b_k -= q b_j; lam[j][j] = d[j] takes q d[j] off lam[k][j]
                for r in t:
                    r[k] -= q * r[j]
                lk[: j + 1] = [x - q * y for x, y in zip(lk, lam[j][: j + 1])]
        prev = d[k - 2] if k > 1 else 1
        off = lk[k - 1]
        if 4 * (d[k] * prev + off * off) >= 3 * d[k - 1] ** 2:
            k += 1
            continue
        # swap b_(k-1) and b_k; lam[k][k-1] and d[k] stay as they are
        for r in t:
            r[k], r[k - 1] = r[k - 1], r[k]
        above = lam[k - 1]
        lk[: k - 1], above[: k - 1] = above[: k - 1], lk[: k - 1]
        b = (prev * d[k] + off * off) // d[k - 1]
        for row in lam[k + 1 :]:
            s = row[k]
            row[k] = (d[k] * row[k - 1] - off * s) // d[k - 1]
            row[k - 1] = (b * s + off * row[k]) // d[k]
        d[k - 1] = above[k - 1] = b
        k = max(k - 1, 1)
    return freeze(t)
