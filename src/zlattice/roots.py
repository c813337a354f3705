"""Enumeration of lattice vectors with a prescribed self-intersection.

Definite lattices get a complete answer from Fincke-Pohst enumeration over
the fraction-free LDL^t factorization of the Gram matrix (intlinalg.ldl),
the same single factorization that decides definiteness.  The search reads
its integer column scales and weights straight from the leading minors and
scaled multipliers of that factorization, so it runs on Python ints only
(each coordinate bounded with isqrt).  The last two levels run as one loop
over x_1 that solves for x_0.  Without LLL a vector of the lattice is its
coefficient vector, written as it is found; after LLL, or in the ambient
coordinates of an orthogonal complement, the search keeps partial sums of
the basis vectors and writes every vector directly in the caller's basis.
Each coordinate value fixed at a level above the first and each emitted
solution counts as a node, and a search that passes _MAX_FP_NODES nodes
raises EnumerationOverflow.  A norm that is not an int, or a box bound that
is not a positive one, is refused before any search.  Indefinite lattices
can only be scanned inside an explicit coordinate box, and the result says
so.
The box scan also runs on Python ints only: it walks the trailing
coordinates with the same loop and completes each of them by looking up
the first two in a table of their contributions to the norm.  Both
searches emit one member of each +-v pair, and canonical_order alone writes
the negatives, after the representatives; a negation-closed witness set
has its first hit among those, so the witness searches try only them.
"""

from __future__ import annotations

from itertools import product
from math import gcd, isqrt, lcm
from operator import add, mul, neg
from typing import NamedTuple

from . import intlinalg as la
from .errors import (
    ComplementNotDefinite,
    EnumerationOverflow,
    NotDefinite,
    SignMismatch,
)
from .lattices import (
    Lattice,
    Vec,
    check_vector,
)

# Box scans refuse to touch more cells than this; keeps a typo from eating
# the machine.  20 coordinates at bound 1 is already past it.
_MAX_BOX_CELLS = 200_000_000

# Fincke-Pohst searches refuse to visit more nodes than this.  E8(-1)^2 at
# norm -6 (1,050,240 vectors) stays below it; at norm -8 it does not.
_MAX_FP_NODES = 10_000_000

# Definite searches LLL-reduce from this rank on; below, it is not worth its cost.
_LLL_MIN_RANK = 10

# Box scans hold at most this many head-table entries at once, whatever
# the Gram entries and the bound.
_MAX_HEAD_CELLS = 1 << 16


class _DataclassFields:
    """``__dataclass_fields__`` made on first read, so that ``dataclasses.replace``
    takes the results perfbench/selftest.py alters to build wrong answers,
    while importing this package loads no dataclasses."""

    def __get__(self, obj, cls):
        import dataclasses

        return dataclasses.make_dataclass(cls.__name__, cls._fields).__dataclass_fields__


class EnumerationResult(NamedTuple):
    """Canonically ordered vector list; complete=False marks a box-limited scan."""

    vectors: tuple[Vec, ...]
    count: int
    complete: bool
    __dataclass_fields__ = _DataclassFields()


def canonical_order(vectors) -> tuple[Vec, ...]:
    """Deterministic order for the negation closure of a vector set, which
    may hold one or both members of each +-v pair, repeated or not.

    Representatives (first nonzero coordinate positive) in ascending
    lexicographic order, then the zero vector if present, then the negated
    representatives in descending order; only here are negatives written.
    Reversing the list then negating every entry reproduces it exactly.
    """
    vs = list(map(tuple, vectors))
    zero = (0,) * len(vs[0]) if vs else ()
    # a tuple exceeds zero exactly when its first nonzero coordinate is positive
    reps = {v if v >= zero else tuple(map(neg, v)) for v in vs}
    mid = [zero] if zero in reps else []
    reps = sorted(reps - {zero})
    return tuple(reps + mid + [tuple(map(neg, v)) for v in reversed(reps)])


def _make_result(vectors, complete: bool) -> EnumerationResult:
    ordered = canonical_order(vectors)
    return EnumerationResult(ordered, len(ordered), complete)


def _node_overflow(nodes: int, n: int) -> EnumerationOverflow:
    return EnumerationOverflow(
        f"Fincke-Pohst search reached {nodes} nodes in rank {n} "
        f"(limit {_MAX_FP_NODES}); the norm is too large to enumerate"
    )


def _fp_enumerate(d, lam, target: int, basis) -> list[Vec]:
    """All v = sum_i x_i basis[i] over integer x with x^t G x = target,
    where (d, lam) = ldl(G) for a definite G (no d[i] is zero and every
    d[i - 1] d[i] has G's sign) and target is positive (the absolute norm).
    basis None stands for the identity: v is x itself.

    With mu[j][i] = lam[j][i] / d[i] and pivots p_i = d[i] / d[i - 1],
    |x^t G x| = sum_i |p_i| (x_i + sum_{j>i} mu[j][i] x_j)^2.  For
    g_i = +-gcd(d[i], lam[i+1..][i]), s_i = |d[i] / g_i| is the lcm of the
    denominators of column i of mu, so y_i = s_i x_i + t_i,
    t_i = sum_{j>i} (lam[j][i] / g_i) x_j, is an integer.  Its weight is
    |p_i| / s_i^2 = g_i^2 / |d[i - 1] d[i]|; scaling by the lcm `scale` of
    the weights' denominators gives integer weights w_i with
    sum_i w_i y_i^2 = scale * target.  The coordinates are bounded one at
    a time from the last one down, |y_i| <= isqrt(rem // w_i).  Levels 1
    and 0 share one loop: on entering level 1, t_1, the range of x_1 and
    the part of t_0 fixed by x_2.. are computed once; each x_1 then adds
    c01 x_1 (c01 = lam[1][0] / g_0) to that part and solves w_0 y_0^2 = rem
    for x_0.  Rank 1 solves for x_0 alone.  Only x whose last nonzero
    coordinate is positive are visited, so one v per +-v pair is emitted
    (canonical_order writes the negatives).  In the identity basis v is
    written from x directly; otherwise the levels >= 2 keep the partial
    sums part[i] = sum_{j>=i} x_j basis[j] and v = part[2] + x_1 basis[1] +
    x_0 basis[0].  Every coordinate value fixed at a level >= 1 and every
    emitted x_0 counts as a node; past _MAX_FP_NODES the search raises
    EnumerationOverflow.
    """
    n = len(d)
    # g[i] carries the sign of d[i], so s[i] > 0
    g = [gcd(d[i], *(lam[j][i] for j in range(i + 1, n))) * (1 if d[i] > 0 else -1)
         for i in range(n)]
    s = [di // gi for di, gi in zip(d, g)]
    cols = [[(j, lam[j][i] // g[i]) for j in range(i + 1, n) if lam[j][i]] for i in range(n)]
    den = [abs(a * b) for a, b in zip([1, *d], d)]
    scale = lcm(*(b // gcd(gi * gi, b) for gi, b in zip(g, den)))
    w = [gi * gi * scale // b for gi, b in zip(g, den)]
    cap = _MAX_FP_NODES
    found: list[Vec] = []
    if n == 1:
        # x_0 > 0 and w_0 (s_0 x_0)^2 = scale * target
        r = isqrt(scale * target // w[0])
        if w[0] * r * r == scale * target and not r % s[0]:
            x0 = r // s[0]
            found.append((x0,) if basis is None else tuple(x0 * b for b in basis[0]))
        if len(found) > cap:
            raise _node_overflow(len(found), n)
        return found
    s0, s1, w0, w1 = s[0], s[1], w[0], w[1]
    c01 = lam[1][0] // g[0]
    cols0 = [(j, c) for j, c in cols[0] if j > 1]
    # level i >= 2: x[i] runs up to hi[i], levels <= i may spend rem[i + 1],
    # and with a basis part[i + 1] = sum_{j>i} x_j basis[j]
    x = [0] * n
    hi = [0] * n
    t = [0] * n
    rem = [0] * n + [scale * target]
    part = None if basis is None else [None] * n + [(0,) * len(basis[0])]
    nodes = 0
    i = n - 1
    enter = True
    while i < n:
        if enter:
            ti = t[i] = sum(c * x[j] for j, c in cols[i])
            r = isqrt(rem[i + 1] // w[i])
            free = any(x[i + 1 :])
            lo = -((r + ti) // s[i]) if free else 0
            hi[i] = (r - ti) // s[i]
            if i == 1:
                # x_1 runs and x_0 is solved for; v is (x_0, x_1, *xs) or
                # xs + x_1 basis[1] + x_0 basis[0]
                base0 = sum(c * x[j] for j, c in cols0)
                rem2 = rem[2]
                xs = tuple(x[2:]) if part is None else part[2]
                for x1 in range(lo, hi[1] + 1):
                    nodes += 1
                    if nodes > cap:
                        raise _node_overflow(nodes, n)
                    y = s1 * x1 + ti
                    r2, k = divmod(rem2 - w1 * y * y, w0)
                    if k:
                        continue
                    r = isqrt(r2)
                    if r * r != r2:
                        continue
                    t0 = base0 + c01 * x1
                    for y in (r, -r) if r else (0,):
                        x0, k = divmod(y - t0, s0)
                        if not k and (x0 > 0 or x1 or free):
                            nodes += 1
                            if part is None:
                                found.append((x0, x1, *xs))
                            else:
                                found.append(tuple(
                                    a + x1 * b + x0 * c for a, b, c in zip(xs, basis[1], basis[0])))
                    if nodes > cap:
                        raise _node_overflow(nodes, n)
                i = 2
                enter = False
                continue
            if lo > hi[i]:
                i += 1
                enter = False
                continue
            x[i] = lo
            if part is not None:
                part[i] = tuple(a + lo * b for a, b in zip(part[i + 1], basis[i]))
        else:
            x[i] += 1
            if x[i] > hi[i]:
                i += 1
                continue
            if part is not None:
                part[i] = tuple(map(add, part[i], basis[i]))
        nodes += 1
        if nodes > cap:
            raise _node_overflow(nodes, n)
        y = s[i] * x[i] + t[i]
        rem[i] = rem[i + 1] - w[i] * y * y
        i -= 1
        enter = True
    return found


def _definite_vectors(gram, m: int, basis) -> list[Vec]:
    """One of each +-pair of v = sum_i x_i basis[i], x^t gram x = m, unordered.

    One ldl of the Gram matrix gives the signature, the NotDefinite
    verdict, and the Fincke-Pohst data, which serves a negative definite
    form as it is.  basis[i] is the image of the i-th unit vector; basis
    None is the identity, and the search then writes each x as it is.  From
    rank _LLL_MIN_RANK on, the search runs instead on the (d, lam) that
    lll_reduce_gram returns for the positive form (after a second ldl, its
    only one), and the reduced unit vectors map to transpose(T) basis.
    """
    n = len(gram)
    if n == 0:
        return []
    d, lam = la.ldl(gram)
    p, nneg, z = la.sign_counts(d)
    if z > 0 or (p > 0 and nneg > 0):
        raise NotDefinite(f"signature {(p, nneg, z)} is not definite")
    positive = p > 0
    if m == 0 or (m > 0) != positive:
        raise SignMismatch(
            f"norm {m} cannot occur in a {'positive' if positive else 'negative'} definite lattice"
        )
    if n >= _LLL_MIN_RANK:
        work = gram if positive else tuple(tuple(-x for x in row) for row in gram)
        trans, d, lam = la.lll_reduce_gram(work)
        basis = la.transpose(trans) if basis is None else la.mat_mul(la.transpose(trans), basis)
    return _fp_enumerate(d, lam, abs(m), basis)


def _check_norm(m) -> None:
    """Reject a norm that is not an int (a bool is not one)."""
    if isinstance(m, bool) or not isinstance(m, int):
        raise ValueError("norm must be an integer")


def _check_bound(bound) -> None:
    """Reject a box bound that is not an int >= 1 (a bool is not one)."""
    if isinstance(bound, bool) or not isinstance(bound, int) or bound < 1:
        raise ValueError("bound must be a positive integer")


def vectors_of_norm(L: Lattice, m: int) -> EnumerationResult:
    """Complete list of vectors of self-intersection m in a definite lattice.

    Raises NotDefinite, SignMismatch for a norm of the wrong sign, and
    EnumerationOverflow when the search passes _MAX_FP_NODES nodes.  From
    rank _LLL_MIN_RANK on the Gram matrix is LLL-reduced first.
    """
    _check_norm(m)
    return _make_result(_definite_vectors(L.gram, m, None), True)


def constrained_roots(L: Lattice, ortho, m: int) -> EnumerationResult:
    """Vectors of norm m orthogonal to every vector in ortho.

    The vectors are enumerated inside the primitive orthogonal complement
    of span(ortho) (which must be definite), written directly in ambient
    coordinates by the enumeration.
    """
    _check_norm(m)
    ortho = [check_vector(L, o) for o in ortho]
    rows = [la.mat_vec(L.gram, o) for o in ortho]
    basis = la.kernel(rows, ncols=L.rank)
    gram = la.mat_mul(la.mat_mul(basis, L.gram), la.transpose(basis))
    try:
        vecs = _definite_vectors(gram, m, basis)
    except NotDefinite as exc:
        raise ComplementNotDefinite(f"complement: {exc}") from None
    except SignMismatch:
        # wrong-sign norm in a definite complement: simply no solutions
        vecs = []
    return _make_result(vecs, True)


def _box_scan(gram, m: int, bound: int) -> list[Vec]:
    """Every x >= zero (one of each +-pair) with max |x_i| <= bound and
    x^t gram x = m, unordered; canonical_order writes the negatives.

    The first k = min(n, 2) coordinates are the head, the rest the tail;
    k is lowered while a single head table would exceed _MAX_HEAD_CELLS
    entries.  The tail x_{n-1}..x_k is walked with the loop of
    _fp_enumerate, x_k innermost; each level keeps the tail norm and
    p = gram x_tail, cut to the coordinates not yet fixed.  Since
    x^t gram x = h(head) + 2 head.p + tail norm, the heads completing a
    tail are the entries under m - tail norm in the table of
    h(head) + 2 head.p over the head box, built the first time its key p
    occurs.  At most _MAX_HEAD_CELLS table entries are held at once: a full
    cache is emptied before the next table goes in.  Only heads >= zero
    enter the tables, and a zero head completes only a tail >= zero.
    """
    n = len(gram)
    side = range(-bound, bound + 1)
    k = min(n, 2)
    while len(side) ** k > _MAX_HEAD_CELLS:
        k -= 1
    zero = (0,) * n
    quad = [
        (head, sum(a * gram[i][j] * b for i, a in enumerate(head) for j, b in enumerate(head)))
        for head in product(side, repeat=k)
        if head >= zero[:k]
    ]
    if k == n:
        return [head for head, h in quad if h == m]
    max_tables = _MAX_HEAD_CELLS // len(quad)
    tables: dict[Vec, dict[int, list[Vec]]] = {}
    cols = [tuple(gram[j][i] for j in range(i)) for i in range(n)]
    # x_k, its share of the key, and its diagonal term
    steps = [(xk, tuple(xk * c for c in cols[k]), gram[k][k] * xk * xk) for xk in side]
    hits: list[Vec] = []
    # level i: x[i] runs up to bound; tail[i + 1] is the norm of x_{>i} and
    # part[i + 1] the first i + 1 coordinates of gram x_{>i}
    x = [0] * n
    tail = [0] * (n + 1)
    part = [None] * n + [(0,) * n]
    i = n - 1
    enter = True
    while i < n:
        if i == k:
            up = part[k + 1]
            rem = m - tail[k + 1]
            twice = 2 * up[k]
            for xk, share, sq in steps:
                key = tuple(map(add, up, share))
                table = tables.get(key)
                if table is None:
                    if len(tables) >= max_tables:
                        tables.clear()
                    table = tables[key] = {}
                    for head, h in quad:
                        table.setdefault(h + 2 * sum(map(mul, head, key)), []).append(head)
                heads = table.get(rem - xk * twice - sq)
                if heads:
                    rest = (xk, *x[k + 1 :])
                    hits.extend(v for v in (head + rest for head in heads) if v >= zero)
            i += 1
            enter = False
            continue
        if enter:
            x[i] = -bound
            part[i] = tuple(a - bound * c for a, c in zip(part[i + 1], cols[i]))
        else:
            x[i] += 1
            if x[i] > bound:
                i += 1
                continue
            part[i] = tuple(map(add, part[i], cols[i]))
        xi = x[i]
        tail[i] = tail[i + 1] + xi * (2 * part[i + 1][i] + gram[i][i] * xi)
        i -= 1
        enter = True
    return hits


def bounded_vectors_of_norm(L: Lattice, m: int, bound: int) -> EnumerationResult:
    """All vectors with max |coordinate| <= bound and norm m.

    Works for any lattice, definite or not; the result is flagged as
    box-limited (complete=False).  Raises EnumerationOverflow rather than
    attempting a scan with an astronomical cell count.
    """
    _check_norm(m)
    _check_bound(bound)
    n = L.rank
    side = 2 * bound + 1
    cells = side ** n
    if cells > _MAX_BOX_CELLS:
        raise EnumerationOverflow(
            f"box of side {side} in rank {n} has {cells} cells "
            f"(limit {_MAX_BOX_CELLS}); lower the bound"
        )
    return _make_result(_box_scan(L.gram, m, bound), False)
