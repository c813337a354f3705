"""Enumeration of lattice vectors with a prescribed self-intersection.

Definite lattices get a complete answer from Fincke-Pohst enumeration over
the fraction-free LDL^t factorization of the Gram matrix (intlinalg.ldl),
the same single factorization that decides definiteness.  The search reads
its integer column scales and weights straight from the leading minors and
scaled multipliers of that factorization, so it runs on Python ints only
(each coordinate bounded with isqrt).  The centre t_i of each level, and
with it the part of the x_0 centre fixed above level 1, is a running sum:
each step of a coordinate adds its share to the centres below it, and
leaving its level takes that share back out and resets it to 0.  The last
two levels run as one loop over x_1 that solves for x_0.  Below rank
_LLL_MIN_RANK the walk runs over the coordinates in reverse, so in the
identity basis it writes each vector of the lattice as its coefficient
vector, reversed back as it is found, and emits exactly the canonical
representatives (first nonzero coordinate positive), already in ascending
order.  After LLL, or in the ambient coordinates of an orthogonal
complement, the search keeps partial sums of the basis vectors and writes
every vector directly in the caller's basis.
Each coordinate value fixed at a level above the first and each emitted
solution counts as a node, and a search that passes _MAX_FP_NODES nodes
raises EnumerationOverflow.  A norm that is not an int, or a box bound that
is not a positive one, is refused before any search.  Indefinite lattices
can only be scanned inside an explicit coordinate box, and the result says
so.
The box scan runs on Python ints too: the same walk, ended the same way
by solving for x_0, inside the box.  Both searches emit one member of
each +-v pair.  One ordering routine, shared by canonical_order and every
search result, normalises their signs, sorts them (one linear pass on
the already sorted output of a definite search in the identity basis) and
alone writes the negatives, after the representatives.  A
negation-closed witness set has its first hit among those, so the
witness searches try only them.
"""

from __future__ import annotations

from math import gcd, isqrt, lcm
from operator import add, neg
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
    SublatticeEmbedding,
    Vec,
    check_vector,
    orthogonal_complement,
)

# Box scans refuse to touch more cells than this; keeps a typo from eating
# the machine.  20 coordinates at bound 1 is already past it.
_MAX_BOX_CELLS = 200_000_000

# Fincke-Pohst searches refuse to visit more nodes than this.  E8(-1)^2 at
# norm -6 (1,050,240 vectors) stays below it; at norm -8 it does not.
_MAX_FP_NODES = 10_000_000

# Definite searches LLL-reduce from this rank on; below, it is not worth its cost.
_LLL_MIN_RANK = 10

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
    representatives in descending order.  Reversing the list then negating
    every entry reproduces it exactly.
    """
    vs = list(map(tuple, vectors))
    zero = (0,) * len(vs[0]) if vs else ()
    # dedupe in first-seen order, so that already ordered input sorts linearly
    return _closure(dict.fromkeys(v if v > zero else tuple(map(neg, v)) for v in vs), zero)


def _closure(reps, zero) -> tuple[Vec, ...]:
    """The canonical list of distinct representatives, each above zero
    (first nonzero coordinate positive) or zero itself; the only place the
    negatives are written.  Zero, if present, sorts first and moves to the
    middle."""
    reps = sorted(reps)
    mid = [reps.pop(0)] if reps and reps[0] == zero else []
    return tuple(reps + mid + [tuple(map(neg, v)) for v in reversed(reps)])


def _make_result(vectors, complete: bool) -> EnumerationResult:
    # a search emits one member of each pair, once; the sort is one linear
    # pass over the ascending representatives of a definite search in the
    # identity basis
    zero = (0,) * len(vectors[0]) if vectors else ()
    ordered = _closure([v if v > zero else tuple(map(neg, v)) for v in vectors], zero)
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
    basis None writes v as x reversed, (x_{n-1}, ..., x_1, x_0).

    With mu[j][i] = lam[j][i] / d[i] and pivots p_i = d[i] / d[i - 1],
    |x^t G x| = sum_i |p_i| (x_i + sum_{j>i} mu[j][i] x_j)^2.  For
    g_i = +-gcd(d[i], lam[i+1..][i]), s_i = |d[i] / g_i| is the lcm of the
    denominators of column i of mu, so y_i = s_i x_i + t_i,
    t_i = sum_{j>i} c_ji x_j with c_ji = lam[j][i] / g_i, is an integer.
    Its weight is |p_i| / s_i^2 = g_i^2 / |d[i - 1] d[i]|; scaling by the
    lcm `scale` of the weights' denominators gives integer weights w_i with
    sum_i w_i y_i^2 = scale * target.  The coordinates are bounded one at
    a time from the last one down, |y_i| <= isqrt(rem // w_i).  The centres
    t_i are running sums over the levels >= 2: fixing x_j at lo adds
    c_ji lo to every t_i, i < j, each step of x_j adds c_ji, and leaving
    level j subtracts c_ji x_j and resets x_j to 0, so t_i always equals
    sum_{j>i} c_ji x_j over the current x and is ready when level i is
    entered.  Levels 1 and 0 share one loop: on entering level 1, t_0
    holds the part fixed by x_2..; each x_1 adds c01 x_1 (c01 = c_10) to
    it and solves w_0 y_0^2 = rem for x_0, trying its roots y_0 = -r, r
    in ascending order.  Only x whose last nonzero coordinate is positive
    are visited, so one v per +-v pair is emitted (_make_result writes the
    negatives); nz[i] records whether some x_j, j >= i, is nonzero, and
    only then may x_{i-1} go negative.  Every level, x_0 included, runs
    upwards, so x is visited in ascending lexicographic order of
    (x_{n-1}, ..., x_1, x_0), and that tuple is v when basis is None: the
    caller factors its Gram matrix with the coordinates reversed, so v is
    the coefficient vector in the caller's order, its first nonzero
    coordinate positive, and the output is already canonical and
    ascending.  With a basis the levels >= 2 keep the partial sums
    part[i] = sum_{j>=i} x_j basis[j] and
    v = part[2] + x_1 basis[1] + x_0 basis[0].  Every coordinate value
    fixed at a level >= 1 and every emitted x_0 counts as a node; past
    _MAX_FP_NODES the search raises EnumerationOverflow.  Rank 1 solves
    for x_0 alone: it finds at most one x and counts no nodes.
    """
    n = len(d)
    # g[i] carries the sign of d[i], so s[i] > 0
    g = [gcd(d[i], *(lam[j][i] for j in range(i + 1, n))) * (1 if d[i] > 0 else -1)
         for i in range(n)]
    s = [di // gi for di, gi in zip(d, g)]
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
        return found
    s0, s1, w0, w1 = s[0], s[1], w[0], w[1]
    c01 = lam[1][0] // g[0]
    # rows[j]: the centres t_i that x_j moves, with c_ji; x_1 moves t_0 in
    # the level-1 loop
    rows = [[]] * 2 + [[(i, lam[j][i] // g[i]) for i in range(j) if lam[j][i]]
                       for j in range(2, n)]
    # level i >= 2: x[i] runs up to hi[i], levels <= i may spend rem[i + 1],
    # and with a basis part[i + 1] = sum_{j>i} x_j basis[j]
    x = [0] * n
    hi = [0] * n
    t = [0] * n
    nz = [False] * (n + 1)
    rem = [0] * n + [scale * target]
    part = None if basis is None else [None] * n + [(0,) * len(basis[0])]
    nodes = 0
    i = n - 1
    enter = True
    while i < n:
        if enter:
            ti = t[i]
            r = isqrt(rem[i + 1] // w[i])
            free = nz[i + 1]
            lo = -((r + ti) // s[i]) if free else 0
            hi[i] = (r - ti) // s[i]
            if i == 1:
                # x_1 runs and x_0 is solved for; v is x reversed,
                # (*xs, x_1, x_0), or xs + x_1 basis[1] + x_0 basis[0]
                base0 = t[0]
                rem2 = rem[2]
                xs = x[:1:-1] if part is None else part[2]
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
                    for y in (-r, r) if r else (0,):
                        x0, k = divmod(y - t0, s0)
                        if not k and (x0 > 0 or x1 or free):
                            nodes += 1
                            if part is None:
                                found.append((*xs, x1, x0))
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
            x[i] = xi = lo
            for j, c in rows[i]:
                t[j] += c * lo
            if part is not None:
                part[i] = tuple(a + lo * b for a, b in zip(part[i + 1], basis[i]))
        else:
            xi = x[i]
            if xi == hi[i]:
                for j, c in rows[i]:
                    t[j] -= c * xi
                x[i] = 0
                i += 1
                continue
            x[i] = xi = xi + 1
            for j, c in rows[i]:
                t[j] += c
            if part is not None:
                part[i] = tuple(map(add, part[i], basis[i]))
        nodes += 1
        if nodes > cap:
            raise _node_overflow(nodes, n)
        nz[i] = nz[i + 1] or xi != 0
        y = s[i] * xi + t[i]
        rem[i] = rem[i + 1] - w[i] * y * y
        i -= 1
        enter = True
    return found


def _definite_vectors(gram, m: int, basis) -> list[Vec]:
    """One of each +-pair of v = sum_i x_i basis[i], x^t gram x = m.

    One ldl of the Gram matrix gives the signature, the NotDefinite
    verdict, and the Fincke-Pohst data, which serves a negative definite
    form as it is.  basis[i] is the image of the i-th unit vector; basis
    None is the identity.  Below rank _LLL_MIN_RANK the Gram matrix is
    factored with its coordinates reversed, and the basis rows reversed
    with it, so the walk's rule "last nonzero coordinate positive" is the
    canonical "first nonzero coordinate positive" and its level order is
    lexicographic: with basis None (or the identity) the list is the
    canonical representatives in ascending order.  From rank
    _LLL_MIN_RANK on, lll_reduce_gram first reduces the (d, lam) of the
    given order in place, of either sign, and the reduced unit vectors map
    to transpose(T) basis; that list, like one written in another basis,
    is unordered and its signs are arbitrary.
    """
    n = len(gram)
    if n == 0:
        return []
    lll = n >= _LLL_MIN_RANK
    if not lll:
        gram = [row[::-1] for row in gram[::-1]]
        basis = None if basis is None else basis[::-1]
    d, lam = la.ldl(gram)
    p, nneg, z = la.sign_counts(d)
    if z > 0 or (p > 0 and nneg > 0):
        raise NotDefinite(f"signature {(p, nneg, z)} is not definite")
    positive = p > 0
    if m == 0 or (m > 0) != positive:
        raise SignMismatch(
            f"norm {m} cannot occur in a {'positive' if positive else 'negative'} definite lattice"
        )
    if lll:
        trans = la.transpose(la.lll_reduce_gram(d, lam))
        basis = trans if basis is None else la.mat_mul(trans, basis)
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
    comp = orthogonal_complement(SublatticeEmbedding(L, [check_vector(L, o) for o in ortho]))
    try:
        vecs = _definite_vectors(comp.induced_gram(), m, comp.basis)
    except NotDefinite as exc:
        raise ComplementNotDefinite(f"complement: {exc}") from None
    except SignMismatch:
        # wrong-sign norm in a definite complement: simply no solutions
        vecs = []
    return _make_result(vecs, True)


def _box_scan(gram, m: int, bound: int) -> list[Vec]:
    """Every x with max |x_i| <= bound and x^t gram x = m that is zero or
    has its last nonzero coordinate positive (one of each +-pair),
    unordered; _make_result writes the negatives.

    The multiples x_0 e_0 come first: g00 x_0^2 = m, x_0 >= 0.  The rest
    are walked over x_{n-1}..x_2 with the loop of _fp_enumerate, each
    level keeping the tail norm and part = gram x_tail cut to the
    coordinates not yet fixed; a level may go negative only when nz says
    a later coordinate is nonzero, and over a zero tail x_1 starts at 1.
    Levels 1 and 0 share one loop over x_1 that steps p = part_0 + g01 x_1
    and rest = m - (norm of x_1..x_{n-1}) by finite differences (drest)
    and solves g00 x_0^2 + 2 p x_0 = rest: x_0 = (-p +- isqrt(p^2 +
    g00 rest)) / g00, or rest / 2p when g00 = 0, or, when p and rest are
    both 0, every x_0 of the box.
    """
    n = len(gram)
    if n == 0:
        return [()] if m == 0 else []
    g00 = gram[0][0]
    zeros = (0,) * (n - 1)
    if not g00:
        hits = [(x0, *zeros) for x0 in range(bound + 1)] if m == 0 else []
    else:
        q, k = divmod(m, g00)
        r = isqrt(q) if q > 0 else 0
        hits = [(r, *zeros)] if not k and r * r == q and r <= bound else []
    if n == 1:
        return hits
    g01, g11 = gram[0][1], gram[1][1]
    cols = [tuple(gram[j][i] for j in range(i)) for i in range(n)]
    # level i >= 2: tail[i + 1] = norm of x_{>i}, part[i + 1] = (gram x_{>i})_{<=i}
    x = [0] * n
    nz = [False] * (n + 1)
    tail = [0] * (n + 1)
    part = [None] * n + [(0,) * n]
    i = n - 1
    enter = True
    while i < n:
        if i == 1:
            lo = -bound if nz[2] else 1
            p, p1 = part[2]
            p += g01 * lo
            rest = m - tail[2] - lo * (2 * p1 + g11 * lo)
            drest = -2 * p1 - g11 * (2 * lo + 1)
            for x1 in range(lo, bound + 1):
                if g00:
                    disc = p * p + g00 * rest
                    if disc >= 0:
                        r = isqrt(disc)
                        if r * r == disc:
                            for y in {r, -r}:
                                x0, k = divmod(y - p, g00)
                                if not k and -bound <= x0 <= bound:
                                    hits.append((x0, x1, *x[2:]))
                elif p:
                    if not rest % (2 * p):
                        x0 = rest // (2 * p)
                        if -bound <= x0 <= bound:
                            hits.append((x0, x1, *x[2:]))
                elif not rest:
                    hits.extend((x0, x1, *x[2:]) for x0 in range(-bound, bound + 1))
                p += g01
                rest += drest
                drest -= 2 * g11
            i = 2
            enter = False
            continue
        if enter:
            x[i] = xi = -bound if nz[i + 1] else 0
            part[i] = tuple(a + xi * c for a, c in zip(part[i + 1], cols[i]))
        else:
            xi = x[i]
            if xi == bound:
                i += 1
                continue
            x[i] = xi = xi + 1
            part[i] = tuple(map(add, part[i], cols[i]))
        nz[i] = nz[i + 1] or xi != 0
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
