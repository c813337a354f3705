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
vector, reversed back as it is found, and visits exactly the canonical
representatives (first nonzero coordinate positive), in ascending order.
It writes each one's negative in the same step, from a tail negated once
per x_1 loop, and hands back the finished canonical list.  After LLL, or
in the ambient coordinates of an orthogonal complement, the search keeps
partial sums of the basis vectors, each a map of add over the one above
and a multiple of a basis row (the one above itself when the coordinate
is 0), and writes the representative of each +-v pair directly in the
caller's basis, unordered.
Each coordinate value fixed at a level above the first and each emitted
solution counts as a node, and a search that passes _MAX_FP_NODES nodes
raises EnumerationOverflow.  A norm that is not an int, or a box bound that
is not a positive one, is refused before any search.  Indefinite lattices
can only be scanned inside an explicit coordinate box, and the result says
so.
The box scan runs on Python ints too: the same walk over the same
reversed coordinates, ended the same way by solving for x_0, inside the
box, where a definite plane of the last two coordinates bounds x_1 with
one isqrt.  It emits the canonical representatives in ascending order,
zero first.  One ordering routine, _closure, sorts the representatives
of canonical_order, the box scans and the walks in a basis and writes
the negatives after them.  This module alone decides vector order: a
negation-closed witness set has its first hit among the representatives,
and _witness_candidates hands the witness searches those, smallest
coordinate box first, then in canonical order.
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

# Definite searches LLL-reduce from this rank on.  Below it the reduction
# costs more than it saves on the bases seen so far: E8(-1) at norms -2 and
# -4 takes 2.0 ms without it and 5.1 ms with it, three skews of it (8 column
# operations each) 3.6-5.0 against 4.8-5.0 ms (best of 3, in-process,
# Python 3.11, 2 shared cores).  The rank alone decides; see the
# _LLL_MIN_RANK FOUND line of CHANGES.md for a rule read per input.
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
    return _closure(dict.fromkeys(v if v > zero else tuple(map(neg, v)) for v in vs))


def _closure(reps) -> tuple[Vec, ...]:
    """The canonical list of distinct representatives, each above zero
    (first nonzero coordinate positive) or zero itself: the ordering
    routine of canonical_order, the box scans and the definite walks in a
    basis, which sorts them and writes their negatives.  (The definite
    walk in the identity basis writes its list in this order itself; the
    box scan hands its representatives over already ascending, which the
    sort passes in one run.)  Zero, if present, sorts first and moves to
    the middle."""
    reps = sorted(reps)
    mid = [reps.pop(0)] if reps and not any(reps[0]) else []
    return tuple(reps + mid + [tuple(map(neg, v)) for v in reversed(reps)])


def _node_overflow(nodes: int, n: int) -> EnumerationOverflow:
    return EnumerationOverflow(
        f"Fincke-Pohst search reached {nodes} nodes in rank {n} "
        f"(limit {_MAX_FP_NODES}); the norm is too large to enumerate"
    )


def _fp_enumerate(d, lam, target: int, basis) -> list[Vec]:
    """All v = sum_i x_i basis[i] over integer x with x^t G x = target,
    where (d, lam) = ldl(G) for a definite G (no d[i] is zero and every
    d[i - 1] d[i] has G's sign) and target is positive (the absolute norm).
    basis None writes v as x reversed, (x_{n-1}, ..., x_1, x_0), and
    returns the finished canonical list (see below); with a basis the list
    holds the representative of each +-v pair (first nonzero coordinate
    positive), unordered.

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
    are visited, so one v per +-v pair is emitted; nz[i] records whether
    some x_j, j >= i, is nonzero, and only then may x_{i-1} go negative.
    Every level, x_0 included, runs upwards, so x is visited in ascending
    lexicographic order of (x_{n-1}, ..., x_1, x_0), and that tuple is v
    when basis is None: the caller factors its Gram matrix with the
    coordinates reversed, so v is the coefficient vector in the caller's
    order, its first nonzero coordinate positive, and the representatives
    come out canonical and ascending.  Each x_1 loop then negates the tail
    xs = (x_{n-1}, ..., x_2) once, into nxs, and each v = (*xs, x_1, x_0)
    is written with its negative (*nxs, -x_1, -x_0); the negatives,
    reversed, follow the representatives, which is the canonical list, so
    no ordering routine runs on this path.  With a basis the levels >= 2
    keep the partial sums part[i] = sum_{j>=i} x_j basis[j], a map of add
    over part[i + 1] and x_i basis[i] on entering level i (part[i + 1]
    itself when x_i starts at 0) and over part[i] and basis[i] at each
    step; an x_1 with a root adds x_1 basis[1] to part[2] when x_1 is not
    0, and each x_0 adds x_0 basis[0] to that when x_0 is not 0.  The sum
    is written as its representative, negated when it sorts below the
    zero vector part[n], and the caller sorts that list with _closure.
    Every coordinate value fixed at a level >= 1 and every emitted x_0
    counts as a node; past _MAX_FP_NODES the search raises
    EnumerationOverflow.  Rank 1 solves
    for x_0 alone: it finds at most one x, writes its negative too when
    basis is None, and its representative with a basis, and counts no
    nodes.
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
            if basis is None:
                found += [(x0,), (-x0,)]
            else:
                v = tuple(x0 * b for b in basis[0])
                found.append(max(v, tuple(map(neg, v))))
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
    negs: list[Vec] = []
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
                # (*xs, x_1, x_0), written with its negative, or
                # p1 + x_0 basis[0] with p1 = xs + x_1 basis[1]
                base0 = t[0]
                rem2 = rem[2]
                if part is None:
                    xs = x[:1:-1]
                    nxs = [-c for c in xs]
                else:
                    xs, b1, b0, zero = part[2], basis[1], basis[0], part[n]
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
                    if part is not None:
                        p1 = tuple(map(add, xs, [x1 * b for b in b1])) if x1 else xs
                    for y in (-r, r) if r else (0,):
                        x0, k = divmod(y - t0, s0)
                        if not k and (x0 > 0 or x1 or free):
                            nodes += 1
                            if part is None:
                                found.append((*xs, x1, x0))
                                negs.append((*nxs, -x1, -x0))
                            else:
                                v = tuple(map(add, p1, [x0 * c for c in b0])) if x0 else p1
                                found.append(v if v > zero else tuple(map(neg, v)))
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
                part[i] = tuple(map(add, part[i + 1], [lo * b for b in basis[i]])) if lo else part[i + 1]
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
    if basis is None:
        found.extend(reversed(negs))
    return found


def _definite_vectors(gram, m: int, basis) -> EnumerationResult:
    """The complete, canonically ordered v = sum_i x_i basis[i] with
    x^t gram x = m.

    One ldl of the Gram matrix gives the signature, the NotDefinite
    verdict, and the Fincke-Pohst data, which serves a negative definite
    form as it is.  basis[i] is the image of the i-th unit vector; basis
    None is the identity.  Below rank _LLL_MIN_RANK the Gram matrix is
    factored with its coordinates reversed, and the basis rows reversed
    with it, so the walk's rule "last nonzero coordinate positive" is the
    canonical "first nonzero coordinate positive" and its level order is
    lexicographic: with basis None the walk writes the canonical list
    itself.  From rank _LLL_MIN_RANK on, lll_reduce_gram reduces the
    basis rows themselves (the unit vectors when basis is None), of either
    sign, and the (d, lam) of the given order in place with them; a walk
    in the reduced basis, like one in any other, emits the representative
    of each pair, unordered, and _closure sorts it.
    """
    n = len(gram)
    if n == 0:
        return EnumerationResult((), 0, True)
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
        basis = la.lll_reduce_gram(d, lam, la.identity(n) if basis is None else basis)
    found = _fp_enumerate(d, lam, abs(m), basis)
    if basis is not None:
        found = _closure(found)
    return EnumerationResult(tuple(found), len(found), True)


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
    return _definite_vectors(L.gram, m, None)


def constrained_roots(L: Lattice, ortho, m: int) -> EnumerationResult:
    """Vectors of norm m orthogonal to every vector in ortho.

    The vectors are enumerated inside the primitive orthogonal complement
    of span(ortho) (which must be definite), written directly in ambient
    coordinates by the enumeration.
    """
    _check_norm(m)
    comp = orthogonal_complement(SublatticeEmbedding(L, [check_vector(L, o) for o in ortho]))
    try:
        return _definite_vectors(comp.induced_gram(), m, comp.basis)
    except NotDefinite as exc:
        raise ComplementNotDefinite(f"complement: {exc}") from None
    except SignMismatch:
        # wrong-sign norm in a definite complement: simply no solutions
        return EnumerationResult((), 0, True)


def _box_scan(gram, m: int, bound: int) -> list[Vec]:
    """The canonical representatives (first nonzero coordinate positive)
    of the v with max |v_i| <= bound and v^t gram v = m, in ascending
    order, zero first when m is 0; _closure writes the negatives.

    As in _definite_vectors, the walk runs over the coordinates reversed,
    x_i = v_{n-1-i}, and writes each x back as v = (x_{n-1}, ..., x_0), so
    its rule "last nonzero coordinate positive" is the canonical one and
    its level order, every level upwards, is lexicographic order of v.
    The multiples x_0 e_0 come first: g00 x_0^2 = m, x_0 >= 0.  The rest
    are walked over x_{n-1}..x_2 with the loop of _fp_enumerate, each
    level keeping the tail norm and part = gram x_tail cut to the
    coordinates not yet fixed; a level may go negative only when nz says
    a later coordinate is nonzero, and over a zero tail x_1 starts at 1.
    Levels 1 and 0 share one loop over x_1 that steps p = part_0 + g01 x_1
    and rest = m - (norm of x_1..x_{n-1}) by finite differences (drest)
    and solves g00 x_0^2 + 2 p x_0 = rest: x_0 = (-p +- isqrt(p^2 +
    g00 rest)) / g00, or rest / 2p when g00 = 0, or, when p and rest are
    both 0, every x_0 of the box.  The two roots are tried in the order
    that makes x_0 ascend: -r first when g00 > 0, r first when g00 < 0.
    When the head [[g00, g01], [g01, g11]] is definite, a = g00 g11 - g01^2
    > 0 bounds x_1 first.  With p = p_0 + g01 x_1 and rest = r_0 -
    2 p_1 x_1 - g11 x_1^2 (p_0, p_1 = part[2], r_0 = m - tail[2]), the
    discriminant is p^2 + g00 rest = -a x_1^2 + 2 b x_1 + c for
    b = g01 p_0 - g00 p_1 and c = p_0^2 + g00 r_0, so
    a (p^2 + g00 rest) = D - (a x_1 - b)^2 with D = b^2 + a c.  An x_0
    needs it >= 0, that is (a x_1 - b)^2 <= D (dd): no x_1 when D < 0, and
    otherwise, as a x_1 - b is an integer, |a x_1 - b| <= s = isqrt(D),
    i.e. ceil((b - s) / a) = -((s - b) // a) <= x_1 <= (b + s) // a.
    The x_1 loop runs over that interval cut to the box.
    """
    n = len(gram)
    if n == 0:
        return [()] if m == 0 else []
    gram = [row[::-1] for row in gram[::-1]]
    g00 = gram[0][0]
    zeros = (0,) * (n - 1)
    if not g00:
        hits = [(*zeros, x0) for x0 in range(bound + 1)] if m == 0 else []
    else:
        q, k = divmod(m, g00)
        r = isqrt(q) if q > 0 else 0
        hits = [(*zeros, r)] if not k and r * r == q and r <= bound else []
    if n == 1:
        return hits
    g01, g11 = gram[0][1], gram[1][1]
    sg = 1 if g00 > 0 else -1
    # a > 0: the head [[g00, g01], [g01, g11]] is definite
    a = g00 * g11 - g01 * g01
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
            hi = bound
            p, p1 = part[2]
            if a > 0:
                b = g01 * p - g00 * p1
                dd = b * b + a * (p * p + g00 * (m - tail[2]))
                if dd < 0:
                    hi = lo - 1
                else:
                    s = isqrt(dd)
                    lo = max(lo, -((s - b) // a))
                    hi = min(hi, (b + s) // a)
            p += g01 * lo
            rest = m - tail[2] - lo * (2 * p1 + g11 * lo)
            drest = -2 * p1 - g11 * (2 * lo + 1)
            xs = x[:1:-1]
            for x1 in range(lo, hi + 1):
                if g00:
                    disc = p * p + g00 * rest
                    if disc >= 0:
                        r = isqrt(disc)
                        if r * r == disc:
                            for y in (-sg * r, sg * r) if r else (0,):
                                x0, k = divmod(y - p, g00)
                                if not k and -bound <= x0 <= bound:
                                    hits.append((*xs, x1, x0))
                elif p:
                    if not rest % (2 * p):
                        x0 = rest // (2 * p)
                        if -bound <= x0 <= bound:
                            hits.append((*xs, x1, x0))
                elif not rest:
                    hits.extend((*xs, x1, x0) for x0 in range(-bound, bound + 1))
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


def _check_cells(n: int, bound: int) -> None:
    """Refuse a box |x_i| <= bound in rank n of more than _MAX_BOX_CELLS cells."""
    side = 2 * bound + 1
    cells = side ** n
    if cells > _MAX_BOX_CELLS:
        raise EnumerationOverflow(
            f"box of side {side} in rank {n} has {cells} cells "
            f"(limit {_MAX_BOX_CELLS}); lower the bound"
        )


def bounded_vectors_of_norm(L: Lattice, m: int, bound: int) -> EnumerationResult:
    """All vectors with max |coordinate| <= bound and norm m.

    Works for any lattice, definite or not; the result is flagged as
    box-limited (complete=False).  Raises EnumerationOverflow rather than
    attempting a scan with an astronomical cell count.
    """
    _check_norm(m)
    _check_bound(bound)
    _check_cells(L.rank, bound)
    found = _closure(_box_scan(L.gram, m, bound))
    return EnumerationResult(found, len(found), False)


def _box_radius(v: Vec) -> int:
    # the smallest coordinate box holding v
    return max(map(abs, v))


def _growing_boxes(L: Lattice, m: int, bound: int):
    """The representatives of norm m in the box |x_i| <= bound (first
    nonzero coordinate positive), smallest coordinate box first, then in
    canonical order, read from boxes of radius 1, 2, 4, ... and last bound.

    This is the box schedule of both witness searches.  The radius
    doubles, capped at bound, and the next box is read, through
    bounded_vectors_of_norm, only when the caller reads past the last one.
    Each box lists its representatives in canonical (lexicographic) order;
    those with a _box_radius above the previous radius, the ones no inner
    box held, are sorted by it, and the sort is stable (a doubling step
    such as (2, 4] holds more than one radius).  So the steps concatenate
    to the full box's representatives sorted by box, and a search that
    stops at its first hit returns the witness the full box would give,
    which stays the witness when the bound grows, for about the cost of
    the box that holds it: the inner boxes of a doubling schedule are a
    fixed share of the last one.  A search that reads to the end pays for
    the inner boxes on top of the full one: (2r + 1)^n cells for each
    inner radius r in rank n.  The cell cap is checked for bound itself,
    before the first box, so a bound whose box is too large raises
    EnumerationOverflow even when a smaller box holds a witness.
    """
    _check_cells(L.rank, bound)
    done = 0
    while done < bound:
        radius = min(2 * done or 1, bound)
        found = bounded_vectors_of_norm(L, m, radius)
        fresh = [v for v in found.vectors[: found.count // 2] if _box_radius(v) > done]
        yield from sorted(fresh, key=_box_radius)
        done = radius


def _witness_candidates(L: Lattice, m: int, bound: int):
    """(candidates, complete): the representatives of norm m (first
    nonzero coordinate positive), smallest coordinate box first, then in
    canonical order, and whether they are all of L's representatives of
    norm m.

    A definite L is enumerated completely by vectors_of_norm and its
    representatives, the first half of the canonical list, sorted by
    _box_radius (stably); a norm of the wrong sign has none.  Any other L
    is read from _growing_boxes up to bound, and complete is False.
    """
    try:
        found = vectors_of_norm(L, m)
    except SignMismatch:
        return (), True
    except NotDefinite:
        return _growing_boxes(L, m, bound), False
    return sorted(found.vectors[: found.count // 2], key=_box_radius), True
