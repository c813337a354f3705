"""Enumeration of lattice vectors with a prescribed self-intersection.

Definite lattices get a complete answer from Fincke-Pohst enumeration over
the exact LDL^t factorization of the Gram matrix (intlinalg.ldl), the same
single factorization that decides definiteness; indefinite lattices can
only be scanned inside an explicit coordinate box, and the result says so.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import floor

import numpy as np

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
)

# Box scans refuse to touch more cells than this; keeps a typo from eating
# the machine.  20 coordinates at bound 1 is already past it.
_MAX_BOX_CELLS = 200_000_000

# Elbow room below 2^63 for every intermediate of the int64 norm formula.
_INT64_SAFE = 2**62


@dataclass(frozen=True)
class EnumerationResult:
    """Canonically ordered vector list; complete=False marks a box-limited scan."""

    vectors: tuple[Vec, ...]
    count: int
    complete: bool


def canonical_order(vectors) -> tuple[Vec, ...]:
    """Deterministic order for a negation-closed vector set.

    Representatives (first nonzero coordinate positive) in ascending
    lexicographic order, then the zero vector if present, then the negated
    representatives in descending order.  Each representative precedes its
    negative, and reversing the list then negating every entry reproduces
    it exactly.
    """
    uniq = set(map(tuple, vectors))
    reps = sorted(v for v in uniq if any(v) and v[next(i for i, c in enumerate(v) if c)] > 0)
    out = list(reps)
    zero = next((v for v in uniq if not any(v)), None)
    if zero is not None:
        out.append(zero)
    out.extend(tuple(-c for c in v) for v in reversed(reps))
    return tuple(out)


def _make_result(vectors, complete: bool) -> EnumerationResult:
    ordered = canonical_order(vectors)
    return EnumerationResult(ordered, len(ordered), complete)


def _floor_c_plus_sqrt(c: Fraction, r: Fraction) -> int:
    # floor(c + sqrt(r)) for r >= 0, exactly; the candidate undershoots by
    # at most one, so the loop runs at most twice
    f = la.floor_sqrt(r) + floor(c)
    while True:
        d = f + 1 - c
        if d <= 0 or d * d <= r:
            f += 1
        else:
            return f


def _fp_enumerate(d, mu, target: int) -> list[Vec]:
    """All integer x with x^t G x = target, where G = mu diag(d) mu^t is
    positive definite (every d[i] > 0) and target > 0.

    x^t G x = sum_i d[i] * (x_i + sum_{j>i} mu[j][i] x_j)^2, so the
    coordinates are bounded one at a time from the last one down.
    """
    n = len(d)
    found: list[Vec] = []
    x = [0] * n

    def descend(i: int, rem: Fraction) -> None:
        if i < 0:
            if rem == 0:
                found.append(tuple(x))
            return
        c = sum(mu[j][i] * x[j] for j in range(i + 1, n)) if i < n - 1 else Fraction(0)
        r = rem / d[i]
        hi = _floor_c_plus_sqrt(-c, r)
        lo = -_floor_c_plus_sqrt(c, r)
        for xi in range(lo, hi + 1):
            x[i] = xi
            descend(i - 1, rem - d[i] * (xi + c) ** 2)
        x[i] = 0

    descend(n - 1, Fraction(target))
    return found


def vectors_of_norm(L: Lattice, m: int, use_lll: bool | None = None) -> EnumerationResult:
    """Complete list of vectors of self-intersection m in a definite lattice.

    One ldl of the Gram matrix gives the signature, the NotDefinite
    verdict, and the Fincke-Pohst data (negating a negative definite form
    only negates the pivots).  use_lll: None picks the default (reduce the
    Gram matrix first when the rank is at least 10; below that the
    reduction is not worth its cost); the reduced matrix is factored anew.
    """
    if L.rank == 0:
        return _make_result([], True)
    d, mu = la.ldl(L.gram)
    p, nneg, z = la.sign_counts(d)
    if z > 0 or (p > 0 and nneg > 0):
        raise NotDefinite(f"signature {(p, nneg, z)} is not definite")
    positive = p > 0
    if m == 0 or (m > 0) != positive:
        raise SignMismatch(
            f"norm {m} cannot occur in a {'positive' if positive else 'negative'} definite lattice"
        )
    if use_lll is None:
        use_lll = L.rank >= 10
    if use_lll:
        work = L.gram if positive else tuple(tuple(-x for x in row) for row in L.gram)
        work, trans = la.lll_reduce_gram(work)
        d, mu = la.ldl(work)
    else:
        trans = la.identity(L.rank)
        if not positive:
            d = [-x for x in d]
    sols = _fp_enumerate(d, mu, abs(m))
    vecs = [la.mat_vec(trans, s) for s in sols]
    return _make_result(vecs, True)


def constrained_roots(L: Lattice, ortho, m: int) -> EnumerationResult:
    """Vectors of norm m orthogonal to every vector in ortho.

    The vectors are enumerated inside the primitive orthogonal complement
    of span(ortho) (which must be definite) and reported in ambient
    coordinates.
    """
    ortho = [check_vector(L, o) for o in ortho]
    rows = [la.mat_vec(L.gram, o) for o in ortho]
    comp_basis = la.kernel(rows, ncols=L.rank) if rows else tuple(la.identity(L.rank))
    comp = SublatticeEmbedding(L, comp_basis)
    try:
        internal = vectors_of_norm(comp.induced_lattice(), m)
    except NotDefinite as exc:
        raise ComplementNotDefinite(f"complement: {exc}") from None
    except SignMismatch:
        # wrong-sign norm in a definite complement: simply no solutions
        return _make_result([], True)
    vecs = [comp.to_ambient(v) for v in internal.vectors]
    return _make_result(vecs, True)


def _box_scan_python(gram, m: int, bound: int) -> list[Vec]:
    n = len(gram)
    hits = []
    for cand in product(range(-bound, bound + 1), repeat=n):
        total = 0
        for i in range(n):
            ci = cand[i]
            if ci:
                row = gram[i]
                total += ci * sum(row[j] * cand[j] for j in range(n))
        if total == m:
            hits.append(tuple(cand))
    return hits


def _box_scan_numpy(gram, m: int, bound: int) -> list[Vec]:
    n = len(gram)
    g = np.array(gram, dtype=np.int64)
    side = 2 * bound + 1
    tail_total = side ** (n - 1)
    a00 = int(g[0, 0])
    bvec = g[0, 1:]
    gtail = g[1:, 1:]
    hits: list[Vec] = []
    chunk = max(1, 2_000_000 // n)
    for start in range(0, tail_total, chunk):
        stop = min(start + chunk, tail_total)
        idx = np.arange(start, stop, dtype=np.int64)
        digits = np.empty((stop - start, n - 1), dtype=np.int64)
        rem = idx
        for j in range(n - 2, -1, -1):
            digits[:, j] = rem % side
            rem = rem // side
        tail = digits - bound
        t1 = tail @ bvec if n > 1 else np.zeros(stop - start, dtype=np.int64)
        t2 = ((tail @ gtail) * tail).sum(axis=1) if n > 1 else np.zeros_like(t1)
        for x0 in range(-bound, bound + 1):
            vals = a00 * x0 * x0 + 2 * x0 * t1 + t2
            for row in np.nonzero(vals == m)[0]:
                hits.append((x0,) + tuple(int(c) for c in tail[row]))
    return hits


def bounded_vectors_of_norm(L: Lattice, m: int, bound: int) -> EnumerationResult:
    """All vectors with max |coordinate| <= bound and norm m.

    Works for any lattice, definite or not; the result is flagged as
    box-limited (complete=False).  Raises EnumerationOverflow rather than
    attempting a scan with an astronomical cell count.
    """
    if bound < 1:
        raise ValueError("bound must be a positive integer")
    n = L.rank
    if n == 0:
        return _make_result([()] if m == 0 else [], False)
    side = 2 * bound + 1
    cells = side ** n
    if cells > _MAX_BOX_CELLS:
        raise EnumerationOverflow(
            f"box of side {side} in rank {n} has {cells} cells "
            f"(limit {_MAX_BOX_CELLS}); lower the bound"
        )
    max_entry = max(abs(x) for row in L.gram for x in row) or 1
    if n * n * max_entry * bound * bound < _INT64_SAFE and abs(m) < _INT64_SAFE and n > 1:
        hits = _box_scan_numpy(L.gram, m, bound)
    else:
        hits = _box_scan_python(L.gram, m, bound)
    return _make_result(hits, False)
