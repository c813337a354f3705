"""Lattices, sublattice embeddings, and exact structural invariants.

A lattice is a free Z-module of finite rank with an integer Gram matrix;
vectors are coordinate tuples relative to the lattice's fixed basis.  There
is no global coordinate registry: a sublattice always carries its ambient
lattice explicitly, and its basis vectors are written in ambient
coordinates.

Lattice and SublatticeEmbedding are plain frozen records: make_lattice,
make_sublattice, standard_lattice and lattice_from_json_dict check outside
input, and every lattice and embedding derived here (induced lattices,
direct sums, complements, saturations) is valid by construction.
"""

from __future__ import annotations

from typing import NamedTuple

from . import intlinalg as la
from .errors import (
    DimensionMismatch,
    InvalidInputFile,
    NotEven,
    NotIntegral,
    NotSquare,
    NotSymmetric,
    RankDeficient,
    UnknownName,
)

Vec = la.Vec
Mat = la.Mat


def _ints(row) -> Vec:
    """row as a tuple of its own entries, each an int and not a bool: one
    C-level type test passes plain ints, any other row is read entry by entry."""
    v = tuple(row)
    if not set(map(type, v)) <= {int}:
        for x in v:
            if isinstance(x, bool) or not isinstance(x, int):
                raise NotIntegral(f"entry {x!r} is not an integer")
    return v


def check_vector(L: "Lattice", x) -> Vec:
    v = _ints(x)
    if len(v) != L.rank:
        raise DimensionMismatch(
            f"vector length {len(v)} does not match rank {L.rank}"
        )
    return v


class Lattice(NamedTuple):
    """Free Z-module with a symmetric integer Gram matrix.

    Evenness is not required here: quotient-surface Picard lattices are odd.
    Use is_even to test.
    """

    gram: Mat
    name: str | None = None

    @property
    def rank(self) -> int:
        return len(self.gram)


class SublatticeEmbedding(NamedTuple):
    """A sublattice given by independent basis vectors in ambient coordinates."""

    ambient: Lattice
    basis: tuple[Vec, ...]

    @property
    def rank(self) -> int:
        return len(self.basis)

    @property
    def matrix(self) -> Mat:
        """Basis vectors as the columns of an (ambient rank) x rank matrix."""
        return la.transpose(self.basis)

    def induced_gram(self) -> Mat:
        # B G B^t = B (B G)^t as G = G^t: the sparse basis is on the left twice
        return la.mat_mul(self.basis, la.transpose(la.mat_mul(self.basis, self.ambient.gram)))

    def induced_lattice(self) -> Lattice:
        return Lattice(self.induced_gram())

    def to_ambient(self, coords) -> Vec:
        """Map internal coordinates to ambient coordinates."""
        if len(coords) != self.rank:
            raise DimensionMismatch(
                f"expected {self.rank} internal coordinates, got {len(coords)}"
            )
        if not self.basis:
            return (0,) * self.ambient.rank
        return la.mat_vec(self.matrix, coords)

    def from_ambient(self, v) -> Vec | None:
        """Internal coordinates of an ambient vector, or None if not a member."""
        v = check_vector(self.ambient, v)
        if self.rank == 0:
            return () if not any(v) else None
        return la.solve_int(self.matrix, v)


def make_lattice(gram, name: str | None = None) -> Lattice:
    """Check outside input: a square, symmetric integer Gram matrix."""
    rows = tuple(map(_ints, gram))
    n = len(rows)
    for i, row in enumerate(rows):
        if len(row) != n:
            raise NotSquare(f"row {i} has length {len(row)}, expected {n}")
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                raise NotSymmetric(
                    f"gram[{i}][{j}] = {rows[i][j]} but gram[{j}][{i}] = {rows[j][i]}"
                )
    return Lattice(rows, name)


def make_sublattice(ambient: Lattice, basis) -> SublatticeEmbedding:
    """Check outside input: independent integer vectors of the ambient rank."""
    vecs = tuple(check_vector(ambient, v) for v in basis)
    if vecs and la.integer_rank(la.transpose(vecs)) != len(vecs):
        raise RankDeficient("basis vectors are linearly dependent")
    return SublatticeEmbedding(ambient, vecs)


def inner_product(L: Lattice, x, y) -> int:
    x = check_vector(L, x)
    y = check_vector(L, y)
    gy = la.mat_vec(L.gram, y)
    return sum(a * b for a, b in zip(x, gy))


def norm(L: Lattice, x) -> int:
    return inner_product(L, x, x)


def determinant(L: Lattice) -> int:
    """det G, exactly: the last leading minor of the one ldl elimination of
    the symmetric Gram matrix, read through la.bareiss_det."""
    return la.bareiss_det(L.gram)


def signature(L: Lattice) -> tuple[int, int, int]:
    """(positive squares, negative squares, radical rank), exactly."""
    return la.inertia(L.gram)


def is_even(L: Lattice) -> bool:
    return all(L.gram[i][i] % 2 == 0 for i in range(L.rank))


def _check_even(L: Lattice) -> None:
    """Raise NotEven naming the first odd diagonal entry, if any."""
    for i, row in enumerate(L.gram):
        if row[i] % 2:
            raise NotEven(f"diagonal entry gram[{i}][{i}] = {row[i]} is odd")


def is_hyperbolic(L: Lattice) -> bool:
    """Signature (1, rank-1, 0)."""
    return signature(L) == (1, L.rank - 1, 0)


def direct_sum(a: Lattice, b: Lattice) -> Lattice:
    na, nb = a.rank, b.rank
    rows = []
    for i in range(na):
        rows.append(tuple(a.gram[i]) + (0,) * nb)
    for i in range(nb):
        rows.append((0,) * na + tuple(b.gram[i]))
    return Lattice(tuple(rows))


def orthogonal_complement(k: SublatticeEmbedding) -> SublatticeEmbedding:
    """The primitive sublattice of everything pairing to zero with K.

    Always defined; the complement of a degenerate sublattice may intersect
    it.  The basis is the Hermite-reduced integer kernel of the pairing
    matrix, hence saturated.
    """
    L = k.ambient
    return SublatticeEmbedding(L, la.kernel(la.mat_mul(k.basis, L.gram), ncols=L.rank))


def saturate(k: SublatticeEmbedding) -> SublatticeEmbedding:
    """Smallest primitive sublattice containing K.

    Primitivity here is saturation: sat(K) = (K tensor Q) intersected with
    the ambient lattice.  The nonzero block of the column HNF of K's
    rank x n basis matrix is lower triangular, and column operations keep
    the gcd of the maximal minors, so the product of its diagonal pivots is
    that gcd: the index [sat(K) : K].  When every pivot is 1, K is already
    primitive and is returned unchanged; otherwise the basis is the double
    integer kernel below.
    """
    n = k.ambient.rank
    h, u = la.hnf_with_transform(k.basis, n)
    if all(h[i][i] == 1 for i in range(k.rank)):
        return k
    # the kernel of (kernel of B^t)^t is the saturation of B's span; the
    # inner kernel is read from U as la.kernel reads it
    rank = sum(1 for c in zip(*h) if any(c))
    left = tuple(zip(*u))[rank:]
    return SublatticeEmbedding(k.ambient, la.kernel(left, ncols=n))


# Fixed Gram matrices for the named lattices.  E8(-1) is given in the basis
# dual to the simple roots, i.e. the Gram matrix is the negated inverse of
# the E8 Cartan matrix.  In these coordinates a root's coordinates are its
# pairings with the simple roots, so all 240 roots live in the coordinate
# box of radius 2; the root basis itself would need a box of radius 6.
_E8_DUAL = (
    (4, 5, 7, 10, 8, 6, 4, 2),
    (5, 8, 10, 15, 12, 9, 6, 3),
    (7, 10, 14, 20, 16, 12, 8, 4),
    (10, 15, 20, 30, 24, 18, 12, 6),
    (8, 12, 16, 24, 20, 15, 10, 5),
    (6, 9, 12, 18, 15, 12, 8, 4),
    (4, 6, 8, 12, 10, 8, 6, 3),
    (2, 3, 4, 6, 5, 4, 3, 2),
)

# E8 Cartan matrix for the same node order; its columns are the simple
# roots written in the dual basis, which documents the basis change.
E8_CARTAN = (
    (2, 0, -1, 0, 0, 0, 0, 0),
    (0, 2, 0, -1, 0, 0, 0, 0),
    (-1, 0, 2, -1, 0, 0, 0, 0),
    (0, -1, -1, 2, -1, 0, 0, 0),
    (0, 0, 0, -1, 2, -1, 0, 0),
    (0, 0, 0, 0, -1, 2, -1, 0),
    (0, 0, 0, 0, 0, -1, 2, -1),
    (0, 0, 0, 0, 0, 0, -1, 2),
)

_U = ((0, 1), (1, 0))

# basis order (e, f, a0): e.e = -2, e.f = 2, e.a0 = 1, f.f = -2, f.a0 = 0,
# a0.a0 = -2 — the rank-3 hyperbolic 2-elementary lattice with
# (r, a, delta) = (3, 1, 1)
_S311 = ((-2, 2, 1), (2, -2, 0), (1, 0, -2))

# quotient surface Picard lattice, basis order (e, f, a0); odd, det 1
_PIC_Y = ((-1, 1, 1), (1, -1, 0), (1, 0, -4))

# Hirzebruch surface of degree 4, basis (fiber c, exceptional section s)
_PIC_F4 = ((0, 1), (1, -4))


def _e8m1() -> Lattice:
    return Lattice(tuple(tuple(-x for x in row) for row in _E8_DUAL), "E8(-1)")


def _lk3() -> Lattice:
    u = Lattice(_U)
    e8 = _e8m1()
    out = u
    for piece in (u, u, e8, e8):
        out = direct_sum(out, piece)
    return Lattice(out.gram, "LK3")


_STANDARD = {
    "U": lambda: Lattice(_U, "U"),
    "A1(-1)": lambda: Lattice(((-2,),), "A1(-1)"),
    "E8(-1)": _e8m1,
    "LK3": _lk3,
    "S311": lambda: Lattice(_S311, "S311"),
    "PicY": lambda: Lattice(_PIC_Y, "PicY"),
    "PicF4": lambda: Lattice(_PIC_F4, "PicF4"),
}


def standard_lattice(name: str) -> Lattice:
    """Named lattices with documented fixed bases.

    "U" hyperbolic plane (e, f); "A1(-1)" = <-2>; "E8(-1)" in the dual
    basis (see module source); "LK3" = U^3 + E8(-1)^2 blockwise;
    "S311" basis (e, f, a0); "PicY" basis (e, f, a0); "PicF4" basis (c, s).
    """
    try:
        build = _STANDARD[name]
    except KeyError:
        known = ", ".join(sorted(_STANDARD))
        raise UnknownName(f"unknown lattice {name!r}; known: {known}") from None
    return build()


def lattice_from_json_dict(data) -> Lattice:
    """Parse the documented lattice file format:
    {"name": optional string, "gram": [[int, ...], ...]}."""
    if not isinstance(data, dict) or "gram" not in data:
        raise InvalidInputFile('expected an object with a "gram" key')
    gram = data["gram"]
    if not isinstance(gram, list) or not all(isinstance(r, list) for r in gram):
        raise InvalidInputFile('"gram" must be a list of rows')
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise InvalidInputFile('"name" must be a string')
    return make_lattice(gram, name)
