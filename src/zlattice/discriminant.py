"""Discriminant groups, their quadratic forms, and 2-elementary invariants.

The discriminant group of a nondegenerate lattice L is L*/L.  Working in
the coordinates of L, L*/L is the cokernel of G: Z^n -> Z^n, so its
invariant factors come from the Smith normal form P G Q = D, and the same
transform gives its generators without a matrix inverse: column i of Q
divided by d_i is the dual vector G^{-1} P^{-1} e_i.  _glue_classes stores
a class as that integer column a_i mod d_i over d_i; every decision reads
these integers, the degeneracy scan's check det G != 0 and denominator
|det G| = prod d_i included.  Pairings: g = a/den is dual exactly when den
divides every entry of G a, and then q(g) = (a^t G a mod 2 den^2) / den^2.
Fraction appears only in the printed values: the generators of
discriminant_group and the form values in [0, 2) of discriminant_form_value.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from operator import add, mul
from typing import NamedTuple

from . import intlinalg as la
from .errors import (
    DegenerateLattice,
    EmbeddingMismatch,
    NotInDualLattice,
    NotTwoElementary,
)
from .lattices import Lattice, Vec, _check_even, determinant

QVec = tuple[Fraction, ...]


class DiscriminantGroup(NamedTuple):
    """L*/L with divisibility-ordered invariant factors (trivial 1s dropped).

    generators[i] is a coset representative of order invariant_factors[i],
    written as a rational vector in the lattice basis, reduced into [0,1)^n.
    """

    invariant_factors: tuple[int, ...]
    generators: tuple[QVec, ...]

    @property
    def order(self) -> int:
        return prod(self.invariant_factors)


def _glue_classes(L: Lattice) -> list[tuple[int, Vec]]:
    """[(d_i, a_i)] over the invariant factors d_i > 1 of L*/L: the class
    a_i / d_i generates the summand of order d_i.  a_i is column i of Q,
    P G Q = D, reduced mod d_i, since e_i of the cokernel pulls back to
    G^{-1} (column i of P^{-1}) = column i of Q D^{-1}.  Raises
    DegenerateLattice when det G = 0.
    """
    det = determinant(L)
    if det == 0:
        raise DegenerateLattice("discriminant group needs a nonzero determinant")
    if abs(det) == 1:
        # |L*/L| = |det|: a unimodular lattice has the trivial group
        return []
    d, q = la.snf_with_transforms(L.gram)
    return [(d[i][i], tuple(row[i] % d[i][i] for row in q))
            for i in range(L.rank) if d[i][i] > 1]


def discriminant_group(L: Lattice) -> DiscriminantGroup:
    classes = _glue_classes(L)
    gens = tuple(tuple(Fraction(x, d) for x in a) for d, a in classes)
    return DiscriminantGroup(tuple(d for d, _ in classes), gens)


def discriminant_form_value(L: Lattice, g) -> Fraction:
    """q(g) = g.g mod 2Z, represented in [0, 2).

    g is a rational coset representative; it must pair integrally with the
    lattice.  On an even lattice the value depends only on the coset of g.
    Its entries are ints (not bools) or Fractions; any other entry raises
    NotInDualLattice before any arithmetic.
    """
    v = list(g)
    for i, x in enumerate(v):
        if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
            raise NotInDualLattice(f"entry {i} is {x!r}, not an int or a Fraction")
    v = list(map(Fraction, v))
    if len(v) != L.rank:
        raise NotInDualLattice(
            f"vector length {len(v)} does not match rank {L.rank}"
        )
    den = lcm(*(x.denominator for x in v))
    a = tuple(x.numerator * (den // x.denominator) for x in v)
    ga = la.mat_vec(L.gram, a)
    for i, c in enumerate(ga):
        if c % den:
            raise NotInDualLattice(
                f"pairing with basis vector {i} is {Fraction(c, den)}, not an integer"
            )
    sq = den * den
    return Fraction(sum(map(mul, a, ga)) % (2 * sq), sq)


def _two_torsion_takes_one(L: Lattice, classes) -> bool:
    """Does some class a of L*/L with 2a = 0 have q(a) = 1 in Q/2Z?

    L must be even and classes = _glue_classes(L).  The 2-torsion is
    spanned by h_i = (d_i / 2)(a_i / d_i) = a_i / 2 over the even
    invariant factors d_i, and q(v/2) = v.v / 4 for every integer vector v
    with v/2 dual.  q mod 1 is additive there (2b(x, y) is an integer), so
    its kernel V0 has the basis {h_i : q(h_i) in Z} and h_i + h_j for one
    fixed j with q(h_j) not in Z.  On V0, q mod 2 is an F_2 quadratic form
    with polar form 2b; it takes the value 1 iff it does on a basis vector
    or its polar form does on a basis pair, i.e. iff the Gram matrix of the
    doubled basis has a diagonal entry 4 mod 8 or an off-diagonal entry
    2 mod 4.  That is O(k^2) pairings instead of 2^k classes.
    """
    basis, half = [], []
    for d, v in classes:
        if d % 2 == 0:
            if sum(map(mul, v, la.mat_vec(L.gram, v))) % 4:
                half.append(v)  # q(v/2) is 1/2 or 3/2
            else:
                basis.append(v)
    basis += [tuple(map(add, v, half[0])) for v in half[1:]]
    images = [la.mat_vec(L.gram, v) for v in basis]
    for i, v in enumerate(basis):
        if sum(map(mul, v, images[i])) % 8 == 4:
            return True
        if any(sum(map(mul, v, w)) % 4 == 2 for w in images[:i]):
            return True
    return False


def two_elementary_invariants(L: Lattice) -> tuple[int, int, int]:
    """(r, a, delta) for an even nondegenerate 2-elementary lattice.

    r is the rank, a the number of invariant factors (all must equal 2),
    and delta is 0 exactly when the discriminant quadratic form takes only
    integer values in Q/2Z.  Checking delta on the generators a/2 suffices:
    q(g+h) = q(g) + q(h) + 2b(g,h) mod 2Z, and 2b is integer-valued on a
    2-elementary group because twice any element lies in L.  q(a/2) =
    a.a / 4 mod 2Z is an integer exactly when 4 divides a.a.
    """
    _check_even(L)
    classes = _glue_classes(L)
    bad = next((d for d, _ in classes if d != 2), None)
    if bad is not None:
        raise NotTwoElementary(f"invariant factor {bad} is not 2")
    delta = int(any(sum(map(mul, v, la.mat_vec(L.gram, v))) % 4 for _, v in classes))
    return (L.rank, len(classes), delta)


def delta_via_involution(L: Lattice, sigma) -> int:
    """Parity invariant from an ambient involution: 0 if z.sigma(z) is even
    for every z, else 1.

    The map z -> z.sigma(z) mod 2 is Z/2-linear, since
    (z+w).sigma(z+w) - z.sigma(z) - w.sigma(w) = 2 z.sigma(w), so it is
    enough to evaluate on the basis vectors.
    """
    if sigma.ambient.gram != L.gram:
        raise EmbeddingMismatch("involution acts on a different lattice")
    # entry (i, i) of G sigma is row i of G against column i of sigma
    cols = zip(*sigma.matrix)
    return int(any(sum(map(mul, row, col)) % 2 for row, col in zip(L.gram, cols)))
