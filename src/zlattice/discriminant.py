"""Discriminant groups, their quadratic forms, and 2-elementary invariants.

The discriminant group of a nondegenerate lattice L is L*/L.  Working in
the coordinates of L, L*/L is the cokernel of G: Z^n -> Z^n, so its
invariant factors come from the Smith normal form P G Q = D, and the same
transform gives its generators without a matrix inverse: column i of Q
divided by d_i is the dual vector G^{-1} P^{-1} e_i.  Values of the
discriminant quadratic form live in Q/2Z and are represented canonically
in [0, 2).  Pairings run on integers: g = a/den is dual exactly when den
divides every entry of G a, and then q(g) = (a^t G a mod 2 den^2) / den^2.
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
    NotEven,
    NotInDualLattice,
    NotTwoElementary,
)
from .lattices import Lattice, determinant, is_even

QVec = tuple[Fraction, ...]


class DiscriminantGroup(NamedTuple):
    """L*/L with divisibility-ordered invariant factors (trivial 1s dropped).

    generators[i] is a coset representative of order invariant_factors[i],
    written as a rational vector in the lattice basis, reduced into [0,1)^n.
    """

    invariant_factors: tuple[int, ...]
    generators: tuple[QVec, ...]
    lattice: Lattice

    @property
    def order(self) -> int:
        return prod(self.invariant_factors)


def discriminant_group(L: Lattice) -> DiscriminantGroup:
    det = determinant(L)
    if det == 0:
        raise DegenerateLattice("discriminant group needs a nonzero determinant")
    if abs(det) == 1:
        # |L*/L| = |det|: a unimodular lattice has the trivial group
        return DiscriminantGroup((), (), L)
    n = L.rank
    d, q = la.snf_with_transforms(L.gram)
    factors = []
    gens = []
    for i in range(n):
        di = d[i][i]
        if di == 1:
            continue
        # cokernel generator e_i pulls back to the dual vector
        # G^{-1} (column i of P^{-1}) = column i of Q D^{-1}, since
        # P G Q = D; reduce mod Z^n for a canonical rep
        gens.append(tuple(Fraction(q[r][i] % di, di) for r in range(n)))
        factors.append(di)
    return DiscriminantGroup(tuple(factors), tuple(gens), L)


def _dual_pairing(L: Lattice, g) -> tuple[la.Vec, int, la.Vec]:
    """(a, den, G a) with g = a / den for an integer vector a; raises
    NotInDualLattice unless den divides every entry of G a."""
    v = [Fraction(x) for x in g]
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
    return a, den, ga


def discriminant_form_value(L: Lattice, g) -> Fraction:
    """q(g) = g.g mod 2Z, represented in [0, 2).

    g is a rational coset representative; it must pair integrally with the
    lattice.  On an even lattice the value depends only on the coset of g.
    """
    a, den, ga = _dual_pairing(L, g)
    sq = den * den
    return Fraction(sum(map(mul, a, ga)) % (2 * sq), sq)


def discriminant_bilinear_value(L: Lattice, g, h) -> Fraction:
    """b(g, h) = g.h mod Z, represented in [0, 1)."""
    a, da, _ = _dual_pairing(L, g)
    _, db, gb = _dual_pairing(L, h)
    return Fraction(sum(map(mul, a, gb)) % (da * db), da * db)


def _two_torsion_takes_one(L: Lattice) -> bool:
    """Does some class a of L*/L with 2a = 0 have q(a) = 1 in Q/2Z?

    L must be even and nondegenerate.  The 2-torsion is spanned by
    h_i = v_i / 2 with v_i = d_i g_i for the even invariant factors d_i,
    and q(v/2) = v.v / 4 for every integer vector v with v/2 dual.  q mod
    1 is additive there (2b(x, y) is an integer), so its kernel V0 has the
    basis {h_i : q(h_i) in Z} and h_i + h_j for one fixed j with q(h_j)
    not in Z.  On V0, q mod 2 is an F_2 quadratic form with polar form
    2b; it takes the value 1 iff it does on a basis vector or its polar
    form does on a basis pair, i.e. iff the Gram matrix of the doubled
    basis has a diagonal entry 4 mod 8 or an off-diagonal entry 2 mod 4.
    That is O(k^2) pairings instead of 2^k classes.
    """
    dg = discriminant_group(L)
    basis, half = [], []
    for d, g in zip(dg.invariant_factors, dg.generators):
        if d % 2 == 0:
            v = tuple(int(x * d) for x in g)
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
    integer values in Q/2Z.  Checking delta on the generators suffices:
    q(g+h) = q(g) + q(h) + 2b(g,h) mod 2Z, and 2b is integer-valued on a
    2-elementary group because twice any element lies in L.
    """
    if not is_even(L):
        odd = next(i for i in range(L.rank) if L.gram[i][i] % 2)
        raise NotEven(f"diagonal entry gram[{odd}][{odd}] = {L.gram[odd][odd]} is odd")
    dg = discriminant_group(L)
    bad = next((f for f in dg.invariant_factors if f != 2), None)
    if bad is not None:
        raise NotTwoElementary(f"invariant factor {bad} is not 2")
    a = len(dg.invariant_factors)
    delta = 0
    for g in dg.generators:
        if discriminant_form_value(L, g).denominator != 1:
            delta = 1
            break
    return (L.rank, a, delta)


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
