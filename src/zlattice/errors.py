"""Exception hierarchy.

Every failure mode raised by this package derives from LatticeError, so
callers (and the command line driver) can tell domain errors from
programming errors with a single except clause.
"""


class LatticeError(Exception):
    """Base class for all lattice-domain failures."""


# construction and validation

class NotSquare(LatticeError):
    """Gram matrix is not square."""


class NotSymmetric(LatticeError):
    """Gram matrix is not symmetric."""


class NotIntegral(LatticeError):
    """Matrix or vector entry is not an integer."""


class DimensionMismatch(LatticeError):
    """Vector length does not match the lattice rank."""


class RankDeficient(LatticeError):
    """Supplied basis vectors are linearly dependent."""


class UnknownName(LatticeError):
    """No standard lattice with the requested name."""


class DegenerateSublattice(LatticeError):
    """Operation requires a nondegenerate induced Gram matrix."""


class NotInSublattice(LatticeError):
    """Vector does not lie in the stated sublattice."""


# discriminant forms

class DegenerateLattice(LatticeError):
    """Lattice has determinant zero where nondegeneracy is required."""


class NotInDualLattice(LatticeError):
    """Rational vector does not pair integrally with the lattice."""


class NotTwoElementary(LatticeError):
    """Discriminant group has an invariant factor other than 2."""


class NotEven(LatticeError):
    """A diagonal Gram entry is odd."""


# involutions

class NotInvolution(LatticeError):
    """Matrix does not square to the identity."""


class NotIsometry(LatticeError):
    """Matrix does not preserve the Gram matrix."""


class EmbeddingMismatch(LatticeError):
    """Sublattice or restriction data refers to a different lattice."""


class SNotInAntiFixed(LatticeError):
    """Marked sublattice is not pointwise negated by the involution."""


class WrongNorm(LatticeError):
    """Vector has the wrong self-intersection for the requested operation."""


# enumeration

class NotDefinite(LatticeError):
    """Lattice is not positive or negative definite."""


class SignMismatch(LatticeError):
    """Requested norm has the wrong sign for this definite lattice."""


class ComplementNotDefinite(LatticeError):
    """Orthogonal complement is degenerate or indefinite."""


class EnumerationOverflow(LatticeError):
    """Requested coordinate box is too large to scan, or a Fincke-Pohst
    search passed its node cap."""


# Picard models

class NotHyperbolic(LatticeError):
    """Signature is not (1, n-1, 0)."""


class WrongGramOnMarkedVectors(LatticeError):
    """Marked vectors do not realize the required intersection numbers."""


class RankExceeds20(LatticeError):
    """Picard lattice rank is too large for a K3 surface."""


# input files

class InvalidInputFile(LatticeError):
    """Input file is not valid JSON or violates the documented schema."""
