"""Integral involutions of a lattice and the searches built on them.

An integral involution is a Gram-preserving integer matrix squaring to the
identity.  Its two eigenlattices are primitive, mutually orthogonal, and of
full combined rank; the quotient of the lattice by their direct sum is an
elementary 2-group.  The involution value computes them once and every
fact below reads them from it.  On top of that sit the typed-restriction
check, the rank/hyperbolicity bookkeeping for period domains, and two
searches for norm -4 "glue partner" configurations.  Both decide an exact
obstruction first and search a coordinate box only when it passes; the
degeneracy scan reads S through one Smith read-out of its saturation.
"""

from __future__ import annotations

from math import prod
from operator import mul
from typing import NamedTuple

from . import intlinalg as la
from .discriminant import _glue_classes, _two_torsion_takes_one
from .errors import (
    DegenerateLattice,
    DegenerateSublattice,
    DimensionMismatch,
    EmbeddingMismatch,
    InvalidInputFile,
    NotDefinite,
    NotInSublattice,
    NotInvolution,
    NotIsometry,
    SignMismatch,
    SNotInAntiFixed,
    WrongNorm,
)
from .lattices import (
    Lattice,
    SublatticeEmbedding,
    Vec,
    _as_int,
    check_vector,
    is_even,
    is_hyperbolic,
    lattice_from_json_dict,
    make_sublattice,
    norm,
    orthogonal_complement,
    saturate,
)
from .roots import _check_bound, _DataclassFields, bounded_vectors_of_norm, vectors_of_norm


class IntegralInvolution(NamedTuple):
    """A matrix psi with psi^2 = id and psi^t G psi = G, acting on columns.

    A plain frozen record, built by make_involution, which checks the
    matrix and computes fixed and anti, the integer kernels of psi -+ id,
    once.  An integer kernel is saturated, so both are primitive; being
    derived, they take no part in equality, hashing or repr.
    """

    ambient: Lattice
    matrix: la.Mat
    fixed: SublatticeEmbedding
    anti: SublatticeEmbedding

    def __eq__(self, other):
        return isinstance(other, IntegralInvolution) and self[:2] == other[:2]

    def __ne__(self, other):
        # tuple's own != would compare all four fields
        return not self == other

    def __hash__(self):
        return hash(self[:2])

    def __repr__(self):
        return f"IntegralInvolution(ambient={self.ambient!r}, matrix={self.matrix!r})"

    def __call__(self, x) -> Vec:
        return la.mat_vec(self.matrix, check_vector(self.ambient, x))


def make_involution(L: Lattice, m) -> IntegralInvolution:
    """Check outside input: an integer isometry of L squaring to the identity.

    psi^2 = id is checked first.  Given it, psi^t G psi = G holds exactly
    when G psi is symmetric, so one product decides the isometry: (G psi)^t
    = psi^t G, and multiplying psi^t G psi = G on the right by psi = psi^-1
    turns it into psi^t G = G psi, and back.
    """
    n = L.rank
    m = tuple(tuple(map(_as_int, row)) for row in m)
    if len(m) != n or any(len(row) != n for row in m):
        raise DimensionMismatch(f"matrix is not {n} x {n}")
    if la.mat_mul(m, m) != la.identity(n):
        raise NotInvolution("matrix squared is not the identity")
    gm = la.mat_mul(L.gram, m)
    if gm != la.transpose(gm):
        raise NotIsometry("matrix does not preserve the Gram matrix")
    eigen = []  # fixed, then anti
    for sign in (-1, 1):
        shifted = [list(row) for row in m]
        for i, row in enumerate(shifted):
            row[i] += sign
        eigen.append(SublatticeEmbedding(L, la.kernel(shifted, ncols=n)))
    return IntegralInvolution(L, m, *eigen)


def eigenlattices(psi: IntegralInvolution) -> tuple[SublatticeEmbedding, SublatticeEmbedding]:
    """(fixed, anti): the +1 and -1 eigenlattices, both primitive, as
    stored on the involution when it was built."""
    return psi.fixed, psi.anti


def is_type(psi: IntegralInvolution, s: SublatticeEmbedding, theta: IntegralInvolution) -> bool:
    """Does psi stabilize S and restrict to theta on it?

    theta acts on S's induced lattice, in S's basis coordinates.  Returns
    False when psi does not stabilize S; raises EmbeddingMismatch when the
    pieces refer to different lattices in the first place.
    """
    if s.ambient.gram != psi.ambient.gram:
        raise EmbeddingMismatch("sublattice is embedded in a different lattice")
    if theta.ambient.gram != s.induced_gram():
        raise EmbeddingMismatch(
            "restriction involution acts on a different lattice than S induces"
        )
    cols = []
    for b in s.basis:
        coords = s.from_ambient(psi(b))
        if coords is None:
            return False
        cols.append(coords)
    restriction = la.transpose(cols)
    return restriction == theta.matrix


def involution_rank_sum_check(psi: IntegralInvolution) -> bool:
    """Sanity wrapper: eigenlattice ranks sum to the full rank and twice any
    basis vector splits integrally into its fixed and anti parts."""
    fixed, anti = psi.fixed, psi.anti
    if fixed.rank + anti.rank != psi.ambient.rank:
        return False
    # column j of psi is the image of e_j
    for j, img in enumerate(zip(*psi.matrix)):
        plus = tuple(c + (i == j) for i, c in enumerate(img))
        minus = tuple((i == j) - c for i, c in enumerate(img))
        if not fixed.contains(plus) or not anti.contains(minus):
            return False
    return True


class PeriodDomainSummary(NamedTuple):
    """Rank and hyperbolicity data of the two lattices that control the
    period domain factors; dims are rank - 1 when hyperbolic, else None."""

    rank_fixed: int
    rank_anti_s: int
    fixed_hyperbolic: bool
    anti_s_hyperbolic: bool
    dim_lambda_plus: int | None
    dim_lambda_minus: int | None


def period_domain_summary(psi: IntegralInvolution, s: SublatticeEmbedding) -> PeriodDomainSummary:
    """Ranks and hyperbolicity of the fixed lattice and of the anti-invariant
    part orthogonal to S.

    Requires psi to negate S pointwise (S inside the -1 eigenlattice).
    anti meets S-perp in A k over the integer kernel k of B_S^t G A, A the
    basis of anti: k is saturated and anti primitive, so the meet is too.
    """
    if s.ambient.gram != psi.ambient.gram:
        raise EmbeddingMismatch("sublattice is embedded in a different lattice")
    for b in s.basis:
        if psi(b) != tuple(-c for c in b):
            raise SNotInAntiFixed(
                f"basis vector {b} is not negated by the involution"
            )
    fixed, anti = psi.fixed, psi.anti
    pairing = la.mat_mul(la.mat_mul(s.basis, s.ambient.gram), anti.matrix)
    anti_s = SublatticeEmbedding(
        psi.ambient, la.mat_mul(la.kernel(pairing, ncols=anti.rank), anti.basis)
    )
    fixed_hyp = is_hyperbolic(fixed.induced_lattice())
    anti_hyp = is_hyperbolic(anti_s.induced_lattice())
    return PeriodDomainSummary(
        rank_fixed=fixed.rank,
        rank_anti_s=anti_s.rank,
        fixed_hyperbolic=fixed_hyp,
        anti_s_hyperbolic=anti_hyp,
        dim_lambda_plus=fixed.rank - 1 if fixed_hyp else None,
        dim_lambda_minus=anti_s.rank - 1 if anti_hyp else None,
    )


class MembershipResult(NamedTuple):
    """Outcome of a glue-partner search: status is "yes", "no", or
    "unknown"; witness is the partner vector in ambient coordinates."""

    status: str
    witness: Vec | None
    __dataclass_fields__ = _DataclassFields()


def _scan_key(v: Vec):
    # minimal coordinate box first, then the sign convention of
    # canonical_order (positive first nonzero preferred), then lexicographic;
    # a witness minimal for this order stays minimal when the box grows, and
    # is a representative when the witness set is negation-closed
    first = next((c for c in v if c), 0)
    return (max(map(abs, v), default=0), 0 if first > 0 else 1, v)


def delta4_membership(L: Lattice, s: SublatticeEmbedding, d1, bound: int) -> MembershipResult:
    """Does some delta2 in the orthogonal complement of S satisfy
    delta2^2 = -4 and (d1 + delta2)/2 in L?

    The coset obstruction (d1 must lie in 2L + S-perp) is decided exactly;
    if it passes, candidates are enumerated completely when the complement
    is definite, otherwise inside the coordinate box |internal coord| <=
    bound, and a fruitless bounded search answers "unknown".  The hits
    are negation-closed ((d1 - delta2)/2 = (d1 + delta2)/2 - delta2), so
    only the representatives, the first half of the canonical candidate
    list, are tried: in _scan_key order of their internal coordinates, and
    the first that glues is the witness, its sign normalized in ambient
    coordinates.
    """
    if s.ambient.gram != L.gram:
        raise EmbeddingMismatch("sublattice is embedded in a different lattice")
    d1 = check_vector(L, d1)
    if s.from_ambient(d1) is None:
        raise NotInSublattice("d1 does not lie in the marked sublattice")
    d1_norm = norm(L, d1)
    if d1_norm != -4:
        raise WrongNorm(f"d1 has square {d1_norm}, expected -4")
    _check_bound(bound)
    comp = orthogonal_complement(s)
    n = L.rank
    # coset test: d1 = 2u + c with u in L, c in the complement
    cols = tuple(
        tuple(2 * int(i == j) for j in range(n)) for i in range(n)
    )
    stacked = tuple(
        cols[i] + tuple(comp.basis[j][i] for j in range(comp.rank))
        for i in range(n)
    )
    if la.solve_int(stacked, d1) is None:
        return MembershipResult("no", None)
    inner = comp.induced_lattice()
    try:
        found = vectors_of_norm(inner, -4)
    except SignMismatch:
        return MembershipResult("no", None)
    except NotDefinite:
        found = bounded_vectors_of_norm(inner, -4, bound)
    for c in sorted(found.vectors[: found.count // 2], key=_scan_key):
        witness = comp.to_ambient(c)
        if all((a + b) % 2 == 0 for a, b in zip(d1, witness)):
            if next((x for x in witness if x), 0) < 0:
                witness = tuple(-x for x in witness)
            return MembershipResult("yes", witness)
    return MembershipResult("no" if found.complete else "unknown", None)


class DegeneracyScanResult(NamedTuple):
    """Outcome of the double-point degeneracy scan.

    status is one of:
      "degenerate": a witness was found; delta is the norm -2 vector and
        delta1, delta2 its doubled projections to the marked sublattice
        and its complement, each of norm -4, with
        delta = (delta1 + delta2) / 2;
      "no-witness": no witness exists anywhere, decided exactly from the
        discriminant forms (the glue obstruction of da_degeneracy_scan);
      "no-witness-within-bound": the obstruction does not apply and the
        coordinate box held no witness; larger boxes may.
    All coordinates are ambient.
    """

    status: str
    delta: Vec | None
    delta1: Vec | None
    delta2: Vec | None
    __dataclass_fields__ = _DataclassFields()


def _doubled_projector(sat: SublatticeEmbedding, gs: la.Mat, den: int) -> la.Mat:
    """P with 2 proj_S(v) = P v / den for every ambient vector v.

    S and its saturation sat span the same space; with B the basis rows of
    sat, gs = B G B^t nondegenerate and den = |det gs|, proj_S(v) = B^t
    gs^{-1} B G v, and adj = den gs^{-1} is an integer matrix whose column i
    is the one integer solution of gs x = den e_i.  So P = 2 B^t adj B G is
    integral, and 2 proj_S(v) is integral exactly when den divides every
    entry of P v.  sat has rank > 0: the glue obstruction answers rank 0.
    """
    # adj is symmetric, so its columns serve as its rows
    adj = tuple(la.solve_int(gs, tuple(den * x for x in e)) for e in la.identity(len(gs)))
    pair_rows = tuple(la.mat_vec(sat.ambient.gram, b) for b in sat.basis)
    p = la.mat_mul(sat.matrix, la.mat_mul(adj, pair_rows))
    return tuple(tuple(2 * c for c in row) for row in p)


def _glue_obstructed(sat: SublatticeEmbedding, gs: la.Mat, classes) -> bool:
    """Is a witness ruled out exactly?  sat, gs, classes: see da_degeneracy_scan.

    A witness delta has delta1 = 2 proj_S(delta) in sat, and delta1/2 pairs
    integrally with sat: it is a class a of A_sat with 2a = 0 and q(a) =
    -1 = 1 in Q/2Z, as delta2/2 is one of A_{S-perp}.  When either group
    has none, there is no witness.  q is defined mod 2Z only on an even
    lattice, so an odd side, and a degenerate S-perp, rule nothing out.
    """
    if is_even(Lattice(gs)) and not _two_torsion_takes_one(Lattice(gs), classes):
        return True
    perp = orthogonal_complement(sat).induced_lattice()
    try:
        return is_even(perp) and not _two_torsion_takes_one(perp, _glue_classes(perp))
    except DegenerateLattice:
        return False


def _box_search(L: Lattice, sat: SublatticeEmbedding, gs: la.Mat, den: int,
                bound: int) -> DegeneracyScanResult:
    """The coordinate-box search of da_degeneracy_scan, without the glue
    obstruction in front: "degenerate" or "no-witness-within-bound".

    Witnesses are negation-closed (-delta splits as -d1, -d2), so only the
    representatives, the first half of the canonical list (no zero vector
    at norm -2), are tried in _scan_key order; the first that splits is the
    witness.  With d1 = 2 proj_S(delta), delta.d1 = 2 proj_S(delta)^2 =
    d1^2/2, and d2 = 2 delta - d1 has d2^2 = 4 delta^2 - d1^2 = -8 - d1^2;
    so d1^2 = d2^2 = -4 exactly when delta.d1 = -2.
    """
    proj = _doubled_projector(sat, gs, den)
    found = bounded_vectors_of_norm(L, -2, bound)
    for delta in sorted(found.vectors[: found.count // 2], key=_scan_key):
        scaled = la.mat_vec(proj, delta)
        if any(c % den for c in scaled):
            continue
        d1 = tuple(c // den for c in scaled)
        if sum(map(mul, la.mat_vec(L.gram, delta), d1)) == -2:
            d2 = tuple(2 * a - b for a, b in zip(delta, d1))
            return DegeneracyScanResult("degenerate", delta, d1, d2)
    return DegeneracyScanResult("no-witness-within-bound", None, None, None)


def da_degeneracy_scan(L: Lattice, s: SublatticeEmbedding, bound: int) -> DegeneracyScanResult:
    """Decide, or search the box |coordinate| <= bound for, a vector delta
    of square -2 splitting as the half-sum of two norm -4 vectors, one in
    S and one in its orthogonal complement.

    Each step reads only the span of S, so the scan works on its
    saturation sat: one Gram gs and one Smith read-out _glue_classes find a
    degenerate S (det gs = 0 exactly when S's Gram is singular), decide the
    sat side of the glue obstruction (_glue_obstructed) and give den =
    |det gs|, the product of the invariant factors.  When the obstruction
    holds the answer is an exact "no-witness" and no box is built.
    Otherwise _box_search tries the box's representatives (first nonzero
    coordinate positive) in _scan_key order against one integer projector:
    the first hit is the witness minimizing (coordinate box, sign,
    lexicographic), so the result is stable when bound grows.
    """
    if s.ambient.gram != L.gram:
        raise EmbeddingMismatch("sublattice is embedded in a different lattice")
    sat = saturate(s)
    gs = sat.induced_gram()
    try:
        classes = _glue_classes(Lattice(gs))
    except DegenerateLattice:
        raise DegenerateSublattice("marked sublattice has degenerate Gram matrix") from None
    _check_bound(bound)
    if _glue_obstructed(sat, gs, classes):
        return DegeneracyScanResult("no-witness", None, None, None)
    return _box_search(L, sat, gs, prod(d for d, _ in classes), bound)


def involution_from_json_dict(data) -> tuple[IntegralInvolution, SublatticeEmbedding | None]:
    """Parse the documented involution file format:
    {"gram": [[...]], "matrix": [[...]], "s_basis": [[...], ...] optional}.

    Returns the involution and, when "s_basis" is present, the marked
    sublattice embedding."""
    if not isinstance(data, dict) or "gram" not in data or "matrix" not in data:
        raise InvalidInputFile('expected an object with "gram" and "matrix" keys')
    L = lattice_from_json_dict({"gram": data["gram"], "name": data.get("name")})
    matrix = data["matrix"]
    if not isinstance(matrix, list) or not all(isinstance(r, list) for r in matrix):
        raise InvalidInputFile('"matrix" must be a list of rows')
    psi = make_involution(L, matrix)
    s = None
    if "s_basis" in data:
        sb = data["s_basis"]
        if not isinstance(sb, list) or not all(isinstance(v, list) for v in sb):
            raise InvalidInputFile('"s_basis" must be a list of vectors')
        s = make_sublattice(L, [tuple(v) for v in sb])
    return psi, s
