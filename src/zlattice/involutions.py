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
The order in which candidates are tried, and the growing boxes they come
from, are roots' (_witness_candidates, _growing_boxes).
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
    NotInSublattice,
    NotInvolution,
    NotIsometry,
    SNotInAntiFixed,
    WrongNorm,
)
from .lattices import (
    Lattice,
    SublatticeEmbedding,
    Vec,
    _ints,
    check_vector,
    is_even,
    is_hyperbolic,
    lattice_from_json_dict,
    make_sublattice,
    norm,
    orthogonal_complement,
    saturate,
)
from .roots import _check_bound, _DataclassFields, _growing_boxes, _witness_candidates


class IntegralInvolution(NamedTuple):
    """A matrix psi with psi^2 = id and psi^t G psi = G, acting on columns.

    A plain frozen record, built by make_involution, which computes fixed
    and anti, the integer kernels of psi -+ id, once and checks the matrix
    on them: psi^2 = id exactly when their ranks sum to n, and given that,
    psi^t G psi = G exactly when F G A^t = 0 for their basis rows F and A.
    An integer kernel is saturated, so both are primitive; being derived,
    they take no part in equality, hashing or repr.
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


def make_involution(L: Lattice, m) -> IntegralInvolution:
    """Check outside input: an integer isometry of L squaring to the identity.

    Both checks read the integer kernels fixed and anti of psi -+ id,
    computed first and stored.  psi^2 = id exactly when their ranks sum
    to n: the two eigenspaces meet in 0, they span Q^n exactly when psi
    is diagonalizable with eigenvalues +-1, and an integer kernel's rank
    is the rational dimension.  Given that, psi^t G psi = G exactly when
    F G A^t = 0, F and A the basis rows of fixed and anti: for x = f + a,
    psi x = f - a, so x.y - psi x.psi y = 2 (f.a' + a.f').  Neither step
    needs G nondegenerate.  The pairing is A (F G)^t, the sparse bases on
    the left, as induced_gram takes them.  NotInvolution comes before
    NotIsometry; a refused matrix has paid for both kernels.
    """
    n = L.rank
    m = tuple(map(_ints, m))
    if len(m) != n or any(len(row) != n for row in m):
        raise DimensionMismatch(f"matrix is not {n} x {n}")
    eigen = []
    for sign in (-1, 1):
        shifted = [list(row) for row in m]
        for i, row in enumerate(shifted):
            row[i] += sign
        eigen.append(SublatticeEmbedding(L, la.kernel(shifted, ncols=n)))
    fixed, anti = eigen
    if fixed.rank + anti.rank != n:
        raise NotInvolution("matrix squared is not the identity")
    if any(map(any, la.mat_mul(anti.basis, la.transpose(la.mat_mul(fixed.basis, L.gram))))):
        raise NotIsometry("matrix does not preserve the Gram matrix")
    return IntegralInvolution(L, m, fixed, anti)


def eigenlattices(psi: IntegralInvolution) -> tuple[SublatticeEmbedding, SublatticeEmbedding]:
    """(fixed, anti): the +1 and -1 eigenlattices, both primitive, as
    stored on the involution when it was built."""
    return psi.fixed, psi.anti


def _images(psi: IntegralInvolution, s: SublatticeEmbedding) -> la.Mat:
    """B_S^t psi^t: row j is psi(b_j), the image of S's basis vector b_j.
    The sparse basis stands on the left."""
    if s.ambient.gram != psi.ambient.gram:
        raise EmbeddingMismatch("sublattice is embedded in a different lattice")
    return la.mat_mul(s.basis, la.transpose(psi.matrix))


def is_type(psi: IntegralInvolution, s: SublatticeEmbedding, theta: IntegralInvolution) -> bool:
    """Does psi stabilize S and restrict to theta on it?

    theta acts on S's induced lattice, in S's basis coordinates.  Returns
    False when psi does not stabilize S; raises EmbeddingMismatch when the
    pieces refer to different lattices in the first place.

    One identity decides it: B psi^t = theta^t B, B the basis rows b_j of
    S.  psi restricts to theta exactly when psi(b_j) = sum_i theta_ij b_i
    for every j, which is row j of that identity.  The right side lies in
    S, and the b_i are independent, so the identity fixes the restriction.
    If psi maps some b_j outside the integer span of S, no integer theta
    satisfies it; that includes a non-primitive S, where psi(b_j) lies in
    S (x) Q but not in S.
    """
    images = _images(psi, s)
    if theta.ambient.gram != s.induced_gram():
        raise EmbeddingMismatch(
            "restriction involution acts on a different lattice than S induces"
        )
    return images == la.mat_mul(la.transpose(theta.matrix), s.basis)


def involution_rank_sum_check(psi: IntegralInvolution) -> bool:
    """Sanity check of the eigenlattices' own invariants: their ranks sum
    to n, psi fixes the basis of fixed and negates that of anti (B psi^t =
    +-B, the sparse basis on the left, as _images takes it), and both are
    primitive, which saturate decides by returning its argument unchanged.
    Two Hermite reductions, one per eigenlattice.

    These give the integral split 2 e_j = (e_j + psi e_j) + (e_j - psi e_j)
    with each part in its eigenlattice.  fixed and anti lie in the +1 and
    -1 eigenspaces, which meet in 0, so ranks summing to n make them span
    the two eigenspaces over Q.  As psi^2 = id, e_j + psi e_j lies in the
    +1 eigenspace and in Z^n; a primitive fixed is (fixed (x) Q) meet Z^n,
    so it holds the vector; likewise anti holds e_j - psi e_j.

    make_involution refuses a matrix whose kernel ranks do not sum to n,
    which is exactly psi^2 != id, so the rank clause holds on every record
    it built; it still catches a record altered with _replace.
    """
    fixed, anti = psi.fixed, psi.anti
    if fixed.rank + anti.rank != psi.ambient.rank:
        return False
    return (_images(psi, fixed) == fixed.basis
            and _images(psi, anti) == tuple(tuple(-c for c in b) for b in anti.basis)
            and saturate(fixed) is fixed and saturate(anti) is anti)


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
    Each product takes a sparse basis on the left: _images holds the
    images of S's basis as rows, and B_S^t G A = (A^t (B_S^t G)^t)^t.
    """
    for b, img in zip(s.basis, _images(psi, s)):
        if img != tuple(-c for c in b):
            raise SNotInAntiFixed(
                f"basis vector {b} is not negated by the involution"
            )
    fixed, anti = psi.fixed, psi.anti
    gs = la.transpose(la.mat_mul(s.basis, s.ambient.gram))
    pairing = la.transpose(la.mat_mul(anti.basis, gs))
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
    "unknown"; witness is the partner vector in ambient coordinates.

    "no" is exact: the coset test fails, the complement is positive
    definite (a wrong sign), or a complete enumeration holds no partner.
    "unknown" comes only from a fruitless coordinate box on an indefinite
    complement.
    """

    status: str
    witness: Vec | None
    __dataclass_fields__ = _DataclassFields()


def _coset_vector(M: Lattice, x: Vec, bound: int) -> MembershipResult:
    """Does the coset x + 2M hold a vector of norm -4?  "yes" with the
    first such c in the order of roots._witness_candidates (smallest
    coordinate box first, then canonical order), in M's coordinates; "no";
    or "unknown".

    The one search for the norm -4 vectors of M: a definite M is
    enumerated completely (a positive definite one holds none), any other
    inside the coordinate box |c_i| <= bound, and a fruitless box answers
    "unknown".  The coset is negation-closed (-c = c - 2c), so only the
    representatives are tried.
    """
    candidates, complete = _witness_candidates(M, -4, bound)
    for c in candidates:
        if all((a - b) % 2 == 0 for a, b in zip(c, x)):
            return MembershipResult("yes", c)
    return MembershipResult("no" if complete else "unknown", None)


def delta4_membership(L: Lattice, s: SublatticeEmbedding, d1, bound: int) -> MembershipResult:
    """Does some delta2 in the orthogonal complement of S satisfy
    delta2^2 = -4 and (d1 + delta2)/2 in L?

    The coset test solves d1 = 2u + B^t y for u in L and y in the
    coordinates of the complement, whose basis rows B are saturated
    (orthogonal_complement); no solution answers "no".  Saturation makes
    B^t z lie in 2L exactly when z = 0 (mod 2), so d1 + B^t c lies in 2L
    exactly when c = y (mod 2), whichever solution y is found: the partners
    are the norm -4 vectors of the coset y + 2M, M the complement's own
    lattice, and _coset_vector looks for them.  Its witness is mapped to
    ambient coordinates, its sign normalized as canonical_order does.
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
    # columns: 2 e_j for u, then the complement's basis vectors for y
    stacked = tuple(tuple(2 * (i == j) for j in range(n)) + tuple(b[i] for b in comp.basis)
                    for i in range(n))
    sol = la.solve_int(stacked, d1)
    if sol is None:
        return MembershipResult("no", None)
    found = _coset_vector(comp.induced_lattice(), sol[n:], bound)
    if found.witness is None:
        return found
    w = comp.to_ambient(found.witness)
    return MembershipResult("yes", max(w, tuple(-x for x in w)))


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


def _split(bg: la.Mat, adj: la.Mat, den: int, delta: Vec) -> tuple[Vec, Vec] | None:
    """(y, z), y = B G delta and z the coordinates in sat of d1 = 2
    proj_S(delta) = B^t z, or None when d1 is not integral.

    B is the basis of sat, bg = B G, gs = B G B^t and adj = den gs^{-1}.
    proj_S(delta) = B^t gs^{-1} B G delta, so z = 2 gs^{-1} y = 2 adj y /
    den; sat is primitive, so d1 is integral exactly when z is.
    """
    y = la.mat_vec(bg, delta)
    scaled = la.mat_vec(adj, y)
    if any(2 * c % den for c in scaled):
        return None
    return y, tuple(2 * c // den for c in scaled)


def _box_search(L: Lattice, sat: SublatticeEmbedding, gs: la.Mat, den: int,
                bound: int) -> DegeneracyScanResult:
    """The coordinate-box search of da_degeneracy_scan, without the glue
    obstruction in front: "degenerate" or "no-witness-within-bound".  sat
    must be primitive and of rank > 0 (the glue obstruction answers rank
    0); gs is its Gram and den = |det gs|.

    Witnesses are negation-closed (-delta splits as -d1, -d2), so only the
    representatives are tried, in the order of roots._growing_boxes, even
    on a definite L; the first that splits is the witness.  Each is split
    in sat's own coordinates by _split.  With d1 = 2 proj_S(delta) = B^t z,
    delta.d1 = 2 proj_S(delta)^2 = d1^2/2, and d2 = 2 delta - d1 has d2^2 =
    4 delta^2 - d1^2 = -8 - d1^2; so d1^2 = d2^2 = -4 exactly when
    delta.d1 = (B G delta).z = y.z = -2.  adj is an integer matrix whose
    column i is the one integer solution of gs x = den e_i.
    """
    # adj is symmetric, so its columns serve as its rows
    adj = tuple(la.solve_int(gs, tuple(den * x for x in e)) for e in la.identity(len(gs)))
    bg = la.mat_mul(sat.basis, L.gram)
    for delta in _growing_boxes(L, -2, bound):
        split = _split(bg, adj, den, delta)
        if split and sum(map(mul, *split)) == -2:
            d1 = sat.to_ambient(split[1])
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
    coordinate positive) and splits each in sat's coordinates: the first
    hit is the witness minimizing (coordinate box, lexicographic), so the
    result is stable when bound grows.
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
