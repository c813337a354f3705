"""Exact-arithmetic toolkit for even integral lattices.

Everything here works over the integers (or exact rationals where duals are
involved): Gram-matrix lattices and sublattice embeddings, discriminant
groups with their quadratic and bilinear forms, 2-elementary invariants
(r, a, delta), integral involutions and their period-domain data, exact
short-vector enumeration, and the nondegeneracy criterion for double points
on anticanonical models.  No floating point is used on any decision path.
"""

from .errors import (
    ComplementNotDefinite,
    DegenerateLattice,
    DegenerateSublattice,
    DimensionMismatch,
    EmbeddingMismatch,
    EnumerationOverflow,
    InvalidInputFile,
    LatticeError,
    NonIntegralImage,
    NotDefinite,
    NotEven,
    NotHyperbolic,
    NotInDualLattice,
    NotInSublattice,
    NotIntegral,
    NotInvolution,
    NotIsometry,
    NotSquare,
    NotSymmetric,
    NotTwoElementary,
    RankDeficient,
    RankExceeds20,
    SignMismatch,
    SNotInAntiFixed,
    UnknownName,
    WrongGramOnMarkedVectors,
    WrongNorm,
    ZeroNormVector,
)
from .lattices import (
    E8_CARTAN,
    Lattice,
    SublatticeEmbedding,
    determinant,
    direct_sum,
    inner_product,
    is_definite,
    is_even,
    is_hyperbolic,
    lattice_from_json_dict,
    make_lattice,
    make_sublattice,
    norm,
    orthogonal_complement,
    reflection,
    same_sublattice,
    saturate,
    saturation_index,
    signature,
    standard_lattice,
    sublattice_index_from_bases,
)
from .discriminant import (
    DiscriminantGroup,
    delta_via_involution,
    discriminant_bilinear_value,
    discriminant_form_value,
    discriminant_group,
    two_elementary_invariants,
)
from .involutions import (
    DegeneracyScanResult,
    IntegralInvolution,
    MembershipResult,
    PeriodDomainSummary,
    da_degeneracy_scan,
    delta4_membership,
    eigenlattices,
    involution_from_json_dict,
    involution_rank_sum_check,
    is_type,
    make_involution,
    period_domain_summary,
)
from .roots import (
    EnumerationResult,
    bounded_vectors_of_norm,
    canonical_order,
    constrained_roots,
    vectors_of_norm,
)
from .k3 import (
    BRANCH_CURVE,
    CANONICAL,
    CheckItem,
    F4Class,
    FIBER,
    PicardModel,
    RECORDED_COVERING_DATA_311,
    RECORDED_SYMMETRY_GROUP_311,
    SECTION,
    f4_checks,
    f4_intersection,
    is_nondegenerate,
    make_picard_model,
    model_degeneracy_scan,
    model_from_json_dict,
    s311_selfcheck,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "LatticeError", "NotSquare", "NotSymmetric", "NotIntegral",
    "DimensionMismatch", "RankDeficient", "UnknownName",
    "DegenerateSublattice", "NotInSublattice", "ZeroNormVector",
    "NonIntegralImage", "DegenerateLattice", "NotInDualLattice",
    "NotTwoElementary", "NotEven", "NotInvolution", "NotIsometry",
    "EmbeddingMismatch", "SNotInAntiFixed", "WrongNorm", "NotDefinite",
    "SignMismatch", "ComplementNotDefinite", "EnumerationOverflow",
    "NotHyperbolic", "WrongGramOnMarkedVectors", "RankExceeds20",
    "InvalidInputFile",
    # lattices
    "Lattice", "SublatticeEmbedding", "make_lattice", "make_sublattice",
    "inner_product", "norm", "determinant", "signature", "is_even",
    "is_definite", "is_hyperbolic", "direct_sum", "orthogonal_complement",
    "saturate", "sublattice_index_from_bases", "saturation_index",
    "same_sublattice", "reflection", "standard_lattice",
    "lattice_from_json_dict", "E8_CARTAN",
    # discriminant
    "DiscriminantGroup", "discriminant_group", "discriminant_form_value",
    "discriminant_bilinear_value", "two_elementary_invariants",
    "delta_via_involution",
    # involutions
    "IntegralInvolution", "make_involution", "eigenlattices", "is_type",
    "involution_rank_sum_check", "PeriodDomainSummary",
    "period_domain_summary", "MembershipResult", "delta4_membership",
    "DegeneracyScanResult", "da_degeneracy_scan", "involution_from_json_dict",
    # roots
    "EnumerationResult", "canonical_order", "vectors_of_norm",
    "constrained_roots", "bounded_vectors_of_norm",
    # k3
    "PicardModel", "make_picard_model", "is_nondegenerate",
    "model_degeneracy_scan", "model_from_json_dict", "F4Class",
    "f4_intersection", "FIBER", "SECTION", "CANONICAL", "BRANCH_CURVE",
    "CheckItem", "f4_checks", "s311_selfcheck",
    "RECORDED_SYMMETRY_GROUP_311", "RECORDED_COVERING_DATA_311",
]
