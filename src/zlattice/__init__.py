"""Exact-arithmetic toolkit for even integral lattices.

Everything here works over the integers (or exact rationals where duals are
involved): Gram-matrix lattices and sublattice embeddings, discriminant
groups with their quadratic forms, 2-elementary invariants
(r, a, delta), integral involutions and their period-domain data, exact
short-vector enumeration, and the nondegeneracy criterion for double points
on anticanonical models.  No floating point is used on any decision path.

`import zlattice` loads no submodule: each public name is looked up in its
submodule on first use, which imports that submodule (PEP 562).  The
submodule's own function, class or instance is then bound here, as
`from .roots import name` would bind it.  A replacement that a tracer or a
test put in the submodule is never bound here, so it cannot outlive its
removal: it is looked up again on every read.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names it exports; __all__ and the lookup both
# come from this one table
_EXPORTS = {
    "errors": (
        "LatticeError", "NotSquare", "NotSymmetric", "NotIntegral",
        "DimensionMismatch", "RankDeficient", "UnknownName",
        "DegenerateSublattice", "NotInSublattice", "DegenerateLattice",
        "NotInDualLattice", "NotTwoElementary", "NotEven", "NotInvolution",
        "NotIsometry", "EmbeddingMismatch", "SNotInAntiFixed", "WrongNorm",
        "NotDefinite", "SignMismatch", "ComplementNotDefinite",
        "EnumerationOverflow", "NotHyperbolic", "WrongGramOnMarkedVectors",
        "RankExceeds20", "InvalidInputFile",
    ),
    "lattices": (
        "Lattice", "SublatticeEmbedding", "make_lattice", "make_sublattice",
        "inner_product", "norm", "determinant", "signature", "is_even",
        "is_hyperbolic", "direct_sum", "orthogonal_complement", "saturate",
        "standard_lattice", "lattice_from_json_dict", "E8_CARTAN",
    ),
    "discriminant": (
        "DiscriminantGroup", "discriminant_group", "discriminant_form_value",
        "two_elementary_invariants", "delta_via_involution",
    ),
    "involutions": (
        "IntegralInvolution", "make_involution", "eigenlattices", "is_type",
        "involution_rank_sum_check", "PeriodDomainSummary",
        "period_domain_summary", "MembershipResult", "delta4_membership",
        "DegeneracyScanResult", "da_degeneracy_scan", "involution_from_json_dict",
    ),
    "roots": (
        "EnumerationResult", "canonical_order", "vectors_of_norm",
        "constrained_roots", "bounded_vectors_of_norm",
    ),
    "k3": (
        "PicardModel", "make_picard_model", "is_nondegenerate",
        "model_degeneracy_scan", "model_from_json_dict", "F4Class",
        "f4_intersection", "FIBER", "SECTION", "CANONICAL", "BRANCH_CURVE",
        "CheckItem", "f4_checks", "s311_selfcheck",
        "RECORDED_SYMMETRY_GROUP_311", "RECORDED_COVERING_DATA_311",
    ),
}

# public name -> full name of the submodule that defines it
_HOME = {name: f"{__name__}.{module}" for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    # a submodule by name, as if every one had been imported
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(home), name)
    # Bind the submodule's own object here, so later reads skip this hook:
    # it is defined there and wraps nothing.  A tracer's wrapper or a test's
    # stand-in fails one test or the other and is looked up on every read.
    if getattr(value, "__module__", None) == home and not hasattr(value, "__wrapped__"):
        globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
