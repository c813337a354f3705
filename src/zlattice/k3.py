"""The rank-3 hyperbolic setting and the double-point nondegeneracy criterion.

A Picard model is an even hyperbolic lattice together with three marked
vectors e, f, a0 realizing the fixed intersection table

        e.e = -2   e.f = 2   e.a0 = 1
                   f.f = -2  f.a0 = 0
                             a0.a0 = -2

so that u = span(a0, e+f) is a hyperbolic plane.  The criterion: the double
point of the branch curve is nondegenerate exactly when the only vectors of
square -2 orthogonal to u are +-f.  The companion divisor arithmetic lives
on the degree-4 rational ruled surface, whose Picard group is generated by
a fiber c and the exceptional section s.
"""

from __future__ import annotations

import sys
from typing import NamedTuple

from .errors import (
    InvalidInputFile,
    NotEven,
    NotHyperbolic,
    RankExceeds20,
    WrongGramOnMarkedVectors,
)
from .lattices import (
    Lattice,
    SublatticeEmbedding,
    Vec,
    check_vector,
    determinant,
    inner_product,
    is_even,
    lattice_from_json_dict,
    orthogonal_complement,
    signature,
    standard_lattice,
)
from .roots import constrained_roots

# The package: its names load their submodule on first read, so the
# degeneracy scan loads involutions, and k3-check, which needs none of it,
# does not.  A read is one dict lookup once the package has bound the name.
_package = sys.modules[__package__]

# Intersection table the marked vectors must realize, in the order
# (e, f, a0); it is the Gram matrix of the standard "S311" lattice.
MARKED_GRAM = ((-2, 2, 1), (2, -2, 0), (1, 0, -2))

# For the family with invariants (3,1,1) the group of isometries of S
# preserving the marked data and the fundamental chamber is trivial.  This
# is a recorded classification value; computing it would need the chamber
# geometry, which is out of scope here.
RECORDED_SYMMETRY_GROUP_311 = ("id",)

# Covering data of the minimal model, recorded from the classification and
# not computed here, so it is reported next to the self-check, not in it.
RECORDED_COVERING_DATA_311 = "branch class meets e once and f twice upstairs"


class PicardModel(NamedTuple):
    """Even hyperbolic lattice of rank <= 20 with marked vectors e, f, a0.

    A plain frozen record, checked by make_picard_model.  The marked Gram
    has det 2 and u's det -1, so both sublattices below are independent.
    """

    lattice: Lattice
    a0: Vec
    e: Vec
    f: Vec

    def marked_sublattice(self) -> SublatticeEmbedding:
        return SublatticeEmbedding(self.lattice, (self.e, self.f, self.a0))

    def u_sublattice(self) -> SublatticeEmbedding:
        epf = tuple(a + b for a, b in zip(self.e, self.f))
        return SublatticeEmbedding(self.lattice, (self.a0, epf))


def make_picard_model(N: Lattice, a0, e, f) -> PicardModel:
    """Check outside input: N even, hyperbolic, rank <= 20; (e, f, a0) on MARKED_GRAM."""
    a0, e, f = (check_vector(N, v) for v in (a0, e, f))
    if not is_even(N):
        odd = next(i for i in range(N.rank) if N.gram[i][i] % 2)
        raise NotEven(f"diagonal entry gram[{odd}][{odd}] is odd")
    sig = signature(N)
    if sig != (1, N.rank - 1, 0):
        raise NotHyperbolic(f"signature {sig} is not (1, {N.rank - 1}, 0)")
    marked = (e, f, a0)
    for i in range(3):
        for j in range(3):
            got = inner_product(N, marked[i], marked[j])
            if got != MARKED_GRAM[i][j]:
                names = ("e", "f", "a0")
                raise WrongGramOnMarkedVectors(
                    f"{names[i]}.{names[j]} = {got}, expected {MARKED_GRAM[i][j]}"
                )
    if N.rank > 20:
        raise RankExceeds20(f"rank {N.rank} exceeds 20")
    return PicardModel(N, a0, e, f)


def is_nondegenerate(model: PicardModel) -> tuple[bool, tuple[Vec, ...]]:
    """Decide the criterion: are +-f the only square -2 vectors orthogonal
    to u = span(a0, e+f)?

    Returns (verdict, witnesses); the witnesses are the complete list of
    such vectors in canonical order, so they always contain +-f and any
    extra entry certifies a degenerate configuration.
    """
    found = constrained_roots(model.lattice, model.u_sublattice().basis, -2)
    expected = {model.f, tuple(-c for c in model.f)}
    return set(found.vectors) == expected, found.vectors


def model_degeneracy_scan(model: PicardModel, bound: int) -> _package.DegeneracyScanResult:
    """Degeneracy scan over the marked rank-3 sublattice of the model.

    For any valid model this answers "no-witness", exactly and without a
    box: a witness would need a vector x in the marked sublattice with x/2
    in its dual and x.x = -4, and the discriminant form of the marked
    lattice takes the value 3/2 on its nontrivial coset, never -1.
    da_degeneracy_scan decides that glue obstruction before any search,
    so bound is only validated.
    """
    return _package.da_degeneracy_scan(model.lattice, model.marked_sublattice(), bound)


class F4Class(NamedTuple):
    """Divisor class x*c + y*s on the degree-4 ruled surface."""

    c_coeff: int
    s_coeff: int

    def __add__(self, other: "F4Class") -> "F4Class":
        return F4Class(self.c_coeff + other.c_coeff, self.s_coeff + other.s_coeff)

    def __rmul__(self, k: int) -> "F4Class":
        return F4Class(k * self.c_coeff, k * self.s_coeff)

    __mul__ = __rmul__  # else class * k would repeat the tuple


FIBER = F4Class(1, 0)
SECTION = F4Class(0, 1)
CANONICAL = F4Class(-6, -2)
# residual branch component: -2K - s, disjoint from the section
BRANCH_CURVE = F4Class(12, 3)


def f4_intersection(a: F4Class, b: F4Class) -> int:
    """Intersection pairing with c.c = 0, c.s = 1, s.s = -4."""
    return a.c_coeff * b.s_coeff + a.s_coeff * b.c_coeff - 4 * a.s_coeff * b.s_coeff


class CheckItem(NamedTuple):
    name: str
    detail: str
    ok: bool


def f4_checks() -> tuple[CheckItem, ...]:
    """Arithmetic of the anti-bicanonical curve on the degree-4 surface."""
    # cross-check the pairing against the fixed Gram of the standard
    # lattice in the same basis order (c, s)
    pic = standard_lattice("PicF4")
    table_ok = True
    for i, x in enumerate((FIBER, SECTION)):
        for j, y in enumerate((FIBER, SECTION)):
            if f4_intersection(x, y) != pic.gram[i][j]:
                table_ok = False
    anti_bi = -2 * CANONICAL
    split = BRANCH_CURVE + SECTION
    a_sq = f4_intersection(BRANCH_CURVE, BRANCH_CURVE)
    a_k = f4_intersection(BRANCH_CURVE, CANONICAL)
    pa = 1 + (a_sq + a_k) // 2
    return (
        CheckItem(
            "intersection table",
            "c.c = 0, c.s = 1, s.s = -4",
            table_ok and f4_intersection(SECTION, SECTION) == -4,
        ),
        CheckItem(
            "anti-bicanonical split",
            "(12c+3s) + s = 12c+4s = -2K",
            split == anti_bi == F4Class(12, 4),
        ),
        CheckItem(
            "section disjoint from branch curve",
            "s.(12c+3s) = 0",
            f4_intersection(SECTION, BRANCH_CURVE) == 0,
        ),
        CheckItem(
            "branch curve self-intersection",
            "(12c+3s)^2 = 36",
            a_sq == 36,
        ),
        CheckItem(
            "arithmetic genus",
            "p_a = 1 + (36 - 18)/2 = 10",
            a_k == -18 and pa == 10,
        ),
        CheckItem(
            "genus count",
            "10 = 9 + 1 (smooth genus plus one double point)",
            pa == 9 + 1,
        ),
    )


def s311_selfcheck() -> tuple[CheckItem, ...]:
    """Numerology of the standard rank-3 marked lattice."""
    from .discriminant import two_elementary_invariants

    S = standard_lattice("S311")
    model = make_picard_model(S, (0, 0, 1), (1, 0, 0), (0, 1, 0))
    u = model.u_sublattice()
    u_gram = u.induced_gram()
    u_lat = u.induced_lattice()
    comp = orthogonal_complement(u)
    nondeg, witnesses = is_nondegenerate(model)
    return (
        CheckItem(
            "invariants",
            "(r,a,delta) = (3,1,1)",
            two_elementary_invariants(S) == (3, 1, 1),
        ),
        CheckItem("signature", "(1, 2, 0)", signature(S) == (1, 2, 0)),
        CheckItem("determinant", "2", determinant(S) == 2),
        CheckItem(
            "hyperbolic pair",
            "u = span(a0, e+f) has Gram [[-2, 1], [1, 0]], det -1, even",
            u_gram == ((-2, 1), (1, 0))
            and determinant(u_lat) == -1
            and is_even(u_lat),
        ),
        CheckItem(
            "orthogonal complement",
            "complement of u is spanned by f with Gram [[-2]]",
            comp.basis == ((0, 1, 0),) and comp.induced_gram() == ((-2,),),
        ),
        CheckItem(
            "criterion on the minimal model",
            "roots orthogonal to u are exactly +f and -f",
            nondeg and witnesses == ((0, 1, 0), (0, -1, 0)),
        ),
    )


def model_from_json_dict(data) -> PicardModel:
    """Parse the documented model file format:
    {"gram": [[...]], "e": [...], "f": [...], "a0": [...]}."""
    if not isinstance(data, dict):
        raise InvalidInputFile("expected an object")
    missing = [k for k in ("gram", "e", "f", "a0") if k not in data]
    if missing:
        raise InvalidInputFile(f"missing keys: {', '.join(missing)}")
    L = lattice_from_json_dict({"gram": data["gram"], "name": data.get("name")})
    vecs = {}
    for key in ("e", "f", "a0"):
        v = data[key]
        if not isinstance(v, list):
            raise InvalidInputFile(f'"{key}" must be a list of integers')
        vecs[key] = tuple(v)
    return make_picard_model(L, vecs["a0"], vecs["e"], vecs["f"])
