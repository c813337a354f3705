"""Value semantics of the eleven result and input records.

Each record is an immutable value with named fields: equal constructions
are equal and hash alike, changing a compared field breaks equality, repr
is fixed text, fields cannot be assigned, and keyword construction and
defaults work.  An IntegralInvolution compares, hashes and prints by
(ambient, matrix) alone; its eigenlattices are derived data.
"""

from fractions import Fraction

import pytest

from zlattice.discriminant import DiscriminantGroup
from zlattice.involutions import (
    DegeneracyScanResult,
    IntegralInvolution,
    MembershipResult,
    PeriodDomainSummary,
)
from zlattice.k3 import CheckItem, F4Class, PicardModel
from zlattice.lattices import Lattice, SublatticeEmbedding
from zlattice.roots import EnumerationResult

U = Lattice(gram=((0, 1), (1, 0)), name="U")
A1 = Lattice(gram=((2,),))
U_TEXT = "Lattice(gram=((0, 1), (1, 0)), name='U')"
S311 = Lattice(((-2, 2, 1), (2, -2, 0), (1, 0, -2)), "S311")
S311_TEXT = "Lattice(gram=((-2, 2, 1), (2, -2, 0), (1, 0, -2)), name='S311')"
SWAP = ((0, 1), (1, 0))

# (record, keyword fields, a different value for each compared field, repr)
CASES = [
    (Lattice, dict(gram=((0, 1), (1, 0)), name="U"),
     dict(gram=((2,),), name="H"),
     U_TEXT),
    (SublatticeEmbedding, dict(ambient=U, basis=((1, 1),)),
     dict(ambient=A1, basis=((1, -1),)),
     f"SublatticeEmbedding(ambient={U_TEXT}, basis=((1, 1),))"),
    (DiscriminantGroup,
     dict(invariant_factors=(2,), generators=((Fraction(1, 2),),)),
     dict(invariant_factors=(4,), generators=((Fraction(1, 4),),)),
     "DiscriminantGroup(invariant_factors=(2,), generators=((Fraction(1, 2),),))"),
    (EnumerationResult, dict(vectors=((1,), (-1,)), count=2, complete=True),
     dict(vectors=((1,), (0,)), count=3, complete=False),
     "EnumerationResult(vectors=((1,), (-1,)), count=2, complete=True)"),
    (IntegralInvolution,
     dict(ambient=U, matrix=SWAP, fixed=SublatticeEmbedding(U, ((1, 1),)),
          anti=SublatticeEmbedding(U, ((1, -1),))),
     dict(ambient=Lattice(U.gram), matrix=((1, 0), (0, 1))),
     f"IntegralInvolution(ambient={U_TEXT}, matrix=((0, 1), (1, 0)))"),
    (PeriodDomainSummary,
     dict(rank_fixed=10, rank_anti_s=9, fixed_hyperbolic=True, anti_s_hyperbolic=False,
          dim_lambda_plus=9, dim_lambda_minus=None),
     dict(rank_fixed=11, rank_anti_s=8, fixed_hyperbolic=False, anti_s_hyperbolic=True,
          dim_lambda_plus=None, dim_lambda_minus=7),
     "PeriodDomainSummary(rank_fixed=10, rank_anti_s=9, fixed_hyperbolic=True, "
     "anti_s_hyperbolic=False, dim_lambda_plus=9, dim_lambda_minus=None)"),
    (MembershipResult, dict(status="yes", witness=(1, 0, -1)),
     dict(status="unknown", witness=None),
     "MembershipResult(status='yes', witness=(1, 0, -1))"),
    (DegeneracyScanResult,
     dict(status="degenerate", delta=(1, 0), delta1=(2, 0), delta2=(0, 0)),
     dict(status="no-witness", delta=None, delta1=(0, 2), delta2=(2, 2)),
     "DegeneracyScanResult(status='degenerate', delta=(1, 0), delta1=(2, 0), "
     "delta2=(0, 0))"),
    (PicardModel, dict(lattice=S311, a0=(0, 0, 1), e=(1, 0, 0), f=(0, 1, 0)),
     dict(lattice=U, a0=(0, 0, -1), e=(-1, 0, 0), f=(0, -1, 0)),
     f"PicardModel(lattice={S311_TEXT}, a0=(0, 0, 1), e=(1, 0, 0), f=(0, 1, 0))"),
    (F4Class, dict(c_coeff=12, s_coeff=3), dict(c_coeff=-6, s_coeff=1),
     "F4Class(c_coeff=12, s_coeff=3)"),
    (CheckItem, dict(name="table", detail="c.c = 0", ok=True),
     dict(name="split", detail="s.s = -4", ok=False),
     "CheckItem(name='table', detail='c.c = 0', ok=True)"),
]

IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, fields, others, text", CASES, ids=IDS)
def test_equal_constructions_are_equal_and_hash_alike(cls, fields, others, text):
    a, b = cls(**fields), cls(**fields)
    assert a == b and not (a != b)
    assert hash(a) == hash(b)


@pytest.mark.parametrize("cls, fields, others, text", CASES, ids=IDS)
def test_changing_any_compared_field_breaks_equality(cls, fields, others, text):
    a = cls(**fields)
    for name, value in others.items():
        b = cls(**{**fields, name: value})
        assert a != b and not (a == b), name


@pytest.mark.parametrize("cls, fields, others, text", CASES, ids=IDS)
def test_repr_text(cls, fields, others, text):
    assert repr(cls(**fields)) == text


@pytest.mark.parametrize("cls, fields, others, text", CASES, ids=IDS)
def test_fields_cannot_be_assigned(cls, fields, others, text):
    a = cls(**fields)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        assert getattr(a, name) == fields[name]


@pytest.mark.parametrize("cls, fields, others, text", CASES, ids=IDS)
def test_keyword_and_positional_construction_agree(cls, fields, others, text):
    assert cls(**fields) == cls(*fields.values())


def test_lattice_name_defaults_to_none():
    assert Lattice(gram=((2,),)).name is None
    assert Lattice(((2,),)) == A1


def test_involution_ignores_its_derived_eigenlattices():
    fixed, anti = SublatticeEmbedding(U, ((1, 1),)), SublatticeEmbedding(U, ((1, -1),))
    a = IntegralInvolution(U, SWAP, fixed, anti)
    b = IntegralInvolution(U, SWAP, anti, fixed)
    assert a == b and not (a != b)
    assert hash(a) == hash(b) and repr(a) == repr(b)
    assert (a.fixed, a.anti) == (fixed, anti)


def test_properties_and_methods_survive():
    s = SublatticeEmbedding(U, ((1, 1), (1, -1)))
    assert s.rank == 2 and s.matrix == ((1, 1), (1, -1))
    assert s.induced_lattice() == Lattice(((2, 0), (0, -2)))
    assert U.rank == 2
    assert DiscriminantGroup((2, 6), ()).order == 12
    assert DiscriminantGroup((), ()).order == 1
    assert DegeneracyScanResult("degenerate", (1,), (2,), (0,)).status == "degenerate"
    assert DegeneracyScanResult("no-witness", None, None, None).status != "degenerate"
