"""Turn generated inputs into timed zlattice calls and check every answer.

`prepare(workload, queries)` builds the zlattice objects a query needs (this
is part of set-up) and returns `Query` records.  `Query.call()` is the only
part that is timed; `Query.check(answer)` decides, without asking zlattice,
whether the answer is right and whether it is box-limited (`complete=False`,
"unknown" or "no-witness-within-bound").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import gen


@dataclass
class Query:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], tuple[bool, bool]]


def _tup(rows):
    return tuple(tuple(r) for r in rows)


def _vectors_ok(gram, vectors, norm, count, ortho=(), bound=None) -> bool:
    """`count` distinct vectors, each of the given norm, orthogonal to every
    vector in `ortho` and inside the coordinate box when `bound` is set."""
    if len(vectors) != count or len(set(vectors)) != count:
        return False
    rows = [gen.mat_vec(gram, o) for o in ortho]
    for v in vectors:
        if gen.quad(gram, v) != norm:
            return False
        if any(sum(r * x for r, x in zip(row, v)) for row in rows):
            return False
        if bound is not None and max(map(abs, v), default=0) > bound:
            return False
    return True


# --- enum -------------------------------------------------------------------------


def _enum(z, q) -> Query:
    gram = q["gram"]
    L = z.make_lattice(_tup(gram))
    exp = q["expect"]
    if q["call"] == "is_nondegenerate":
        model = z.make_picard_model(L, q["a0"], q["e"], q["f"])
        epf = [a + b for a, b in zip(q["e"], q["f"])]
        f = tuple(q["f"])

        def check(ans):
            verdict, wit = ans
            ok = (verdict == exp["verdict"] and f in wit and tuple(-c for c in f) in wit
                  and _vectors_ok(gram, wit, -2, exp["count"], ortho=(q["a0"], epf)))
            return ok, False

        return Query(q["name"], lambda: z.is_nondegenerate(model), check)

    norm = q["norm"]
    ortho = tuple(map(tuple, q.get("ortho", ())))

    def check(res):
        ok = res.complete and res.count == exp["count"] and _vectors_ok(
            gram, res.vectors, norm, exp["count"], ortho=ortho)
        return ok, not res.complete

    if q["call"] == "constrained_roots":
        return Query(q["name"], lambda: z.constrained_roots(L, ortho, norm), check)
    return Query(q["name"], lambda: z.vectors_of_norm(L, norm), check)


# --- structure ---------------------------------------------------------------------


def _structure(z, q) -> Query:
    L = z.make_lattice(_tup(q["gram"]))
    matrix = _tup(q["matrix"])
    s = z.make_sublattice(L, [tuple(v) for v in q["s_basis"]])
    exp = q["expect"]

    def call():
        psi = z.make_involution(L, matrix)
        fixed, anti = z.eigenlattices(psi)
        triple = z.two_elementary_invariants(fixed.induced_lattice())
        dg = z.discriminant_group(L)
        pds = z.period_domain_summary(psi, s)
        return fixed.rank, anti.rank, triple, dg, pds, z.delta_via_involution(L, psi)

    def check(ans):
        fixed_rank, anti_rank, triple, dg, pds, dv = ans
        ok = (list(triple) == exp["fixed_triple"]
              and fixed_rank == exp["fixed_triple"][0]
              and anti_rank == exp["anti_rank"]
              and list(dg.invariant_factors) == exp["disc_factors"]
              and dv == exp["delta_parity"]
              and (not exp["unimodular"] or dv == triple[2])
              and pds.rank_fixed == exp["fixed_triple"][0]
              and pds.rank_anti_s == exp["rank_anti_s"]
              and pds.fixed_hyperbolic == exp["fixed_hyperbolic"]
              and pds.anti_s_hyperbolic == exp["anti_s_hyperbolic"]
              and pds.dim_lambda_plus == exp["dim_lambda_plus"]
              and pds.dim_lambda_minus == exp["dim_lambda_minus"])
        return ok, False

    return Query(q["name"], call, check)


# --- scan ------------------------------------------------------------------------------


def degeneracy_check(result, witness) -> tuple[bool, bool]:
    """A scan with a known witness must report exactly it; one without may
    report no witness in any form ("no-witness-within-bound" is box-limited,
    an exact "no" would not be)."""
    if witness is not None:
        ok = (result.status == "degenerate" and list(result.delta) == witness["delta"]
              and list(result.delta1) == witness["delta1"]
              and list(result.delta2) == witness["delta2"])
        return ok, False
    ok = result.status != "degenerate" and result.delta is None
    return ok, result.status == "no-witness-within-bound"


def membership_check(gram, s_basis, d1, res, expect) -> tuple[bool, bool]:
    """"yes" must carry a valid norm -4 glue partner (the known one when
    given); a bounded search of an indefinite complement may answer
    "unknown"."""
    if res.status == "unknown":
        return expect["may_be_unknown"], True
    if res.status != expect["status"]:
        return False, False
    if res.status != "yes":
        return res.witness is None, False
    w = list(res.witness)
    ok = (gen.quad(gram, w) == -4
          and all(sum(r * x for r, x in zip(gen.mat_vec(gram, b), w)) == 0 for b in s_basis)
          and all((a + b) % 2 == 0 for a, b in zip(d1, w))
          and (expect["witness"] is None or w == expect["witness"]))
    return ok, False


def _scan(z, q) -> Query:
    gram = q["gram"]
    L = z.make_lattice(_tup(gram))
    exp = q["expect"]
    call = q["call"]
    if call == "model_degeneracy_scan":
        model = z.make_picard_model(L, q["a0"], q["e"], q["f"])
        return Query(q["name"], lambda: z.model_degeneracy_scan(model, q["bound"]),
                     lambda r: degeneracy_check(r, exp["witness"]))
    if call == "da_degeneracy_scan":
        s = z.make_sublattice(L, [tuple(v) for v in q["s_basis"]])
        return Query(q["name"], lambda: z.da_degeneracy_scan(L, s, q["bound"]),
                     lambda r: degeneracy_check(r, exp["witness"]))
    if call == "delta4_membership":
        s = z.make_sublattice(L, [tuple(v) for v in q["s_basis"]])
        d1 = tuple(q["d1"])
        return Query(q["name"], lambda: z.delta4_membership(L, s, d1, q["bound"]),
                     lambda r: membership_check(gram, q["s_basis"], d1, r, exp))
    bound, norm = q["bound"], q["norm"]

    def check(res):
        ok = _vectors_ok(gram, res.vectors, norm, exp["count"], bound=bound)
        return ok and res.count == exp["count"], not res.complete

    return Query(q["name"], lambda: z.bounded_vectors_of_norm(L, norm, bound), check)


_BUILDERS = {"enum": _enum, "structure": _structure, "scan": _scan}


def prepare(z, workload: str, queries: list[dict]) -> list[Query]:
    build = _BUILDERS[workload]
    return [build(z, q) for q in queries]
