"""Command-line driver.

Exit codes: 0 success; 2 malformed or invalid input file; 3 a precondition
failed or the result is too long to print; 4 unknown verb or bad flags.  All
diagnostics go to stderr with the prefix "error:".  A reader that closes
stdout early (`| head`) ends the run with 0 and no diagnostic.

Each verb has one executor, which computes every fact once and returns one
result document, and one text renderer, which reads only that document.
--json prints the document as sorted-key JSON; otherwise the rendered text
is printed, one fact per line.  Both are byte-deterministic.

The command line reads the library only through the package's public names:
a verb names its file parser (exit 2 territory) as one, and its executor
calls `_package.<name>`.  The package loads a name's submodule on first read
(PEP 562), so a verb loads only the modules it runs, and `zlattice._EXPORTS`
is the one table of which submodule defines which name.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import InvalidInputFile, LatticeError

# a read is one dict lookup once the package has bound the name
_package = sys.modules[__package__]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse calls sys.exit(2) on errors; route them to exit code 4 instead
    def error(self, message):
        raise _UsageError(message)


def _vector_list(text: str):
    vectors = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            raise argparse.ArgumentTypeError("empty vector in list")
        try:
            vectors.append(tuple(int(c) for c in part.split(",")))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"cannot parse vector {part!r}; expected comma-separated integers"
            ) from None
    return tuple(vectors)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError("bound must be a positive integer")
    return value


def _fmt_vec(v) -> str:
    return "(" + ", ".join(str(c) for c in v) + ")"


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _dim(d) -> str:
    return "undefined" if d is None else str(d)


def _load_json_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InvalidInputFile(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InvalidInputFile(f"{path}: not UTF-8 text ({exc})") from None
    except json.JSONDecodeError as exc:
        raise InvalidInputFile(f"{path}: not valid JSON ({exc})") from None
    except ValueError as exc:  # an int past sys.get_int_max_str_digits()
        raise InvalidInputFile(f"{path}: {exc}") from None
    except RecursionError:
        raise InvalidInputFile(f"{path}: JSON nested too deeply") from None


# --- per-verb executors (exit 3 territory) and text renderers ---


def _exec_invariants(args, L):
    doc = {
        "rank": L.rank,
        "determinant": _package.determinant(L),
        "signature": _package.signature(L),
        "even": _package.is_even(L),
    }
    try:
        doc["two_elementary"] = _package.two_elementary_invariants(L)
    except LatticeError:
        doc["two_elementary"] = None
    return doc


def _text_invariants(doc):
    triple = doc["two_elementary"]
    return [
        f"rank: {doc['rank']}",
        f"determinant: {doc['determinant']}",
        f"signature: {_fmt_vec(doc['signature'])}",
        f"even: {_yesno(doc['even'])}",
        "two-elementary: " + ("NOT-2-ELEMENTARY" if triple is None
                              else "(r,a,delta) = ({},{},{})".format(*triple)),
    ]


def _exec_discriminant(args, L):
    dg = _package.discriminant_group(L)
    return {
        "order": dg.order,
        "invariant_factors": dg.invariant_factors,
        "generators": [
            {"coords": [str(c) for c in g], "q": str(_package.discriminant_form_value(L, g))}
            for g in dg.generators
        ],
    }


def _text_discriminant(doc):
    lines = [f"order: {doc['order']}",
             f"invariant-factors: {_fmt_vec(doc['invariant_factors'])}"]
    for i, g in enumerate(doc["generators"], start=1):
        lines.append(f"generator {i}: {_fmt_vec(g['coords'])}  q = {g['q']}")
    return lines


def _exec_roots(args, L):
    if args.bound is not None:
        result = _package.bounded_vectors_of_norm(L, args.norm, args.bound)
    elif args.ortho is not None:
        result = _package.constrained_roots(L, args.ortho, args.norm)
    else:
        result = _package.vectors_of_norm(L, args.norm)
    return result._asdict()


def _text_roots(doc):
    return [f"count: {doc['count']}", f"complete: {_yesno(doc['complete'])}",
            *map(_fmt_vec, doc["vectors"])]


def _exec_involution(args, loaded):
    psi, s = loaded
    if args.s_basis is not None:
        s = _package.make_sublattice(psi.ambient, args.s_basis)
    pd = _package.period_domain_summary(psi, s) if s is not None else None
    fixed, anti = _package.eigenlattices(psi)
    doc = {
        "rank": psi.ambient.rank,
        "fixed_rank": fixed.rank,
        "fixed_hyperbolic": (_package.is_hyperbolic(fixed.induced_lattice()) if pd is None
                             else pd.fixed_hyperbolic),
        "anti_rank": anti.rank,
        "anti_hyperbolic": _package.is_hyperbolic(anti.induced_lattice()),
        "rank_sum_check": _package.involution_rank_sum_check(psi),
    }
    if pd is not None:
        doc["period_domain"] = pd._asdict()
    return doc


def _text_involution(doc):
    lines = [
        f"rank: {doc['rank']}",
        f"fixed-rank: {doc['fixed_rank']}",
        f"fixed-hyperbolic: {_yesno(doc['fixed_hyperbolic'])}",
        f"anti-rank: {doc['anti_rank']}",
        f"anti-hyperbolic: {_yesno(doc['anti_hyperbolic'])}",
        f"rank-sum-check: {'pass' if doc['rank_sum_check'] else 'fail'}",
    ]
    pd = doc.get("period_domain")
    if pd is not None:
        lines += [
            f"anti-s-rank: {pd['rank_anti_s']}",
            f"anti-s-hyperbolic: {_yesno(pd['anti_s_hyperbolic'])}",
            f"lambda-plus-dim: {_dim(pd['dim_lambda_plus'])}",
            f"lambda-minus-dim: {_dim(pd['dim_lambda_minus'])}",
        ]
    return lines


def _exec_k3_check(args, model):
    ok, witnesses = _package.is_nondegenerate(model)
    names = {model.f: "+f", tuple(-c for c in model.f): "-f"}
    return {
        "nondegenerate": ok,
        "verdict": "NONDEGENERATE" if ok else "DEGENERATE-POSSIBLE",
        "witnesses": witnesses,
        "labels": [names.get(w) or _fmt_vec(w) for w in witnesses],
    }


def _text_k3_check(doc):
    return [f"{doc['verdict']}; witnesses: {', '.join(doc['labels'])}"]


def _exec_da_scan(args, model):
    if args.s_basis is not None:
        s = _package.make_sublattice(model.lattice, args.s_basis)
        result = _package.da_degeneracy_scan(model.lattice, s, args.bound)
    else:
        result = _package.model_degeneracy_scan(model, args.bound)
    return result._asdict()


def _text_da_scan(doc):
    if doc["status"] != "degenerate":
        return [doc["status"].upper()]
    return ["DEGENERATE"] + [f"{k}: {_fmt_vec(doc[k])}" for k in ("delta", "delta1", "delta2")]


def _exec_demo(args, _):
    checks = [item._asdict() for item in _package.s311_selfcheck() + _package.f4_checks()]
    return {"checks": checks, "all_ok": all(c["ok"] for c in checks),
            "recorded_covering_data": _package.RECORDED_COVERING_DATA_311}


def _text_demo(doc):
    lines = [f"{c['name']}: {c['detail']}{'' if c['ok'] else ' [FAILED]'}"
             for c in doc["checks"]]
    return lines + [f"recorded covering data (not computed): {doc['recorded_covering_data']}",
                    f"all-ok: {_yesno(doc['all_ok'])}"]


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="zlattice",
        description="Exact computations on even integral lattices.",
    )
    sub = parser.add_subparsers(dest="verb", required=True, parser_class=_Parser)

    def add(name, help_text, parse, execute, render):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        if parse is not None:
            p.add_argument("file")
        p.set_defaults(parse=parse, execute=execute, render=render)
        return p

    add("invariants", "rank, determinant, signature, parity data of a lattice file",
        "lattice_from_json_dict", _exec_invariants, _text_invariants)

    add("discriminant", "invariant factors and quadratic form values of the discriminant group",
        "lattice_from_json_dict", _exec_discriminant, _text_discriminant)

    p = add("roots", "enumerate vectors of a given norm",
            "lattice_from_json_dict", _exec_roots, _text_roots)
    p.add_argument("--norm", type=int, required=True, help="target self-intersection")
    exclusive = p.add_mutually_exclusive_group()
    exclusive.add_argument("--ortho", type=_vector_list, default=None, metavar="V;V;...",
                           help="restrict to the orthogonal complement of these vectors")
    exclusive.add_argument("--bound", type=_positive_int, default=None,
                           help="scan a coordinate box instead of exact enumeration")

    p = add("involution", "eigenlattice data of an involution file",
            "involution_from_json_dict", _exec_involution, _text_involution)
    p.add_argument("--s-basis", type=_vector_list, default=None, metavar="V;V;...",
                   help="marked sublattice basis for the period-domain summary "
                        "(overrides the file's s_basis)")

    add("k3-check", "decide double-point nondegeneracy for a Picard model file",
        "model_from_json_dict", _exec_k3_check, _text_k3_check)

    p = add("da-scan", "search for a degeneracy witness in a Picard model file: an exact "
                       "answer when the glue obstruction applies, box-bounded otherwise",
            "model_from_json_dict", _exec_da_scan, _text_da_scan)
    p.add_argument("--bound", type=_positive_int, required=True,
                   help="max |coordinate| of scanned vectors")
    p.add_argument("--s-basis", type=_vector_list, default=None, metavar="V;V;...",
                   help="scan over this sublattice instead of the marked one")

    p = add("demo", "run the built-in consistency report", None, _exec_demo, _text_demo)
    p.add_argument("target", choices=["s311"])

    return parser


def _error(exc: Exception, code: int) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


def run(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        return _error(exc, 4)
    try:
        loaded = getattr(_package, args.parse)(_load_json_file(args.file)) if args.parse else None
    except LatticeError as exc:
        return _error(exc, 2)
    try:
        doc = args.execute(args, loaded)
    except LatticeError as exc:
        return _error(exc, 3)
    try:
        out = (json.dumps(doc, indent=2, sort_keys=True) if args.json
               else "\n".join(args.render(doc)))
    except ValueError as exc:  # an int past sys.get_int_max_str_digits()
        return _error(f"result too large to print: {exc}", 3)
    try:
        print(out)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull, so that the flush at
        # interpreter exit has nowhere to fail, and end quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))
