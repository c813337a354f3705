"""In-memory spans around zlattice's public functions, installed from outside.

Every binding of a traced function is replaced, including names pulled in
with `from .roots import ...` by other modules and the package-level
re-exports, so each call is seen whatever name it goes through.  Per-node
helpers (floor_sqrt, inner_product, norm, mat_mul, ...) are left alone:
wrapping them would cost more than the work they do.

A span is [name, start, end, parent index]; the harness opens one root span
per query, so the spans of one query share that root.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from pathlib import Path

TRACED = {
    "intlinalg": ("inertia", "lll_reduce_gram", "hnf_with_transform", "snf_with_transforms",
                  "bareiss_det", "rational_inverse", "solve_int", "kernel"),
    "lattices": ("make_lattice", "make_sublattice", "signature", "determinant",
                 "orthogonal_complement"),
    "discriminant": ("discriminant_group", "two_elementary_invariants", "delta_via_involution"),
    "involutions": ("make_involution", "eigenlattices", "period_domain_summary",
                    "da_degeneracy_scan", "delta4_membership"),
    "roots": ("vectors_of_norm", "canonical_order", "constrained_roots",
              "bounded_vectors_of_norm"),
    "k3": ("make_picard_model", "is_nondegenerate", "model_degeneracy_scan"),
    "cli": ("run",),
}

# Counters derived at the traced boundaries (names as reported).
COUNTERS = ("roots.vectors_returned", "roots.box_cells", "roots.box_hits",
            "roots.overflow.count", "involutions.witnesses", "involutions.candidates")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str) -> list:
        rec = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self.stack.pop()

    def install(self) -> None:
        from zlattice.errors import EnumerationOverflow

        for modname in TRACED:
            importlib.import_module(f"zlattice.{modname}")
        modules = [m for name, m in sys.modules.items()
                   if name == "zlattice" or name.startswith("zlattice.")]
        for modname, funcs in TRACED.items():
            module = sys.modules[f"zlattice.{modname}"]
            for fname in funcs:
                orig = getattr(module, fname)
                wrapped = self._wrap(f"{modname}.{fname}", orig, EnumerationOverflow)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapped)
                            self._patched.append((m, attr, orig))

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._patched):
            setattr(module, attr, orig)
        self._patched.clear()

    def _wrap(self, name, fn, overflow_exc):
        counters = self.counters
        open_, close = self.open, self.close
        post = _POST.get(name)
        watch = name in ("involutions.da_degeneracy_scan", "involutions.delta4_membership")

        def traced(*args, **kwargs):
            if watch:
                before = counters["roots.box_hits"] + counters["roots.vectors_returned"]
            rec = open_(name)
            try:
                out = fn(*args, **kwargs)
            except overflow_exc:
                if name == "roots.bounded_vectors_of_norm":
                    counters["roots.overflow.count"] += 1
                raise
            finally:
                close(rec)
            if post is not None:
                post(counters, args, kwargs, out)
            if watch:
                after = counters["roots.box_hits"] + counters["roots.vectors_returned"]
                counters["involutions.candidates"] += after - before
                found = out.status in ("degenerate", "yes")
                counters["involutions.witnesses"] += int(found)
            return out

        traced.__wrapped__ = fn
        return traced

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans, "counters": self.counters}))

    def merge(self, path: Path) -> None:
        """Adopt the spans and counters another process dumped to `path`,
        hanging its top-level spans under the currently open span."""
        data = json.loads(path.read_text())
        base = len(self.spans)
        root = self.stack[-1] if self.stack else -1
        for name, start, end, parent in data["spans"]:
            self.spans.append([name, start, end, base + parent if parent >= 0 else root])
        for key, value in data["counters"].items():
            self.counters[key] += value


def _post_vectors(counters, args, kwargs, out):
    counters["roots.vectors_returned"] += out.count


def _post_box(counters, args, kwargs, out):
    lattice = args[0]
    bound = args[2] if len(args) > 2 else kwargs["bound"]
    counters["roots.box_cells"] += (2 * bound + 1) ** lattice.rank
    counters["roots.box_hits"] += out.count


_POST = {
    "roots.vectors_of_norm": _post_vectors,
    "roots.bounded_vectors_of_norm": _post_box,
}


def self_times(spans) -> dict[str, list[float]]:
    """name -> [calls, self seconds]; self time is a span's duration minus
    the time its direct children cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, list[float]] = {}
    for i, (name, start, end, _) in enumerate(spans):
        acc = out.setdefault(name, [0, 0.0])
        acc[0] += 1
        acc[1] += (end - start) - child[i]
    return out


def per_layer_metrics(spans, counters, queries: int) -> dict[str, float]:
    """Per-query calls and self seconds of every traced function, plus the
    derived counters and ratios."""
    agg = self_times(spans)
    q = max(queries, 1)
    out: dict[str, float] = {}
    for modname, funcs in TRACED.items():
        for fname in funcs:
            calls, self_s = agg.get(f"{modname}.{fname}", (0, 0.0))
            out[f"{modname}.{fname}.calls"] = calls / q
            out[f"{modname}.{fname}.self_s"] = self_s / q
    cells = counters["roots.box_cells"]
    cands = counters["involutions.candidates"]
    out["roots.vectors_returned"] = counters["roots.vectors_returned"] / q
    out["roots.box_cells"] = cells / q
    out["roots.box_hit_ratio"] = counters["roots.box_hits"] / cells if cells else 0.0
    out["roots.overflow.count"] = counters["roots.overflow.count"]
    out["involutions.da_witness_ratio"] = counters["involutions.witnesses"] / cands if cands else 0.0
    return out


def per_layer_spec() -> list[dict]:
    """Name, unit and direction of every per-layer metric, in report order."""
    spec = []
    for modname, funcs in TRACED.items():
        for fname in funcs:
            spec.append({"name": f"{modname}.{fname}.calls", "unit": "count/query", "better": "lower"})
            spec.append({"name": f"{modname}.{fname}.self_s", "unit": "s/query", "better": "lower"})
    spec += [
        {"name": "roots.vectors_returned", "unit": "count/query", "better": "higher"},
        {"name": "roots.box_cells", "unit": "count/query", "better": "lower"},
        {"name": "roots.box_hit_ratio", "unit": "ratio", "better": "higher"},
        {"name": "roots.overflow.count", "unit": "count", "better": "lower"},
        {"name": "involutions.da_witness_ratio", "unit": "ratio", "better": "higher"},
        {"name": "cli.interpreter_s", "unit": "s", "better": "lower"},
        {"name": "cli.import_s", "unit": "s", "better": "lower"},
        {"name": "cli.import_numpy_s", "unit": "s", "better": "lower"},
        {"name": "bench.trace_overhead_frac", "unit": "ratio", "better": "lower"},
    ]
    return spec
