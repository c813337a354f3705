"""The cli workload: one fresh `python -m zlattice` process per query.

Input files are written once per run.  Each query runs with its own
PYTHONHASHSEED; its stdout must be byte-identical to the first run of the
same query and must state the facts known from the construction.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import gen


def write_inputs(directory: Path, files: dict[str, dict]) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name, body in files.items():
        (directory / name).write_text(json.dumps(body), encoding="utf-8")


def launch(cmd, cwd, env, err_path) -> tuple[bytes, int, int, float]:
    """Run one child; return (stdout, exit code, peak RSS in KiB, wall seconds).

    The child is reaped with wait4 so its own peak RSS is known."""
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                                stderr=err, stdin=subprocess.DEVNULL)
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return out, proc.returncode, usage.ru_maxrss, wall


def child_env(src: Path, hashseed: int) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env["PYTHONHASHSEED"] = str(hashseed)
    return env


def zlattice_cmd(argv, traced_spans: Path | None = None) -> list[str]:
    if traced_spans is None:
        return [sys.executable, "-m", "zlattice", *argv]
    child = Path(__file__).resolve().parent / "trace_child.py"
    return [sys.executable, str(child), str(traced_spans), *argv]


# --- answer checks -------------------------------------------------------------


def _text_fields(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep and key not in out:
            out[key] = value
    return out


def _parse_vec(text: str) -> tuple[int, ...]:
    return tuple(int(c) for c in re.findall(r"-?\d+", text))


def check_output(query: dict, stdout: bytes, files: dict[str, dict]) -> tuple[bool, bool]:
    """(correct, box-limited) for one cli answer, from its stdout alone."""
    argv = query["argv"]
    verb, exp = argv[0], query["expect"]
    text = stdout.decode("utf-8")
    as_json = "--json" in argv
    doc = json.loads(text) if as_json else None
    f = _text_fields(text)
    if verb == "invariants":
        if as_json:
            got = (doc["rank"], doc["determinant"], doc["two_elementary"])
        else:
            got = (int(f["rank"]), int(f["determinant"]),
                   list(_parse_vec(f["two-elementary"].split("=")[-1])))
        return got == (exp["rank"], exp["determinant"], exp["triple"]), False
    if verb == "discriminant":
        factors = doc["invariant_factors"] if as_json else list(_parse_vec(f["invariant-factors"]))
        return factors == exp["factors"], False
    if verb == "roots":
        gram = files[argv[1]]["gram"]
        if as_json:
            count, complete = doc["count"], doc["complete"]
            vectors = [tuple(v) for v in doc["vectors"]]
        else:
            count, complete = int(f["count"]), f["complete"] == "yes"
            vectors = [_parse_vec(line) for line in text.splitlines() if line.startswith("(")]
        norm = int(argv[argv.index("--norm") + 1])
        bound = int(argv[argv.index("--bound") + 1]) if "--bound" in argv else None
        ortho = [_parse_vec(argv[argv.index("--ortho") + 1])] if "--ortho" in argv else []
        ok = (count == exp["count"] and complete == exp["complete"]
              and len(vectors) == count and len(set(vectors)) == count
              and all(gen.quad(gram, v) == norm for v in vectors)
              and all(sum(a * b for a, b in zip(gen.mat_vec(gram, o), v)) == 0
                      for o in ortho for v in vectors)
              and (bound is None or all(max(map(abs, v)) <= bound for v in vectors)))
        return ok, not complete
    if verb == "involution":
        if as_json:
            got = (doc["fixed_rank"], doc["anti_rank"], doc["period_domain"]["rank_anti_s"])
        else:
            got = (int(f["fixed-rank"]), int(f["anti-rank"]), int(f["anti-s-rank"]))
        return got == (exp["fixed_rank"], exp["anti_rank"], exp["rank_anti_s"]), False
    if verb == "k3-check":
        if as_json:
            got = (doc["nondegenerate"], len(doc["witnesses"]))
        else:
            head, _, labels = text.strip().partition("; witnesses: ")
            got = (head == "NONDEGENERATE", len(labels.split(", ")))
        return got == (exp["nondegenerate"], exp["count"]), False
    if verb == "da-scan":
        if as_json:
            status = doc["status"]
            found = {k: doc[k] for k in ("delta", "delta1", "delta2")}
        else:
            lines = text.splitlines()
            status = "degenerate" if lines[0] == "DEGENERATE" else lines[0].lower()
            found = {k: list(_parse_vec(f[k])) for k in ("delta", "delta1", "delta2") if k in f}
        if exp["witness"] is not None:
            return status == "degenerate" and found == exp["witness"], False
        return status != "degenerate", status == "no-witness-within-bound"
    if verb == "demo":
        ok = doc["all_ok"] if as_json else f.get("all-ok") == "yes"
        return ok is exp["all_ok"], False
    raise ValueError(f"unknown verb {verb!r}")
