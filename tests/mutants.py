"""Run the tier-1 suite against a fixed list of source mutants.

    python tests/mutants.py

Each mutant is one exact text edit to the package (file, old text, new
text) that an earlier change showed the suite must catch.  The runner
first copies the repository to a temporary directory and runs the suite
there unchanged, which must pass.  Then, for each mutant, it makes a
fresh copy, applies the edit and runs the suite with -x.  A failing suite
kills the mutant; so does one that outlives the timeout, three times the
unchanged run plus 30 s, since a wrong LLL swap can loop forever.

Exit status: 0 when every mutant is killed; 1 when one survives or its
old text does not occur exactly once in its file (the source moved on and
the list needs the new text); 2 when the unchanged suite fails.  Standard
library only; the file name keeps pytest from collecting it.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

INTLINALG = "src/zlattice/intlinalg.py"
ROOTS = "src/zlattice/roots.py"
LATTICES = "src/zlattice/lattices.py"
DISCRIMINANT = "src/zlattice/discriminant.py"
INVOLUTIONS = "src/zlattice/involutions.py"

# (name, file, old text, new text); each old text occurs once in its file
MUTANTS = (
    # LLL swap and size reduction (intlinalg.lll_reduce_gram)
    ("lll-b-without-d[k-2]", INTLINALG,
     "b = (prev * d[k] + off * off) // d[k - 1]",
     "b = (d[k] + off * off) // d[k - 1]"),
    ("lll-b-absolute", INTLINALG,
     "b = (prev * d[k] + off * off) // d[k - 1]",
     "b = abs((prev * d[k] + off * off) // d[k - 1])"),
    ("lll-row-k-1-updated-first", INTLINALG,
     "            row[k] = (d[k] * row[k - 1] - off * s) // d[k - 1]\n"
     "            row[k - 1] = (b * s + off * row[k]) // d[k]\n",
     "            row[k - 1] = (b * s + off * row[k]) // d[k]\n"
     "            row[k] = (d[k] * row[k - 1] - off * s) // d[k - 1]\n"),
    ("lll-mu-rounded-with-abs-d", INTLINALG,
     "q = (2 * lk[j] + d[j]) // (2 * d[j])",
     "q = (2 * lk[j] + abs(d[j])) // (2 * abs(d[j]))"),
    # lazily rescaled Bareiss and first-unit Smith pivots (intlinalg)
    ("bareiss-catch-up-dropped", INTLINALG,
     "                    g = p[s]\n"
     "                    x = x * prev // g\n"
     "                    row[k + 1 :] = [(y * prev // g * pk - x * z) // prev\n",
     "                    row[k + 1 :] = [(y * pk - x * z) // prev\n"),
    ("bareiss-seen-not-advanced", INTLINALG,
     "                seen[i] = k + 1\n",
     ""),
    ("snf-unit-search-prefers-minus-one", INTLINALG,
     "return i, r.index(-1) if -1 in r[:j] else j",
     "return i, r.index(-1) if -1 in r else j"),
    # Fincke-Pohst levels 1 and 0 (roots._fp_enumerate)
    ("fp-c01-dropped", ROOTS,
     "t0 = base0 + c01 * x1",
     "t0 = base0"),
    ("fp-x1-range-ends-at-hi-1", ROOTS,
     "for x1 in range(lo, hi[1] + 1):",
     "for x1 in range(lo, hi[1]):"),
    ("fp-x1-range-ends-at-hi+1", ROOTS,
     "for x1 in range(lo, hi[1] + 1):",
     "for x1 in range(lo, hi[1] + 2):"),
    ("fp-root-minus-r-dropped", ROOTS,
     "for y in (r, -r) if r else (0,):",
     "for y in (r,) if r else (0,):"),
    ("fp-root-plus-r-dropped", ROOTS,
     "for y in (r, -r) if r else (0,):",
     "for y in (-r,) if r else (0,):"),
    # Fincke-Pohst running centres and sign flags (roots._fp_enumerate)
    ("fp-centre-exit-revert-dropped", ROOTS,
     "                for j, c in rows[i]:\n"
     "                    t[j] -= c * xi\n",
     ""),
    ("fp-centre-step-dropped", ROOTS,
     "            for j, c in rows[i]:\n"
     "                t[j] += c\n",
     ""),
    ("fp-nz-from-above-only", ROOTS,
     "nz[i] = nz[i + 1] or xi != 0",
     "nz[i] = nz[i + 1]"),
    # glue obstruction (lattices.saturate, discriminant, the degeneracy scan)
    ("saturate-reads-first-pivot-only", LATTICES,
     "if all(h[i][i] == 1 for i in range(k.rank)):",
     "if all(h[i][i] == 1 for i in range(min(k.rank, 1))):"),
    ("unimodular-shortcut-at-det-2", DISCRIMINANT,
     "if abs(det) == 1:",
     "if abs(det) <= 2:"),
    ("two-torsion-reads-odd-factors", DISCRIMINANT,
     "        if d % 2 == 0:\n",
     "        if True:\n"),
    ("delta-reads-mod-8", DISCRIMINANT,
     ") % 4 for _, v in classes",
     ") % 8 for _, v in classes"),
    ("scan-skips-saturation", INVOLUTIONS,
     "sat = saturate(s)",
     "sat = s"),
    # box scan (roots._box_scan)
    ("box-tail-norm-without-2", ROOTS,
     "tail[i] = tail[i + 1] + xi * (2 * part[i + 1][i] + gram[i][i] * xi)",
     "tail[i] = tail[i + 1] + xi * (part[i + 1][i] + gram[i][i] * xi)"),
)

# the list check fails on every mutated copy, so it cannot kill a mutant
SELF_CHECK = "tests/test_mutant_list.py::test_every_mutant_edit_applies"

IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_out", "build", "*.egg-info"
)


def _copy(dest: Path) -> Path:
    tree = dest / "repo"
    shutil.copytree(ROOT, tree, ignore=IGNORE)
    return tree


def _run_suite(tree: Path, timeout: float | None, stop_first: bool) -> tuple[str, float]:
    """Run tier-1 in tree: ("passed" | "failed" | "timeout", seconds).

    The suite runs in its own session, so a timeout ends the test
    processes it started too."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ("src", os.environ.get("PYTHONPATH"))))
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
           "--continue-on-collection-errors"] + (["-x", "--deselect", SELF_CHECK] if stop_first else [])
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return "timeout", time.perf_counter() - start
    return ("passed" if code == 0 else "failed"), time.perf_counter() - start


def _stale(root: Path, path: str, old: str, new: str) -> bool:
    """True when old does not occur exactly once in root/path or the edit
    changes nothing: the source moved on and the list needs the new text."""
    return (root / path).read_text(encoding="utf-8").count(old) != 1 or old == new


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="zlattice-mutants-") as tmp:
        status, seconds = _run_suite(_copy(Path(tmp)), None, False)
    print(f"unchanged suite {status} in {seconds:.1f} s", flush=True)
    if status != "passed":
        return 2
    timeout = 3 * seconds + 30

    bad = []
    for name, path, old, new in MUTANTS:
        with tempfile.TemporaryDirectory(prefix="zlattice-mutants-") as tmp:
            tree = _copy(Path(tmp))
            if _stale(tree, path, old, new):
                print(f"STALE     {name}: old text not found once in {path}", flush=True)
                bad.append(name)
                continue
            target = tree / path
            target.write_text(target.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
            status, seconds = _run_suite(tree, timeout, True)
        verdict = "SURVIVED" if status == "passed" else "killed"
        print(f"{verdict:9} {name} (suite {status} in {seconds:.1f} s)", flush=True)
        if status == "passed":
            bad.append(name)
    print(f"{len(MUTANTS) - len(bad)} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
