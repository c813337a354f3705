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

# the level-1 loop of roots._fp_enumerate, from the x_2.. it writes back
# to the appends of v and its negative in the identity basis
_X1_LOOP = (
    "                if part is None:\n"
    "                    xs = x[:1:-1]\n"
    "                    nxs = [-c for c in xs]\n"
    "                else:\n"
    "                    xs, b1, b0 = part[2], basis[1], basis[0]\n"
    "                for x1 in range(lo, hi[1] + 1):\n"
    "                    nodes += 1\n"
    "                    if nodes > cap:\n"
    "                        raise _node_overflow(nodes, n)\n"
    "                    y = s1 * x1 + ti\n"
    "                    r2, k = divmod(rem2 - w1 * y * y, w0)\n"
    "                    if k:\n"
    "                        continue\n"
    "                    r = isqrt(r2)\n"
    "                    if r * r != r2:\n"
    "                        continue\n"
    "                    t0 = base0 + c01 * x1\n"
    "                    if part is not None:\n"
    "                        p1 = tuple(map(add, xs, [x1 * b for b in b1])) if x1 else xs\n"
    "                    for y in (-r, r) if r else (0,):\n"
    "                        x0, k = divmod(y - t0, s0)\n"
    "                        if not k and (x0 > 0 or x1 or free):\n"
    "                            nodes += 1\n"
    "                            if part is None:\n"
    "                                found.append((*xs, x1, x0))\n"
    "                                negs.append((*nxs, -x1, -x0))\n"
)

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
    # one row pass of the HNF solve (intlinalg.solve_int)
    ("solve-skips-free-rows", INTLINALG,
     "            col += 1\n"
     "        elif s:\n"
     "            return None\n",
     "            col += 1\n"),
    # the live rows of ldl, its zero-pivot repairs, and first-unit Smith
    # pivots (intlinalg)
    ("bareiss-catch-up-dropped", INTLINALG,
     "                    g = p[s]\n"
     "                    x = row[t] = x * prev // g\n"
     "                    col.append(x)\n"
     "                    row[t + 1 : i + 1] = [(y * prev // g * pk - x * z) // prev\n",
     "                    col.append(x)\n"
     "                    row[t + 1 : i + 1] = [(y * pk - x * z) // prev\n"),
    ("bareiss-seen-not-advanced", INTLINALG,
     "                seen[i] = t + 1\n",
     ""),
    ("ldl-pivot-read-behind", INTLINALG,
     "            pk = a[t][t] = pk * prev // p[s]\n",
     "            pass\n"),
    ("ldl-repair-catch-up-by-d[t-1]", INTLINALG,
     "row[t : k + 1] = [y * prev // g for y in row[t : k + 1]]",
     "row[t : k + 1] = [y * prev for y in row[t : k + 1]]"),
    ("ldl-repair-catch-up-stops-short", INTLINALG,
     "for k in range(t, piv + 1):",
     "for k in range(t, piv):"),
    ("ldl-swap-skips-middle-rows", INTLINALG,
     "                row[t], rp[k] = rp[k], row[t]\n",
     "                pass\n"),
    ("ldl-pair-cross-term-once", INTLINALG,
     "rp[piv] += 2 * rp[i] + ri[i]",
     "rp[piv] += rp[i] + ri[i]"),
    ("ldl-pair-skips-rows-below-piv", INTLINALG,
     "                for row in a[piv + 1 :]:\n"
     "                    row[piv] += row[i]\n",
     ""),
    ("ldl-zero-block-one-minor-short", INTLINALG,
     "p += [0] * (n - t)",
     "p += [0] * (n - t - 1)"),
    ("snf-unit-search-prefers-minus-one", INTLINALG,
     "return i, r.index(-1) if -1 in r[:j] else j",
     "return i, r.index(-1) if -1 in r else j"),
    # Fincke-Pohst levels 1 and 0 (roots._fp_enumerate)
    ("fp-c01-dropped", ROOTS,
     "t0 = base0 + c01 * x1",
     "t0 = base0"),
    ("fp-x1-loop-cap-dropped", ROOTS,
     "                    nodes += 1\n"
     "                    if nodes > cap:\n"
     "                        raise _node_overflow(nodes, n)\n"
     "                    y = s1 * x1 + ti\n",
     "                    nodes += 1\n"
     "                    y = s1 * x1 + ti\n"),
    ("fp-x1-range-ends-at-hi-1", ROOTS,
     "for x1 in range(lo, hi[1] + 1):",
     "for x1 in range(lo, hi[1]):"),
    ("fp-x1-range-ends-at-hi+1", ROOTS,
     "for x1 in range(lo, hi[1] + 1):",
     "for x1 in range(lo, hi[1] + 2):"),
    ("fp-root-minus-r-dropped", ROOTS,
     "for y in (-r, r) if r else (0,):",
     "for y in (r,) if r else (0,):"),
    ("fp-root-plus-r-dropped", ROOTS,
     "for y in (-r, r) if r else (0,):",
     "for y in (-r,) if r else (0,):"),
    # the reversed walk: x_0's roots ascending, x written back reversed
    ("fp-x0-roots-descending", ROOTS,
     "for y in (-r, r) if r else (0,):",
     "for y in (r, -r) if r else (0,):"),
    ("fp-writes-x-unreversed", ROOTS, _X1_LOOP,
     _X1_LOOP.replace("x[:1:-1]", "x[2:]").replace("(*xs, x1, x0)", "(x0, x1, *xs)")
     .replace("(*nxs, -x1, -x0)", "(-x0, -x1, *nxs)")),
    # the negatives the identity walk writes itself, and the partial sums
    # of the walk in a basis
    ("fp-negative-keeps-x0-sign", ROOTS,
     "negs.append((*nxs, -x1, -x0))",
     "negs.append((*nxs, -x1, x0))"),
    ("fp-rank1-negative-dropped", ROOTS,
     "found += [(x0,), (-x0,)]",
     "found += [(x0,)]"),
    ("fp-basis-zero-share-always", ROOTS,
     "part[i] = tuple(map(add, part[i + 1], [lo * b for b in basis[i]])) if lo else part[i + 1]",
     "part[i] = part[i + 1]"),
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
     "        nz[i] = nz[i + 1] or xi != 0\n"
     "        y = s[i] * xi + t[i]\n",
     "        nz[i] = nz[i + 1]\n"
     "        y = s[i] * xi + t[i]\n"),
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
    # the coset question of delta4_membership (involutions._coset_vector)
    ("coset-parity-mod-4", INVOLUTIONS,
     "(a - b) % 2 == 0 for a, b in zip(c, x)",
     "(a - b) % 4 == 0 for a, b in zip(c, x)"),
    ("coset-rep-zero", INVOLUTIONS,
     "sol[n:]",
     "(0,) * comp.rank"),
    ("coset-sign-min", INVOLUTIONS,
     "max(w, tuple(-x for x in w))",
     "min(w, tuple(-x for x in w))"),
    # the growing boxes of both searches (involutions._growing_boxes)
    ("radii-full-box-first", INVOLUTIONS,
     "radius = min(2 * done or 1, bound)",
     "radius = bound"),
    ("radii-no-sort-in-step", INVOLUTIONS,
     "yield from sorted(fresh, key=_box_radius)",
     "yield from fresh"),
    # products with the sparse factor on the left (involutions) and the
    # one-test integer boundary (lattices._ints)
    ("isometry-reads-psi-g", INVOLUTIONS,
     "la.mat_mul(la.transpose(m), L.gram)",
     "la.mat_mul(m, L.gram)"),
    ("images-read-psi-untransposed", INVOLUTIONS,
     "la.mat_mul(s.basis, la.transpose(psi.matrix))",
     "la.mat_mul(s.basis, psi.matrix)"),
    # the type check as one identity, B psi^t = theta^t B (involutions.is_type)
    ("is-type-theta-untransposed", INVOLUTIONS,
     "la.mat_mul(la.transpose(theta.matrix), s.basis)",
     "la.mat_mul(theta.matrix, s.basis)"),
    # the eigenlattices' own invariants (involutions.involution_rank_sum_check)
    ("rank-sum-always-true", INVOLUTIONS,
     "    fixed, anti = psi.fixed, psi.anti\n"
     "    if fixed.rank + anti.rank != psi.ambient.rank:\n",
     "    return True\n"
     "    fixed, anti = psi.fixed, psi.anti\n"
     "    if fixed.rank + anti.rank != psi.ambient.rank:\n"),
    ("rank-sum-skips-primitivity", INVOLUTIONS,
     "and saturate(fixed) is fixed and saturate(anti) is anti)",
     "and True)"),
    ("rank-sum-anti-not-negated", INVOLUTIONS,
     "_images(psi, anti) == tuple(tuple(-c for c in b) for b in anti.basis)",
     "_images(psi, anti) == anti.basis"),
    # the split in the saturation's coordinates (involutions._split) and
    # the guards in front of the two searches
    ("split-reads-c-mod-den", INVOLUTIONS,
     "2 * c % den",
     "c % den"),
    ("scan-skips-embedding-check", INVOLUTIONS,
     "    if s.ambient.gram != L.gram:\n"
     "        raise EmbeddingMismatch(\"sublattice is embedded in a different lattice\")\n"
     "    sat = saturate(s)\n",
     "    sat = saturate(s)\n"),
    ("coset-sign-mismatch-unknown", INVOLUTIONS,
     "    except SignMismatch:\n"
     "        return MembershipResult(\"no\", None)\n",
     "    except SignMismatch:\n"
     "        return MembershipResult(\"unknown\", None)\n"),
    ("ints-accepts-bool", LATTICES,
     "<= {int}",
     "<= {int, bool}"),
    # box scan (roots._box_scan)
    ("box-tail-norm-without-2", ROOTS,
     "tail[i] = tail[i + 1] + xi * (2 * part[i + 1][i] + gram[i][i] * xi)",
     "tail[i] = tail[i + 1] + xi * (part[i + 1][i] + gram[i][i] * xi)"),
    ("box-x1-negative-over-zero-tail", ROOTS,
     "lo = -bound if nz[2] else 1",
     "lo = -bound"),
    ("box-linear-x0-without-2", ROOTS,
     "                    if not rest % (2 * p):\n"
     "                        x0 = rest // (2 * p)\n",
     "                    if not rest % p:\n"
     "                        x0 = rest // p\n"),
    ("box-rest-step-constant", ROOTS,
     "                drest -= 2 * g11\n",
     ""),
    ("box-definite-head-x1-top-one-short", ROOTS,
     "hi = min(hi, (b + s) // a)",
     "hi = min(hi, (b + s) // a - 1)"),
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
