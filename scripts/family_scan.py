#!/usr/bin/env python3
"""Sweep marked models over the family S311 + <d> and report the
double-point criterion verdict, the witness count, and the degeneracy
scan status for each member.

The d = -2 member is the one with extra roots orthogonal to u (criterion
false); every even d <= -4 keeps the minimal witness pair.  The scan
answers "no-witness" for every member: the marked S311 has no glue class
that could carry a degeneracy witness, so no box is searched.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

try:
    import zlattice
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import zlattice

from zlattice import (
    direct_sum,
    is_nondegenerate,
    make_lattice,
    make_picard_model,
    model_degeneracy_scan,
    standard_lattice,
)


def model_over(d: int | None):
    S = standard_lattice("S311")
    if d is None:
        return make_picard_model(S, (0, 0, 1), (1, 0, 0), (0, 1, 0))
    N = direct_sum(S, make_lattice(((d,),)))
    return make_picard_model(N, (0, 0, 1, 0), (1, 0, 0, 0), (0, 1, 0, 0))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-d", type=int, default=-12,
                        help="most negative summand norm (even)")
    args = parser.parse_args()
    if args.max_d >= 0 or args.max_d % 2:
        parser.error("--max-d must be a negative even integer")

    print(f"{'model':<14} {'verdict':<16} {'witnesses':>9}  scan")
    rows = [("S311", None)] + [(f"S311+<{d}>", d) for d in range(-2, args.max_d - 1, -2)]
    for label, d in rows:
        m = model_over(d)
        ok, wits = is_nondegenerate(m)
        verdict = "NONDEGENERATE" if ok else "DEGENERATE-POSS"
        # a model scan never builds a box, so any valid bound answers the same
        scan = model_degeneracy_scan(m, 1)
        print(f"{label:<14} {verdict:<16} {len(wits):>9}  {scan.status}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
