#!/usr/bin/env python3
"""Census of short-vector counts across the named definite lattices.

Prints, for each lattice and each even norm down to a configurable floor,
the number of vectors of that norm plus the enumeration time.  The E8(-1)
row of the -2 column is the classical 240; deeper norms follow the theta
series.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

try:
    import zlattice
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import zlattice

from zlattice import direct_sum, make_lattice, standard_lattice, vectors_of_norm


def build_catalog(wide: bool):
    a1 = standard_lattice("A1(-1)")
    e8 = standard_lattice("E8(-1)")
    catalog = [
        ("A1(-1)", a1),
        ("E8(-1)", e8),
        ("A1(-1)^2", direct_sum(a1, a1)),
        ("A1(-1)^4", direct_sum(direct_sum(a1, a1), direct_sum(a1, a1))),
        ("<-4>+<-6>", make_lattice(((-4, 0), (0, -6)))),
    ]
    if wide:  # rank-16 sum; slow below norm -2
        catalog.append(("E8(-1)^2", direct_sum(e8, e8)))
    return catalog


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--floor", type=int, default=-6,
                        help="most negative norm to census (default -6)")
    parser.add_argument("--timing", action="store_true",
                        help="append per-cell enumeration times")
    parser.add_argument("--wide", action="store_true",
                        help="include the rank-16 double E8 sum (minutes)")
    args = parser.parse_args()
    if args.floor >= 0 or args.floor % 2:
        parser.error("--floor must be a negative even integer")

    norms = list(range(-2, args.floor - 1, -2))
    catalog = build_catalog(args.wide)

    header = ["lattice".ljust(12)] + [f"m={m}".rjust(9) for m in norms]
    print("  ".join(header))
    for name, L in catalog:
        cells = [name.ljust(12)]
        for m in norms:
            t0 = time.perf_counter()
            count = vectors_of_norm(L, m).count
            dt = time.perf_counter() - t0
            cell = f"{count}" + (f" ({dt:.2f}s)" if args.timing else "")
            cells.append(cell.rjust(9))
        print("  ".join(cells))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
