"""Reference work: how fast the shared machine runs at the moment.

Other tenants of the host change its speed by up to 2x within a minute, for
every process on it alike.  The benchmark therefore runs a fixed piece of
reference work after every query and scales the query times of each pass by
NOMINAL_S / (the reference's median time in that pass): a run reports what
its queries would take on a machine where the reference takes NOMINAL_S.

The in-process workloads use `python_work`, the same kinds of pure-Python
work zlattice does; cli uses a bare interpreter start, the same kind of work
as starting `python -m zlattice`.  Neither uses zlattice, so no change to
zlattice moves the reference.
"""

from __future__ import annotations

import time
from fractions import Fraction

import gen

NOMINAL_S = {"python": 0.004, "interpreter": 0.050}

_M = [[(7 * i + 3 * j) % 11 - 5 for j in range(12)] for i in range(12)]


def _walk(prefix: list[int], left: float, k: int, out: list) -> None:
    """Integer vectors of squared length <= left, coordinate by coordinate."""
    if k == 0:
        out.append(tuple(prefix))
        return
    r = int(left ** 0.5)
    for x in range(-r, r + 1):
        prefix.append(x)
        _walk(prefix, left - x * x, k - 1, out)
        prefix.pop()


def python_work() -> float:
    """About 4 ms of integer matrix products, dict counting, a recursive
    enumeration and Fraction sums; returns its seconds."""
    t0 = time.perf_counter()
    a = _M
    for _ in range(6):
        a = gen.mat_mul(a, _M)
    gen.box_count(["U", "U", -2, 2], -2, 5)
    _walk([], 4.0, 7, [])
    s = Fraction(0)
    for i in range(1, 200):
        s += Fraction(i % 7 - 3, i)
    return time.perf_counter() - t0
