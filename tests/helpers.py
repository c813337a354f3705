"""Shared fixtures: block involutions on the rank-22 lattice, marked models
with known degeneracy behaviour, a seeded random-involution generator, and
the environment for child `python -m zlattice` processes.
"""

from __future__ import annotations

import os
import random
from pathlib import Path

from zlattice import (
    Lattice,
    direct_sum,
    inner_product,
    make_involution,
    make_lattice,
    make_picard_model,
    make_sublattice,
    standard_lattice,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def child_env(**overrides) -> dict:
    """os.environ plus overrides, with src/ first on PYTHONPATH, so that a
    child interpreter imports this checkout's zlattice without an install."""
    env = dict(os.environ, **overrides)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


# Block layout of the rank-22 lattice U^3 + E8(-1)^2.
U1 = (0, 1)
U2 = (2, 3)
U3 = (4, 5)
E8A = tuple(range(6, 14))
E8B = tuple(range(14, 22))

# A norm -2 vector of E8(-1) in the package's fixed basis.
E8_ROOT = (2, 0, -1, 0, 0, 0, 0, 0)


def same_sublattice(a, b) -> bool:
    """Do two embeddings span the same sublattice of the same ambient
    lattice?  Each basis must lie in the other span, at equal ranks."""
    if a.ambient.gram != b.ambient.gram or a.rank != b.rank:
        return False
    return all(a.contains(v) for v in b.basis) and all(b.contains(v) for v in a.basis)


def lk3() -> Lattice:
    return standard_lattice("LK3")


def embed(block, local, rank=22):
    v = [0] * rank
    for idx, c in zip(block, local):
        v[idx] = c
    return tuple(v)


def s_copy_basis(e8_block=E8A):
    """A primitive copy of the (3,1,1) lattice inside U^3 + E8(-1)^2.

    Basis (E~, F~, A~) with E~ = f2 - r, F~ = r, A~ = e2 - f2 where
    (e2, f2) span the second hyperbolic block and r is a norm -2 vector
    of the chosen E8(-1) block.  The induced Gram then reproduces the
    marked intersection table.
    """
    r = embed(e8_block, E8_ROOT)
    e2 = embed(U2, (1, 0))
    f2 = embed(U2, (0, 1))
    e_t = tuple(a - b for a, b in zip(f2, r))
    f_t = r
    a_t = tuple(a - b for a, b in zip(e2, f2))
    return (e_t, f_t, a_t)


def block_diag_involution(lattice, minus_blocks):
    """Involution acting as -1 on the listed coordinate positions, +1 elsewhere."""
    n = lattice.rank
    minus = set()
    for block in minus_blocks:
        minus.update(block)
    m = tuple(
        tuple((-1 if i in minus else 1) if i == j else 0 for j in range(n))
        for i in range(n)
    )
    return make_involution(lattice, m)


def psi_split():
    """id on U1, -id on everything else: fixed part U, type ((3,1,1), -id)
    with respect to the embedded copy of the marked lattice."""
    return block_diag_involution(lk3(), [U2, U3, E8A, E8B])


def psi_minus():
    """-id on the whole rank-22 lattice."""
    L = lk3()
    n = L.rank
    m = tuple(tuple(-1 if i == j else 0 for j in range(n)) for i in range(n))
    return make_involution(L, m)


def e8_reflection():
    """Matrix of the reflection s_r in r = E8_ROOT on E8(-1), acting on
    columns: column j is s_r(e_j) = e_j - (2 e_j.r / r.r) r."""
    e8 = standard_lattice("E8(-1)")
    r = E8_ROOT
    rr = inner_product(e8, r, r)
    cols = []
    for j in range(8):
        x = tuple(1 if i == j else 0 for i in range(8))
        xr = inner_product(e8, x, r)
        cols.append(tuple(x[i] - (2 * xr // rr) * r[i] for i in range(8)))
    return tuple(zip(*cols))


def sigma_s311_fixed():
    """Involution of U^3 + E8(-1)^2 with fixed part of invariants (3,1,1).

    Acts as +id on U1, as minus-the-reflection-in-E8_ROOT on the first
    E8(-1) block, and as -id elsewhere.  The fixed part is U1 + Z*r,
    an even 2-elementary lattice with (r, a, delta) = (3, 1, 1).
    """
    L = lk3()
    refl = e8_reflection()
    n = L.rank
    m = [[0] * n for _ in range(n)]
    for i in U1:
        m[i][i] = 1
    for i in U2 + U3 + E8B:
        m[i][i] = -1
    for i_local, i in enumerate(E8A):
        for j_local, j in enumerate(E8A):
            m[i][j] = -refl[i_local][j_local]
    return make_involution(L, tuple(tuple(row) for row in m))


# --- marked rank-4 model with a degeneracy witness over a widened sublattice


N4_GRAM = ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, -2, -2), (0, 0, -2, -4))
N4_A0 = (1, -1, 0, 0)
N4_E = (0, 1, -1, 0)
N4_F = (0, 0, 1, 0)
N4_SPRIME = ((1, -1, 0, 0), (0, 1, 0, 0), (0, 0, 2, -1))


def n4_model():
    return make_picard_model(make_lattice(N4_GRAM), N4_A0, N4_E, N4_F)


def n4_sprime():
    return make_sublattice(make_lattice(N4_GRAM), N4_SPRIME)


# --- small lattices for the half-vector membership test


# index-2 overlattice of <-4> + <-4> generated by (g1+g2)/2; basis (h, g2)
# with h = (g1+g2)/2, so g1 = 2h - g2
OVER44_GRAM = ((-2, -2), (-2, -4))
OVER44_D1 = (2, -1)  # the class g1, norm -4

PLAIN44_GRAM = ((-4, 0), (0, -4))

# rank-4 even lattice where the glue class exists but the norm -4
# representative needs coordinates of size 2
DEEP_GRAM = ((-4, 0, 0, -2), (0, 0, 1, 0), (0, 1, 0, 0), (-2, 0, 0, 0))
DEEP_D1 = (1, 0, 0, 0)
DEEP_WITNESS = (1, -2, 2, -2)


def s311_model():
    S = standard_lattice("S311")
    return make_picard_model(S, (0, 0, 1), (1, 0, 0), (0, 1, 0))


def s311_plus(d: int):
    """Marked model over S311 + <d>."""
    S = standard_lattice("S311")
    N = direct_sum(S, make_lattice(((d,),)))
    return make_picard_model(N, (0, 0, 1, 0), (1, 0, 0, 0), (0, 1, 0, 0))


# --- seeded random involutions for the property suite


_BLOCKS = []


def _add_block(gram, matrix):
    _BLOCKS.append((gram, matrix))


_U = ((0, 1), (1, 0))
_add_block(_U, ((1, 0), (0, 1)))
_add_block(_U, ((-1, 0), (0, -1)))
_add_block(_U, ((0, 1), (1, 0)))
_add_block(_U, ((0, -1), (-1, 0)))
for _d in (-2, 2, -4, -6):
    _add_block(((_d,),), ((1,),))
    _add_block(((_d,),), ((-1,),))
    # two equal rank-1 blocks swapped: glue index 2
    _add_block(((_d, 0), (0, _d)), ((0, 1), (1, 0)))
    _add_block(((_d, 0), (0, _d)), ((0, -1), (-1, 0)))


def _assemble(rng: random.Random, max_rank: int):
    blocks = []
    total = 0
    while total < max_rank:
        block = rng.choice(_BLOCKS)
        if total + len(block[0]) > max_rank:
            break
        blocks.append(block)
        total += len(block[0])
        if rng.random() < 0.3:
            break
    return _block_diag(blocks or [(((-2,),), ((1,),))])


def _block_diag(blocks):
    """(gram, matrix) as lists, block-diagonal in the given (gram, matrix)
    blocks."""
    total = sum(len(g) for g, _ in blocks)
    gram = [[0] * total for _ in range(total)]
    mat = [[0] * total for _ in range(total)]
    at = 0
    for g, m in blocks:
        k = len(g)
        for i in range(k):
            gram[at + i][at : at + k] = g[i]
            mat[at + i][at : at + k] = m[i]
        at += k
    return gram, mat


def _conjugate(rng: random.Random, gram, mat):
    """Apply a random unimodular change of basis: G -> T^t G T, M -> T^-1 M T."""
    n = len(gram)
    t = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    tinv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(rng.randrange(0, 7)):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice((-1, 1))
        # column op on T: col_j += c * col_i; inverse tracks col_j -= c * col_i
        for k in range(n):
            t[k][j] += c * t[k][i]
        for k in range(n):
            tinv[i][k] -= c * tinv[j][k]
    new_gram = _mul(_mul(_transpose(t), gram), t)
    new_mat = _mul(_mul(tinv, mat), t)
    return new_gram, new_mat


def skewed_block_sum(rng: random.Random, grams, ops: int):
    """T^t G T as lists: G block-diagonal in the Gram matrices `grams`, T a
    product of `ops` seeded column operations col_j += +-col_i."""
    gram, _ = _block_diag([(g, g) for g in grams])
    n = len(gram)
    t = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(ops if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        for row in t:
            row[j] += c * row[i]
    return _mul(_mul(_transpose(t), gram), t)


def _transpose(m):
    return [list(col) for col in zip(*m)]


def _mul(a, b):
    n, k, p = len(a), len(b), len(b[0])
    return [
        [sum(a[i][x] * b[x][j] for x in range(k)) for j in range(p)] for i in range(n)
    ]


def random_involution_data(rng: random.Random, rank: int):
    """(gram, matrix) as lists, unchecked: block involutions filling exactly
    the given rank, conjugated by three random unimodular changes of basis."""
    blocks = []
    total = 0
    while total < rank:
        block = rng.choice([b for b in _BLOCKS if total + len(b[0]) <= rank])
        blocks.append(block)
        total += len(block[0])
    gram, mat = _block_diag(blocks)
    for _ in range(3):
        gram, mat = _conjugate(rng, gram, mat)
    return gram, mat


def _unimodular_blocks():
    """(gram, matrix) blocks of even unimodular lattices: U with its four
    involutions, U + U with its two blocks swapped (fixed part U(2), where
    delta = 0 but a = 2), and E8(-1) with +-id and +- the reflection in a
    root."""
    uu = direct_sum(Lattice(_U), Lattice(_U)).gram
    swap = ((0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0))
    blocks = [b for b in _BLOCKS if b[0] == _U] + [(uu, swap)]
    e8 = standard_lattice("E8(-1)").gram
    ident = tuple(tuple(int(i == j) for j in range(8)) for i in range(8))
    for m in (ident, e8_reflection()):
        blocks += [(e8, m), (e8, tuple(tuple(-c for c in row) for row in m))]
    return blocks


def random_unimodular_involution(rng: random.Random, max_rank: int = 12):
    """An involution of an even unimodular lattice of rank at most max_rank:
    U and E8(-1) blocks with their involutions, in a random basis."""
    pool = _unimodular_blocks()
    blocks = [rng.choice(pool)]
    total = len(blocks[0][0])
    while rng.random() < 0.7:
        fits = [b for b in pool if total + len(b[0]) <= max_rank]
        if not fits:
            break
        blocks.append(rng.choice(fits))
        total += len(blocks[-1][0])
    gram, mat = _conjugate(rng, *_block_diag(blocks))
    L = make_lattice(tuple(tuple(r) for r in gram))
    return make_involution(L, tuple(tuple(r) for r in mat))


def random_involution(rng: random.Random, max_rank: int = 8):
    gram, mat = _assemble(rng, max_rank)
    gram, mat = _conjugate(rng, gram, mat)
    L = make_lattice(tuple(tuple(r) for r in gram))
    return make_involution(L, tuple(tuple(r) for r in mat))
