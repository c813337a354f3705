import cmath
import collections
import itertools
import math
import random
from fractions import Fraction

import pytest

import oracles
from helpers import _conjugate, skewed_block_sum
from zlattice import (
    DegenerateLattice,
    EmbeddingMismatch,
    NotEven,
    NotInDualLattice,
    NotTwoElementary,
    delta_via_involution,
    determinant,
    direct_sum,
    discriminant_form_value,
    discriminant_group,
    eigenlattices,
    inner_product,
    make_involution,
    make_lattice,
    signature,
    standard_lattice,
    two_elementary_invariants,
)
from zlattice import intlinalg as la
from zlattice.discriminant import _glue_classes, _two_torsion_takes_one

U = standard_lattice("U")
S = standard_lattice("S311")
A1M = standard_lattice("A1(-1)")
E8M = standard_lattice("E8(-1)")


def _rand_symmetric_lattice(rng, n, lo=-5, hi=5):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = rng.randint(lo, hi)
    return make_lattice(tuple(tuple(r) for r in m))


# --- group structure ---


def test_discriminant_group_examples():
    assert discriminant_group(U).invariant_factors == ()
    d = discriminant_group(A1M)
    assert d.invariant_factors == (2,)
    assert d.generators == ((Fraction(1, 2),),)
    assert discriminant_group(S).invariant_factors == (2,)


def test_unimodular_discriminant_group_needs_no_smith_form(monkeypatch):
    def refuse(m):
        raise RuntimeError("Smith form computed")

    monkeypatch.setattr(la, "snf_with_transforms", refuse)
    for L in (E8M, U, standard_lattice("LK3"), make_lattice(())):
        dg = discriminant_group(L)
        assert (dg.invariant_factors, dg.generators, dg.order) == ((), (), 1)
    # |det| = 2 is not trivial and still goes through the Smith form
    with pytest.raises(RuntimeError, match="Smith form computed"):
        discriminant_group(A1M)


def test_determinant_signature_and_triple_each_run_one_ldl(monkeypatch):
    # the determinant is the last minor of ldl and the signature the signs
    # of its pivots, so each of the three reads one elimination of the
    # Gram matrix; a second elimination would show as a missing or an
    # extra call.  U's zero diagonal makes ldl repair its first pivot, and
    # |det| = 4 sends the triple on to the Smith form
    calls = collections.Counter()

    def counted(*a, _orig=la.ldl):
        calls["ldl"] += 1
        return _orig(*a)

    monkeypatch.setattr(la, "ldl", counted)
    L = direct_sum(direct_sum(U, A1M), A1M)
    for f, value in ((determinant, -4), (signature, (1, 3, 0)),
                     (two_elementary_invariants, (4, 2, 1))):
        calls.clear()
        assert f(L) == value
        assert calls == {"ldl": 1}, f.__name__


def test_discriminant_group_order_equals_det():
    rng = random.Random(7)
    done = 0
    while done < 40:
        n = rng.randint(1, 4)
        L = _rand_symmetric_lattice(rng, n)
        det = determinant(L)
        if det == 0:
            continue
        dg = discriminant_group(L)
        assert dg.order == abs(det)
        assert dg.invariant_factors == oracles.sympy_invariant_factors(L.gram)
        done += 1


def test_discriminant_group_generators_have_right_order():
    rng = random.Random(11)
    done = 0
    while done < 30:
        L = _rand_symmetric_lattice(rng, rng.randint(1, 4))
        if determinant(L) == 0:
            continue
        dg = discriminant_group(L)
        for f, g in zip(dg.invariant_factors, dg.generators):
            # g lies in the dual lattice: G g is integral
            assert all(sum(x * c for x, c in zip(row, g)).denominator == 1 for row in L.gram)
            scaled = tuple(f * c for c in g)
            assert all(x.denominator == 1 for x in scaled)
            # no smaller multiple lands in the lattice
            for k in range(1, f):
                assert any((k * c).denominator != 1 for c in g)
        # the cyclic factors are independent: no nonzero combination with
        # 0 <= c_i < d_i lands in Z^n (brute force over the whole group)
        for cs in itertools.product(*map(range, dg.invariant_factors)):
            if any(cs):
                v = [sum(c * g[r] for c, g in zip(cs, dg.generators)) for r in range(L.rank)]
                assert any(x.denominator != 1 for x in v)
        done += 1


def test_degenerate_lattice_rejected():
    with pytest.raises(DegenerateLattice):
        discriminant_group(make_lattice(((0,),)))


# --- quadratic and bilinear values ---


def test_form_value_examples():
    assert discriminant_form_value(U, (Fraction(0), Fraction(0))) == 0
    assert discriminant_form_value(A1M, (Fraction(1, 2),)) == Fraction(3, 2)
    m4 = make_lattice(((-4,),))
    assert discriminant_form_value(m4, (Fraction(1, 2),)) == 1


def test_form_value_requires_dual_membership():
    with pytest.raises(NotInDualLattice):
        discriminant_form_value(A1M, (Fraction(1, 3),))
    # a float, a string or a bool never reaches the exact arithmetic; the
    # first such entry is named
    L = make_lattice(((2,),))
    for bad in (0.5, "1/2", True):
        with pytest.raises(NotInDualLattice) as err:
            discriminant_form_value(L, (bad,))
        assert str(err.value) == f"entry 0 is {bad!r}, not an int or a Fraction"
    with pytest.raises(NotInDualLattice, match=r"^entry 1 is 1\.0,"):
        discriminant_form_value(U, (Fraction(1, 2), 1.0))
    assert discriminant_form_value(L, (Fraction(1, 2),)) == Fraction(1, 2)
    assert discriminant_form_value(L, (1,)) == 0
    with pytest.raises(NotInDualLattice) as err:
        discriminant_form_value(U, (0,))
    assert str(err.value) == "vector length 1 does not match rank 2"


def test_form_values_land_in_canonical_windows():
    rng = random.Random(13)
    done = 0
    while done < 30:
        L = _rand_symmetric_lattice(rng, rng.randint(1, 3))
        if determinant(L) == 0:
            continue
        dg = discriminant_group(L)
        for g in dg.generators:
            q = discriminant_form_value(L, g)
            assert 0 <= q < 2
            assert q == oracles.reduce_mod2z(oracles.fraction_pairing(L.gram, g, g))
        done += 1


def test_polarization_identity():
    # q(g+h) - q(g) - q(h) = 2 b(g,h) in Q/2Z
    rng = random.Random(17)
    done = 0
    while done < 30:
        L = _rand_symmetric_lattice(rng, rng.randint(1, 3))
        if determinant(L) == 0:
            continue
        dg = discriminant_group(L)
        gens = dg.generators
        for g in gens:
            for h in gens:
                q_g = discriminant_form_value(L, g)
                q_h = discriminant_form_value(L, h)
                gh = tuple(a + b for a, b in zip(g, h))
                q_gh = discriminant_form_value(L, gh)
                b = oracles.fraction_pairing(L.gram, g, h)
                diff = q_gh - q_g - q_h - 2 * b
                assert diff.denominator == 1 and diff % 2 == 0
        done += 1


def _representative(rng, n, dg):
    # a coset representative that is not reduced: a random combination of
    # the generators plus an integer vector with negative and large entries
    v = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
    for g in dg.generators:
        c = rng.randint(-3, 3)
        v = [x + c * y for x, y in zip(v, g)]
    return v


def test_integer_pairings_match_fraction_oracle():
    rng = random.Random(29)
    lattices = dual = rejected = 0
    while lattices < 60:
        L = _rand_symmetric_lattice(rng, rng.randint(1, 4))
        if determinant(L) == 0:
            continue
        lattices += 1
        n = L.rank
        dg = discriminant_group(L)
        vectors = [_representative(rng, n, dg) for _ in range(4)]
        # rationals that are mostly not dual, and a pure integer vector
        vectors += [[Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 5, 6)))
                     for _ in range(n)] for _ in range(3)]
        vectors.append([rng.randint(-9, 9) for _ in range(n)])
        for g in vectors:
            h = rng.choice(vectors)
            for v in (g, [x + y for x, y in zip(g, h)]):
                expect = oracles.fraction_pairing(L.gram, v, v)
                if isinstance(expect, tuple):
                    i, pairing = expect
                    msg = f"pairing with basis vector {i} is {pairing}, not an integer"
                    with pytest.raises(NotInDualLattice) as err:
                        discriminant_form_value(L, v)
                    assert str(err.value) == msg
                    rejected += 1
                else:
                    assert discriminant_form_value(L, v) == oracles.reduce_mod2z(expect)
                    dual += 1
    assert dual > 200 and rejected > 100


# --- Milgram's formula ---


def _gauss_sum(L):
    """(sum over every class x of L*/L of exp(pi i q(x)), |L*/L|), the
    classes spanned by the generators of discriminant_group."""
    dg = discriminant_group(L)
    total = 0j
    for coeffs in itertools.product(*map(range, dg.invariant_factors)):
        x = [sum(c * g[k] for c, g in zip(coeffs, dg.generators)) for k in range(L.rank)]
        total += cmath.exp(1j * math.pi * discriminant_form_value(L, x))
    return total, dg.order


def test_milgram_formula_ties_signature_generators_and_form_values():
    # an even nondegenerate L of signature (p, m) has
    # sum_x exp(pi i q(x)) = sqrt|A| exp(pi i (p - m) / 4) over A = L*/L;
    # neighbouring values of p - m mod 8 move the right side by
    # 0.77 sqrt|A|, so a float tolerance of 1e-6 |A| decides it
    from test_involutions import _random_even_gram

    def check(L):
        p, m, _ = signature(L)
        total, order = _gauss_sum(L)
        expect = math.sqrt(order) * cmath.exp(1j * math.pi * (p - m) / 4)
        assert abs(total - expect) < 1e-6 * order, (L.gram, total, expect)

    rng = random.Random(53)
    lattices = 0
    while lattices < 300:
        g = _random_even_gram(rng)
        if g is not None:
            check(make_lattice(tuple(map(tuple, g))))
            lattices += 1
    # skewed non-unimodular block sums like the structure workload's, to
    # rank 22
    blocks = {"U": U.gram, "E8(-1)": E8M.gram, "A1(-1)": A1M.gram, "<2>": ((2,),),
              "<-4>": ((-4,),), "<-6>": ((-6,),), "U(2)": ((0, 2), (2, 0))}
    small = ("A1(-1)", "<2>", "<-4>", "<-6>", "U(2)")
    for _ in range(30):
        chosen = [blocks[b] for b in rng.sample(small, rng.randint(1, 3))]
        for b in rng.choices(("U", "E8(-1)", "U(2)"), k=rng.randint(0, 3)):
            if sum(map(len, chosen)) + len(blocks[b]) <= 22:
                chosen.append(blocks[b])
        n = sum(map(len, chosen))
        L = make_lattice(skewed_block_sum(rng, chosen, 2 * n))
        assert abs(determinant(L)) > 1
        check(L)


# --- Nikulin's existence conditions and direct sums ---

D4M = make_lattice(((-2, 1, 0, 0), (1, -2, 1, 1), (0, 1, -2, 0), (0, 1, 0, -2)))
U2 = make_lattice(((0, 2), (2, 0)))
PM2 = make_lattice(((2, 0), (0, -2)))


def _nikulin_broken(triple, sig):
    """The existence conditions that an even 2-elementary lattice with
    invariants (r, a, delta) and signature (t+, t-, 0) breaks (Nikulin
    1979, Thm. 3.6.2)."""
    r, a, delta = triple
    tp, tm, zero = sig
    s = (tp - tm) % 8
    conditions = (
        ("nondegenerate of rank r = t+ + t-", zero == 0 and r == tp + tm),
        ("a <= r and r = a mod 2", a <= r and (r - a) % 2 == 0),
        ("delta = 0 gives t+ - t- = 0 mod 4", delta or s % 4 == 0),
        ("a = 0 gives delta = 0 and t+ - t- = 0 mod 8", a or (delta == 0 and s == 0)),
        ("a = 1 gives t+ - t- = +-1 mod 8", a != 1 or s in (1, 7)),
        ("a = 2 and t+ - t- = 4 mod 8 give delta = 0", a != 2 or s != 4 or delta == 0),
        ("delta = 0 and a = r give t+ - t- = 0 mod 8", delta or a != r or s == 0),
    )
    return [name for name, holds in conditions if not holds]


def _unimodular_involutions():
    """The three K3 involutions and the 120 seeded involutions of
    test_involution_triple_oracle_on_unimodular_involutions."""
    from helpers import psi_minus, psi_split, random_unimodular_involution, sigma_s311_fixed

    rng = random.Random(37)
    return [psi_split(), psi_minus(), sigma_s311_fixed()] + [
        random_unimodular_involution(rng) for _ in range(120)]


def test_invariant_triples_meet_nikulins_existence_conditions():
    # both eigenlattices of an involution of an even unimodular lattice are
    # 2-elementary (their discriminant forms are anti-isometric)
    assert (two_elementary_invariants(S), signature(S)) == ((3, 1, 1), (1, 2, 0))
    cases = [S, U, A1M, E8M, U2, PM2, D4M, standard_lattice("LK3")]
    for psi in _unimodular_involutions():
        cases += [psi.fixed.induced_lattice(), psi.anti.induced_lattice()]
    premises = set()
    for L in cases:
        triple, sig = two_elementary_invariants(L), signature(L)
        assert not _nikulin_broken(triple, sig), (L.gram, triple, sig)
        r, a, delta = triple
        s = (sig[0] - sig[1]) % 8
        premises.update(name for name, met in (
            ("a = 0", a == 0), ("a = 1", a == 1), ("a = 2, s = 4", a == 2 and s == 4),
            ("delta = 0, 0 < a = r", not delta and 0 < a == r)) if met)
    # each conditional case is met at least once
    assert len(premises) == 4, premises


def _assert_direct_sum(parts, total):
    """Assert that (r, a, delta) and the Gauss sum of the lattice `total`
    come from those of its orthogonal summands `parts`."""
    r, a, delta = two_elementary_invariants(total)
    gauss, order = _gauss_sum(total)
    triples = [two_elementary_invariants(P) for P in parts]
    assert r == sum(t[0] for t in triples) and a == sum(t[1] for t in triples), triples
    assert delta == max(t[2] for t in triples), triples
    expect, expect_order = 1, 1
    for P in parts:
        part_gauss, part_order = _gauss_sum(P)
        expect *= part_gauss
        expect_order *= part_order
    assert order == expect_order and abs(gauss - expect) < 1e-6 * order, (total.gram, gauss, expect)


def test_direct_sums_add_r_and_a_take_the_max_delta_and_multiply_gauss_sums():
    rng = random.Random(61)
    pool = (U, U2, make_lattice(((2,),)), A1M, D4M, E8M)
    for _ in range(40):
        # at most four parts with a <= 2: at most 2^8 classes to walk
        parts = rng.choices(pool, k=rng.randint(2, 4))
        n = sum(P.rank for P in parts)
        total = make_lattice(skewed_block_sum(rng, [P.gram for P in parts], 2 * n))
        _assert_direct_sum(parts, total)
    fixed = [psi.fixed.induced_lattice() for psi in _unimodular_involutions()[3:]]
    for P, Q in zip(fixed[::2], fixed[1::2]):
        if two_elementary_invariants(P)[1] + two_elementary_invariants(Q)[1] <= 8:
            _assert_direct_sum([P, Q], direct_sum(P, Q))


# --- 2-elementary invariants ---


def test_invariant_triple_examples():
    assert two_elementary_invariants(S) == (3, 1, 1)
    assert two_elementary_invariants(U) == (2, 0, 0)
    assert two_elementary_invariants(A1M) == (1, 1, 1)
    assert two_elementary_invariants(E8M) == (8, 0, 0)


def test_invariant_triple_more_cases():
    # U(2): even, factors (2,2), integral form values
    u2 = make_lattice(((0, 2), (2, 0)))
    assert two_elementary_invariants(u2) == (2, 2, 0)
    # <2> + <-2>: q takes value 1/2 on a generator
    pm2 = make_lattice(((2, 0), (0, -2)))
    assert two_elementary_invariants(pm2) == (2, 2, 1)


def test_rejections():
    with pytest.raises(NotTwoElementary):
        two_elementary_invariants(make_lattice(((-4,),)))
    with pytest.raises(NotTwoElementary):
        two_elementary_invariants(direct_sum(U, make_lattice(((-6,),))))
    with pytest.raises(NotEven):
        two_elementary_invariants(standard_lattice("PicY"))


def test_a_at_most_r():
    rng = random.Random(23)
    pool = [U, A1M, make_lattice(((2,),)), make_lattice(((0, 2), (2, 0)))]
    for _ in range(25):
        L = pool[rng.randrange(len(pool))]
        for _ in range(rng.randint(0, 2)):
            L = direct_sum(L, pool[rng.randrange(len(pool))])
        r, a, delta = two_elementary_invariants(L)
        assert a <= r == L.rank


def _two_torsion_values(L):
    """q on every class x of L*/L with 2x = 0: a walk over all classes of
    discriminant_group, each valued by the Fraction reference
    discriminant_form_value."""
    dg = discriminant_group(L)
    values = []
    for cs in itertools.product(*map(range, dg.invariant_factors)):
        x = [sum(c * g[i] for c, g in zip(cs, dg.generators)) for i in range(L.rank)]
        if all((2 * v).denominator == 1 for v in x):
            values.append(discriminant_form_value(L, x))
    return values


def test_two_torsion_decisions_match_a_class_walk():
    rng = random.Random(43)
    lattices = odd = takes = 0
    while lattices < 200:
        n = rng.randint(1, 3)
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = 2 * rng.randint(-4, 4)
            for j in range(i + 1, n):
                g[i][j] = g[j][i] = rng.randint(-3, 3)
        L = make_lattice(tuple(map(tuple, g)))
        if not 0 < abs(determinant(L)) <= 300:
            continue
        lattices += 1
        odd += any(d % 2 for d in discriminant_group(L).invariant_factors)
        expect = 1 in _two_torsion_values(L)
        takes += expect
        assert _two_torsion_takes_one(L, _glue_classes(L)) == expect, L.gram
    assert odd >= 40 and 20 <= takes <= 180
    # delta of 2-elementary lattices in skewed bases, against every class
    d4 = make_lattice(((-2, 1, 0, 0), (1, -2, 1, 1), (0, 1, -2, 0), (0, 1, 0, -2)))
    pool = [U, A1M, make_lattice(((2,),)), make_lattice(((0, 2), (2, 0))), d4]
    seen = set()
    for _ in range(60):
        L = pool[rng.randrange(len(pool))]
        for _ in range(rng.randint(0, 2)):
            L = direct_sum(L, pool[rng.randrange(len(pool))])
        gram, _ = _conjugate(rng, L.gram, la.identity(L.rank))
        L = make_lattice(tuple(map(tuple, gram)))
        r, a, delta = two_elementary_invariants(L)
        values = _two_torsion_values(L)
        # every class has order <= 2
        assert len(values) == abs(determinant(L)) == 2 ** a, L.gram
        assert (r, delta) == (L.rank, int(any(v.denominator != 1 for v in values))), L.gram
        assert _two_torsion_takes_one(L, _glue_classes(L)) == (1 in values), L.gram
        seen.add((delta, 1 in values))
    assert seen == {(0, False), (0, True), (1, False), (1, True)}


# --- involution route to delta ---


def test_delta_via_involution_small_examples():
    ident = make_involution(U, ((1, 0), (0, 1)))
    swap = make_involution(U, ((0, 1), (1, 0)))
    assert delta_via_involution(U, ident) == 0
    assert delta_via_involution(U, swap) == 1
    with pytest.raises(EmbeddingMismatch, match="involution acts on a different lattice"):
        delta_via_involution(make_lattice(((2, 1), (1, 2))), swap)
    # random involutions, against the parity of z.sigma(z) over {0,1}^n,
    # which covers every z since the parity depends on z mod 2 only
    from helpers import random_involution

    rng = random.Random(31)
    seen = set()
    for _ in range(60):
        psi = random_involution(rng)
        L = psi.ambient
        expect = int(any(inner_product(L, z, la.mat_vec(psi.matrix, z)) % 2
                         for z in itertools.product((0, 1), repeat=L.rank)))
        assert delta_via_involution(L, psi) == expect, psi.matrix
        seen.add(expect)
    assert seen == {0, 1}


def test_delta_via_involution_agrees_with_intrinsic_on_unimodular_ambients():
    """The classification equivalence: for an involution of an even
    unimodular lattice whose fixed part is 2-elementary, the intrinsic
    delta of the fixed part equals the parity of z -> z.sigma(z).
    """
    from helpers import psi_minus, psi_split, sigma_s311_fixed, lk3

    uu = direct_sum(U, U)
    block_swap = make_involution(
        uu,
        ((0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0)),
    )
    e8_id = make_involution(E8M, la.identity(8))
    cases = [
        (U, make_involution(U, ((1, 0), (0, 1)))),
        (U, make_involution(U, ((0, 1), (1, 0)))),
        (uu, block_swap),
        (E8M, e8_id),
        (lk3(), psi_split()),
        (lk3(), psi_minus()),
        (lk3(), sigma_s311_fixed()),
    ]
    for L, psi in cases:
        fixed, _ = eigenlattices(psi)
        intrinsic = two_elementary_invariants(fixed.induced_lattice())[2]
        assert delta_via_involution(L, psi) == intrinsic, (L.name, psi.matrix)


def test_involution_triple_oracle_on_unimodular_involutions():
    from helpers import psi_minus, psi_split, random_unimodular_involution, sigma_s311_fixed

    rng = random.Random(37)
    cases = [psi_split(), psi_minus(), sigma_s311_fixed()]
    cases += [random_unimodular_involution(rng) for _ in range(120)]
    seen = set()
    for psi in cases:
        L = psi.ambient
        assert abs(determinant(L)) == 1
        triple = two_elementary_invariants(psi.fixed.induced_lattice())
        assert oracles.involution_triple(L.gram, psi.matrix) == triple, psi.matrix
        seen.add(triple)
    assert len(seen) >= 10, seen


def test_delta_via_involution_frozen_k3_value():
    from helpers import lk3, sigma_s311_fixed

    assert delta_via_involution(lk3(), sigma_s311_fixed()) == 1
