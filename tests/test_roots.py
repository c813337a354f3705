import collections
import gc
import itertools
import random
from fractions import Fraction
from operator import mul, neg

import pytest

import oracles
from zlattice import intlinalg as la, roots
from zlattice import (
    E8_CARTAN,
    ComplementNotDefinite,
    EnumerationOverflow,
    NotDefinite,
    SignMismatch,
    bounded_vectors_of_norm,
    canonical_order,
    constrained_roots,
    direct_sum,
    inner_product,
    make_lattice,
    norm,
    standard_lattice,
    vectors_of_norm,
)

A1M = standard_lattice("A1(-1)")
E8M = standard_lattice("E8(-1)")
S = standard_lattice("S311")
U = standard_lattice("U")


# --- exact enumeration ---


def test_rank_one_roots():
    res = vectors_of_norm(A1M, -2)
    assert res.count == 2
    assert res.vectors == ((1,), (-1,))
    assert res.complete


def test_e8_root_count():
    res = vectors_of_norm(E8M, -2)
    assert res.count == 240
    assert res.complete
    assert len(set(res.vectors)) == 240


def test_e8_norm_minus_four_count():
    # second theta-series coefficient of E8 is 2160
    assert vectors_of_norm(E8M, -4).count == 2160


def test_two_a1_norm_minus_four():
    L = direct_sum(A1M, A1M)
    res = vectors_of_norm(L, -4)
    assert res.count == 4
    assert set(res.vectors) == {(1, 1), (1, -1), (-1, 1), (-1, -1)}


def test_indefinite_rejected():
    with pytest.raises(NotDefinite):
        vectors_of_norm(U, -2)


def test_sign_mismatch():
    with pytest.raises(SignMismatch):
        vectors_of_norm(A1M, 2)
    with pytest.raises(SignMismatch):
        vectors_of_norm(A1M, 0)
    pos = make_lattice(((2,),))
    with pytest.raises(SignMismatch):
        vectors_of_norm(pos, -2)
    assert vectors_of_norm(pos, 2).count == 2


def test_positive_definite_side():
    L = make_lattice(((2, 1), (1, 2)))  # A2
    assert vectors_of_norm(L, 2).count == 6


def _use_lll(monkeypatch, lll):
    # definite searches take the LLL path from rank _LLL_MIN_RANK on: from
    # rank 1 on, or from a rank that no lattice here reaches
    monkeypatch.setattr(roots, "_LLL_MIN_RANK", 1 if lll else 1 << 30)


def test_lll_path_matches_plain(monkeypatch):
    _use_lll(monkeypatch, False)
    res_plain = vectors_of_norm(E8M, -2)
    _use_lll(monkeypatch, True)
    res_lll = vectors_of_norm(E8M, -2)
    assert res_plain.vectors == res_lll.vectors


def _count_factorizations(monkeypatch):
    calls = collections.Counter()
    for fname in ("ldl", "lll_reduce_gram"):
        def counted(*a, _orig=getattr(la, fname), _name=fname):
            calls[_name] += 1
            return _orig(*a)
        monkeypatch.setattr(la, fname, counted)
    return calls


def test_rank_rule_picks_lll_and_hands_on_its_factorization(monkeypatch):
    # below rank 10 one ldl and no LLL; from it on, LLL once, on the one
    # negative definite factorization that decided the sign, and the search
    # runs on what LLL left of it
    calls = _count_factorizations(monkeypatch)
    assert roots._LLL_MIN_RANK == 10
    assert vectors_of_norm(E8M, -2).count == 240
    assert calls == {"ldl": 1}
    calls.clear()
    assert vectors_of_norm(direct_sum(E8M, E8M), -2).count == 480
    assert calls == {"ldl": 1, "lll_reduce_gram": 1}
    calls.clear()
    # a rank-15 complement: kernel, one ldl and one LLL
    assert constrained_roots(direct_sum(E8M, E8M), ((1,) + (0,) * 15,), -2).count == 324
    assert calls == {"ldl": 1, "lll_reduce_gram": 1}


def test_indefinite_or_wrong_sign_search_never_reaches_lll(monkeypatch):
    # LLL checks no minor: the factorization that decides the sign refuses
    # an indefinite form, or a norm of the wrong sign, before LLL would run
    calls = _count_factorizations(monkeypatch)
    with pytest.raises(NotDefinite):
        vectors_of_norm(standard_lattice("LK3"), -2)
    with pytest.raises(SignMismatch):
        vectors_of_norm(direct_sum(E8M, E8M), 2)
    assert calls == {"ldl": 2}


# --- canonical order ---


def test_canonical_order_shape():
    res = vectors_of_norm(E8M, -2)
    vs = res.vectors
    # closed under negation
    assert set(vs) == {tuple(-c for c in v) for v in vs}
    # reversing then negating reproduces the list
    assert [tuple(-c for c in v) for v in reversed(vs)] == list(vs)
    # each +/- pair: positive first nonzero emitted before its negative
    for v in vs:
        neg = tuple(-c for c in v)
        first = next(c for c in v if c != 0)
        if first > 0:
            assert vs.index(v) < vs.index(neg)


def test_canonical_order_function_is_idempotent():
    vs = vectors_of_norm(E8M, -2).vectors
    shuffled = list(vs)
    random.Random(3).shuffle(shuffled)
    assert canonical_order(shuffled) == vs
    assert canonical_order(vs) == vs


def test_canonical_order_writes_the_negatives():
    # any one member of each pair, in any order, gives the full list
    vs = vectors_of_norm(E8M, -2).vectors
    rng = random.Random(5)
    half = [v if rng.random() < 0.5 else tuple(map(neg, v)) for v in vs[: len(vs) // 2]]
    rng.shuffle(half)
    assert any(next(c for c in v if c) < 0 for v in half)
    assert canonical_order(half) == vs
    assert canonical_order(half + list(vs)) == vs
    assert canonical_order([(0, 0), (0, -1)]) == ((0, 1), (0, 0), (0, -1))
    assert canonical_order([]) == ()


def _canonical_order_reference(vectors):
    # the definition that negated each representative for the output
    vs = list(map(tuple, vectors))
    zero = (0,) * len(vs[0]) if vs else ()
    reps = {v if v >= zero else tuple(map(neg, v)) for v in vs}
    mid = [zero] if zero in reps else []
    reps = sorted(reps - {zero})
    return tuple(reps + mid + [tuple(map(neg, v)) for v in reversed(reps)])


def test_canonical_order_matches_the_reference():
    rng = random.Random(17)
    assert canonical_order([]) == _canonical_order_reference([]) == ()
    for _ in range(300):
        n = rng.randint(1, 4)
        pool = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(1, 8))]
        vectors = [rng.choice(pool) for _ in range(rng.randint(1, 12))]  # duplicates
        vectors += [tuple(map(neg, v)) for v in vectors if rng.random() < 0.3]  # both signs
        if rng.random() < 0.3:
            vectors.append((0,) * n)
        rng.shuffle(vectors)
        if rng.random() < 0.5:
            vectors = [list(v) for v in vectors]
        got = canonical_order(vectors)
        assert got == _canonical_order_reference(vectors)
        assert all(type(v) is tuple for v in got)


# --- constrained enumeration ---


def test_constrained_roots_s311():
    res = constrained_roots(S, ((0, 0, 1), (1, 1, 0)), -2)
    assert res.vectors == ((0, 1, 0), (0, -1, 0))


def test_constrained_roots_extended_model():
    N = direct_sum(S, make_lattice(((-2,),)))
    res = constrained_roots(N, ((0, 0, 1, 0), (1, 1, 0, 0)), -2)
    assert res.count == 4
    assert set(res.vectors) == {
        (0, 1, 0, 0), (0, -1, 0, 0), (0, 0, 0, 1), (0, 0, 0, -1)
    }
    for v in res.vectors:
        assert norm(N, v) == -2
        assert inner_product(N, v, (0, 0, 1, 0)) == 0
        assert inner_product(N, v, (1, 1, 0, 0)) == 0


def test_constrained_roots_degenerate_complement():
    with pytest.raises(ComplementNotDefinite):
        constrained_roots(U, ((1, 0),), -2)


def test_constrained_roots_empty_on_sign_mismatch():
    # complement negative definite, positive norm requested: empty by convention
    res = constrained_roots(S, ((0, 0, 1), (1, 1, 0)), 2)
    assert res.count == 0 and res.complete


# --- box scans ---


def test_box_scan_u():
    res = bounded_vectors_of_norm(U, -2, 2)
    assert (1, -1) in res.vectors and (-1, 1) in res.vectors
    assert not res.complete
    for v in res.vectors:
        assert norm(U, v) == -2
        assert max(abs(c) for c in v) <= 2


def test_box_scan_equals_exact_on_definite():
    exact = vectors_of_norm(A1M, -2)
    boxed = bounded_vectors_of_norm(A1M, -2, 5)
    assert exact.vectors == boxed.vectors


def test_box_scan_e8_radius_three():
    exact = vectors_of_norm(E8M, -2)
    boxed = bounded_vectors_of_norm(E8M, -2, 3)
    assert boxed.count == 240
    assert boxed.vectors == exact.vectors


def test_box_scan_matches_bruteforce_oracle():
    rng = random.Random(13)
    cases = []
    for k in range(60):
        n = rng.randint(1, 5)
        top = 4 if k % 3 == 0 else 2 ** rng.randint(40, 62)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = rng.randint(-top, top)
        if k % 2:
            m[0][0] = 0
        bound = rng.randint(1, 3 if n <= 3 else 2)
        if top == 4:
            target = rng.choice((-4, -2, 0, 2, 4))
        else:
            # the norm of a box vector, so that huge entries still give hits
            v = [rng.randint(-bound, bound) for _ in range(n)]
            target = sum(v[i] * m[i][j] * v[j] for i in range(n) for j in range(n))
        cases.append((m, target, bound))
    # large bounds: a long x_1 loop in rank 2, and rank 1 solved at once
    cases.append(([[0, 3], [3, -2]], -2 * 129 * 129 + 6 * 5 * 129, 130))
    cases.append(([[-2]], -2 * 32900 * 32900, 33000))
    for m, target, bound in cases:
        L = make_lattice(tuple(tuple(r) for r in m))
        got = bounded_vectors_of_norm(L, target, bound)
        expect = oracles.brute_box_vectors(m, target, bound)
        assert set(got.vectors) == set(expect)
        assert got.count == len(expect)
        # the scan itself emits each +- pair once, as either member, and
        # the zero vector
        zero = (0,) * len(m)
        reps = sorted(max(v, tuple(-c for c in v)) for v in roots._box_scan(L.gram, target, bound))
        assert reps == [v for v in expect if v >= zero]
    assert any(target == 0 for _, target, _ in cases)


def test_box_scan_equals_enumeration_on_skewed_definite_forms():
    # skewed bases of E8(-1) and A1(-1)^k, in some of which no two tails
    # x_2.. of the box pair alike with the first two coordinates; inside the
    # a priori coordinate bound the box holds every vector of the norm
    a1 = [tuple(tuple(-2 * (i == j) for j in range(k)) for i in range(k)) for k in (4, 5, 6)]
    checked = distinct = 0
    for base, seeds in ((E8M.gram, (2, 7)), (a1[0], (2, 3)), (a1[1], (10, 16)), (a1[2], range(10))):
        for seed in seeds:
            rng = random.Random(seed)
            gram = _skew(rng, base, rng.randint(2, 12))
            L = make_lattice(gram)
            for target in (-2, -4):
                bound = oracles.coordinate_bound(gram, target)
                if bound > 3:
                    continue
                bound = max(bound, 1)
                assert bounded_vectors_of_norm(L, target, bound).vectors == \
                    vectors_of_norm(L, target).vectors, (gram, target)
                checked += 1
                tails = list(itertools.product(range(-bound, bound + 1), repeat=len(gram) - 2))
                pairings = {tuple(sum(map(mul, gram[r][2:], x)) for r in (0, 1)) for x in tails}
                distinct += len(pairings) == len(tails)
    assert checked >= 20 and distinct >= 5


def test_box_scan_bound_validation():
    for bad in (0, -1, 2.5, True, "3"):
        with pytest.raises(ValueError, match="bound must be a positive integer"):
            bounded_vectors_of_norm(U, -2, bad)


def test_norm_validation():
    # refused before any search, rather than failing inside it or answering
    for bad in (-2.0, True, "x"):
        for call in (lambda: vectors_of_norm(E8M, bad),
                     lambda: constrained_roots(E8M, [], bad),
                     lambda: bounded_vectors_of_norm(E8M, bad, 1)):
            with pytest.raises(ValueError, match="norm must be an integer"):
                call()


def test_box_scan_overflow_guard():
    with pytest.raises(EnumerationOverflow):
        bounded_vectors_of_norm(E8M, -2, 10**4)


def test_rank_zero_cases():
    Z = make_lattice(())
    assert vectors_of_norm(Z, -2).count == 0
    assert bounded_vectors_of_norm(Z, 0, 3).vectors == ((),)
    assert bounded_vectors_of_norm(Z, -2, 3).count == 0


# --- oracle equivalence on random definite lattices ---


def _random_neg_definite(rng, n):
    a = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
    g = [[-(sum(a[k][i] * a[k][j] for k in range(n)) + (2 if i == j else 0))
          for j in range(n)] for i in range(n)]
    return make_lattice(tuple(tuple(r) for r in g))


def test_exact_enumeration_equals_box_oracle():
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(1, 4)
        L = _random_neg_definite(rng, n)
        target = rng.choice((-2, -4, -6))
        exact = vectors_of_norm(L, target)
        if exact.count == 0:
            radius = 1
        else:
            radius = max(max(abs(c) for c in v) for v in exact.vectors)
        boxed = bounded_vectors_of_norm(L, target, radius + 1)
        assert exact.vectors == boxed.vectors


def _skew(rng, gram, ops):
    # T^t G T for T a product of `ops` column operations col_i += +-col_j
    n = len(gram)
    t = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(ops):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        for row in t:
            row[i] += c * row[j]
    return tuple(
        tuple(sum(t[k][i] * gram[k][l] * t[l][j] for k in range(n) for l in range(n))
              for j in range(n))
        for i in range(n)
    )


def _skewed_definite(rng, n, sign):
    # A^t A + I, then a unimodular skew, so that the ldl multipliers have
    # nontrivial denominators
    a = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)]
    g = [[sign * (sum(a[k][i] * a[k][j] for k in range(n)) + (i == j)) for j in range(n)]
         for i in range(n)]
    return _skew(rng, g, min(n - 1, 3))


@pytest.mark.parametrize("sign", (1, -1))
def test_enumeration_equals_a_priori_box_oracle(sign, monkeypatch):
    # the box comes from G^{-1} (sympy), not from the enumerator's output
    rng = random.Random(41 if sign > 0 else 42)
    fractional = 0
    for n in range(1, 7):
        for _ in range(3):
            gram = _skewed_definite(rng, n, sign)
            L = make_lattice(gram)
            d, lam = la.ldl(gram)
            fractional += any(lam[j][i] % d[i] for i in range(n) for j in range(i + 1, n))
            ortho = tuple(rng.randint(-1, 1) for _ in range(n))
            # the norm of a basis vector, so the answer is never empty, and
            # twice it, which gives level 1 more x_1 values and the x_0
            # equation more pairs of roots
            least = min((gram[i][i] for i in range(n)), key=abs)
            for target in (least, 2 * least):
                expect = canonical_order(oracles.brute_box_vectors(
                    gram, target, oracles.coordinate_bound(gram, target)))
                for lll in (False, True):
                    _use_lll(monkeypatch, lll)
                    assert vectors_of_norm(L, target).vectors == expect
                    # the search emits one member of each pair, the same
                    # list whether it writes x itself or maps it through
                    # the identity basis
                    raw = roots._definite_vectors(gram, target, None)
                    assert len(set(raw)) == len(raw) == len(expect) // 2
                    assert not set(raw) & {tuple(map(neg, v)) for v in raw}
                    assert roots._definite_vectors(gram, target, la.identity(n)) == raw
                monkeypatch.undo()
                perp = [v for v in expect if inner_product(L, v, ortho) == 0]
                assert constrained_roots(L, (ortho,), target).vectors == canonical_order(perp)
    assert fractional >= 6


def test_definite_search_emits_canonical_order():
    # below rank 10 the walk runs over reversed coordinates, so it emits
    # exactly the representatives (first nonzero coordinate positive) in
    # ascending order; a sort would hide a wrong order, so read it raw
    rng = random.Random(4321)
    pairs = 0
    for trial in range(220):
        n = 1 + trial % 9
        sign = 1 if trial % 2 else -1
        gram = _skewed_definite(rng, n, sign)
        zero = (0,) * n
        least = min((gram[i][i] for i in range(n)), key=abs)
        for target in (least, 2 * least) if n <= 6 else (least,):
            raw = roots._definite_vectors(gram, target, None)
            assert raw or target != least
            assert all(v > zero for v in raw)
            assert all(a < b for a, b in zip(raw, raw[1:]))
            assert roots._definite_vectors(gram, target, la.identity(n)) == raw
            pairs += len(raw) > 1
    assert pairs >= 100


def test_definite_path_builds_no_fraction(monkeypatch):
    made = []
    new = Fraction.__new__

    def counting(cls, *args, **kw):
        made.append(args)
        return new(cls, *args, **kw)

    monkeypatch.setattr(Fraction, "__new__", counting)
    assert Fraction(1, 2) and made
    made.clear()
    rng = random.Random(7)
    pos = _skewed_definite(rng, 6, 1)
    la.inertia(pos)
    la.lll_reduce_gram(*la.ldl(pos))
    N = direct_sum(S, E8M)
    assert constrained_roots(N, ((0, 0, 1) + (0,) * 8, (1, 1, 0) + (0,) * 8), -2).count == 242
    for sign in (1, -1):
        gram = _skewed_definite(rng, 6, sign)
        L = make_lattice(gram)
        for lll in (False, True):
            _use_lll(monkeypatch, lll)
            assert vectors_of_norm(L, gram[0][0]).count > 0
    assert made == []


def test_enumeration_leaves_no_reference_cycles(monkeypatch):
    N = direct_sum(S, E8M)
    ortho = ((0, 0, 1) + (0,) * 8, (1, 1, 0) + (0,) * 8)
    gc.collect()
    gc.disable()
    try:
        vectors_of_norm(E8M, -2)
        _use_lll(monkeypatch, True)
        vectors_of_norm(E8M, -2)
        monkeypatch.undo()
        constrained_roots(N, ortho, -2)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_node_cap_raises_overflow(monkeypatch):
    # every x_i fixed at a level >= 1 and every emitted x_0 is one node.
    # Below rank 10 the walk runs over reversed coordinates: E8(-1) in the
    # dual basis visits 369 nodes at norm -2 and 2614 at -4, in the
    # simple-root basis (the negated Cartan matrix) 370 and 2620, and the
    # S311 + E8(-1) complement, written in the ambient basis, 379 (rank 9).
    # E8(-1) + A1(-1)^2 goes through LLL in the given order (rank 10), and
    # the E8(-1)^2 complement does both (rank 15)
    monkeypatch.setattr(roots, "_MAX_FP_NODES", 1000)
    assert vectors_of_norm(E8M, -2).count == 240
    with pytest.raises(EnumerationOverflow, match="reached 1001 nodes"):
        vectors_of_norm(E8M, -4)
    # in rank 2 the x_1 loop is the whole walk, so only its own check stops
    # it early: the check after a hit would first see about 2800 nodes
    with pytest.raises(EnumerationOverflow, match=r"reached 1001 nodes in rank 2 \(limit 1000\)"):
        vectors_of_norm(direct_sum(A1M, A1M), -2 * 10**8)
    roots_basis = make_lattice(tuple(tuple(-c for c in row) for row in E8_CARTAN))
    e8_2a1 = direct_sum(direct_sum(E8M, A1M), A1M)
    N = direct_sum(S, E8M)
    n_ortho = ((0, 0, 1) + (0,) * 8, (1, 1, 0) + (0,) * 8)
    E8E8 = direct_sum(E8M, E8M)
    cases = (
        (lambda: vectors_of_norm(E8M, -2), 240, 369, 8),
        (lambda: vectors_of_norm(E8M, -4), 2160, 2614, 8),
        (lambda: vectors_of_norm(roots_basis, -2), 240, 370, 8),
        (lambda: vectors_of_norm(roots_basis, -4), 2160, 2620, 8),
        (lambda: vectors_of_norm(e8_2a1, -2), 244, 389, 10),
        (lambda: constrained_roots(N, n_ortho, -2), 242, 379, 9),
        (lambda: constrained_roots(E8E8, ((1,) + (0,) * 15,), -2), 324, 1343, 15),
    )
    for call, count, nodes, rank in cases:
        monkeypatch.setattr(roots, "_MAX_FP_NODES", nodes)
        assert call().count == count
        monkeypatch.setattr(roots, "_MAX_FP_NODES", nodes - 1)
        with pytest.raises(EnumerationOverflow,
                           match=rf"reached {nodes} nodes in rank {rank} \(limit {nodes - 1}\)"):
            call()


def test_high_rank_counts_match_theta_series(monkeypatch):
    # E8(-1) + A1(-1)^k has theta series (1 + 240 q + 2160 q^2 + ...)
    # (1 + 2 q + ...)^k: 240 + 2k vectors of norm -2 and
    # 2160 + 480k + 2k(k - 1) of norm -4, in any basis
    rng = random.Random(2211)
    L = E8M
    for k in range(10):
        gram = _skew(rng, L.gram, L.rank)
        for m, count in ((-2, 240 + 2 * k), (-4, 2160 + 480 * k + 2 * k * (k - 1))):
            sides = []
            for lll in (False, True):
                _use_lll(monkeypatch, lll)
                sides.append(vectors_of_norm(make_lattice(gram), m).vectors)
            monkeypatch.undo()
            vs = sides[0]
            assert sides[1] == vs
            assert len(vs) == len(set(vs)) == count
            assert set(vs) == {tuple(map(neg, v)) for v in vs}
            for v in vs:
                assert sum(map(mul, v, (sum(map(mul, row, v)) for row in gram))) == m
        L = direct_sum(L, A1M)


def test_every_vector_has_requested_norm():
    rng = random.Random(53)
    for _ in range(15):
        n = rng.randint(1, 4)
        L = _random_neg_definite(rng, n)
        for target in (-2, -4):
            for v in vectors_of_norm(L, target).vectors:
                assert norm(L, v) == target


def test_root_count_additivity_for_a1_powers():
    L = A1M
    for k in range(2, 6):
        L = direct_sum(L, A1M)
        assert vectors_of_norm(L, -2).count == 2 * k
