"""The kernels against brute force over every word.

The oracle enumerates words with ``itertools.product`` and evaluates each
one on its own (``word_product``, ``operator_norm``, ``spectral_radius``,
rotations spelled out in ``is_canonical``), in the family's stored dtype
(float64 for a real family), which the scan is given too.  Ties go to the
shortest, then lexicographically least, word whose value is within 1e-12
of the maximum.  Bounds may drift by rounding only; words, node counts
and the completion flag must be identical.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from jsrkit import MatrixFamily, _kernels
from jsrkit.config import RENORM_EVERY
from jsrkit.matrix_core import operator_norm, spectral_radius, word_product

from conftest import gate_families, prefix_floor, random_family

REL = 1e-12


def is_canonical(word):
    """Is the word <= each of its cyclic rotations, spelled out?"""
    return all(word <= word[s:] + word[:s] for s in range(1, len(word)))


def is_primitive(word):
    """Is the word strictly below each of its cyclic rotations (a Lyndon
    word, so no power of a shorter word)?"""
    return all(word < word[s:] + word[:s] for s in range(1, len(word)))


def lyndon_prefix(word):
    """The length p of the longest Lyndon prefix when the word is a
    prenecklace, a prefix of the necklace (word[:p])^j; else 0."""
    p = max(q for q in range(1, len(word) + 1) if is_primitive(word[:q]))
    return p if word == (word[:p] * len(word))[:len(word)] else 0


def _first_near_max(scored, tie):
    """(value, word) of the first entry within tie of the largest value."""
    top = max(v for v, _ in scored)
    return next((v, w) for v, w in scored if v >= top - tie)


def brute_scan(mats, depth, budget=10**6, dedup=True, prune=True):
    """The scan's answers from every word; with ``dedup`` spectral values
    are taken on canonical words only, without it on every word.  The
    node count is that of the pruned walk: before a level of at least 1024
    words, a parent whose Frobenius norm lies below ``prefix_floor`` (by
    the 1e-10 margin, from 1e-140 up) is not extended.  A walk that loses
    a whole level, or whose level maximum ends below the witness, is
    redone with every word (``prune=False``).  The walk ends, complete,
    at the first level where the least averaged level maximum so far lies
    within 1e-12 of the witness, relative (0 and 0 count as closed)."""
    fam = MatrixFamily(mats)
    k = fam.size
    max_rho = np.zeros(depth)
    max_norm = np.zeros(depth)
    rhos = []  # (value, word), shortest then lexicographic
    tops, built, pruned = [], [()], False
    nodes, complete = 0, True
    for n in range(1, depth + 1):
        level = [u + (a,) for u in built for a in range(1, k + 1)]
        if nodes + len(level) > budget:
            complete = False
            break
        nodes += len(level)
        tops.append(0.0)
        for w in itertools.product(range(1, k + 1), repeat=n):
            p = word_product(fam, w)
            nrm = operator_norm(p)
            tops[-1] = max(tops[-1], nrm)
            max_norm[n - 1] = max(max_norm[n - 1], nrm ** (1.0 / n))
            if dedup and not is_canonical(w):
                continue
            av = spectral_radius(p) ** (1.0 / n)
            max_rho[n - 1] = max(max_rho[n - 1], av)
            rhos.append((av, w))
        best = max(v for v, _ in rhos)
        witness = _first_near_max(rhos, 1e-12 * max(best, 1.0))[0]
        upper = min(max_norm[:n])
        if abs(upper - witness) <= 1e-12 * witness:  # closed
            break
        if prune and n < depth and len(level) * k >= 1024 and best > 0.0:
            floor = prefix_floor(tops, n, depth, best) * (1.0 - 1e-10)
            fro = [np.linalg.norm(word_product(fam, w)) for w in level]
            built = [w for w, f in zip(level, fro) if f >= floor or f < 1e-140]
            if not built:
                return brute_scan(mats, depth, budget, dedup, prune=False)
            pruned |= len(built) < len(level)
        else:
            built = level
    best_val, best_word = _first_near_max(rhos, 1e-12 * max(max_rho.max(), 1.0))
    if pruned and np.any(max_norm[:len(tops)] < best_val * (1.0 - 1e-11)):
        return brute_scan(mats, depth, budget, dedup, prune=False)
    return max_rho, max_norm, best_val, best_word, nodes, complete


def assert_matches_brute(mats, depth, budget=10**6, oracle_dedup=True):
    """The scan values canonical words only; an oracle that values every
    word (``oracle_dedup=False``) must give the same answers, since a
    rotation has the same spectral radius and the least rotation comes
    first."""
    mats = MatrixFamily(mats).mats
    res = _kernels.scan_words(mats, depth, budget)
    (o_rho, o_norm, o_best_val, o_best_word,
     o_nodes, o_complete) = brute_scan(mats, depth, budget, oracle_dedup)
    assert res.nodes == o_nodes
    assert res.complete == o_complete
    # max_rho is the running maximum over the scanned levels, 0 past them
    o_rho[:res.levels] = np.maximum.accumulate(o_rho[:res.levels])
    np.testing.assert_allclose(res.max_rho, o_rho, rtol=REL, atol=0.0)
    np.testing.assert_allclose(res.max_norm, o_norm, rtol=REL, atol=0.0)
    assert res.best_word == o_best_word
    assert res.best_val == pytest.approx(o_best_val, rel=REL, abs=0.0)


def complex_family(seed, k, d=3):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((k, d, d))
            + 1j * rng.standard_normal((k, d, d))) / d


DEPTH_FOR_K = {1: 8, 2: 7, 3: 5, 4: 4}


class TestScanEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("oracle_dedup", [True, False])
    def test_per_depth_maxima_agree(self, seed, oracle_dedup):
        # real families, K = 1..4
        k = seed + 1
        mats = random_family(seed, k=k, d=2 + seed % 2).mats
        assert_matches_brute(mats, DEPTH_FOR_K[k], oracle_dedup=oracle_dedup)

    @pytest.mark.parametrize("seed", range(4))
    def test_best_word_agrees(self, seed):
        # complex families, K = 1..4
        k = seed + 1
        assert_matches_brute(complex_family(seed, k), DEPTH_FOR_K[k])

    @pytest.mark.parametrize("k", [2, 3])
    def test_complex_without_dedup(self, k):
        # the oracle values every word, the scan canonical words only
        assert_matches_brute(complex_family(20 + k, k), DEPTH_FOR_K[k],
                             oracle_dedup=False)

    @pytest.mark.parametrize("seed", [6, 19, 25])
    def test_rotation_ties_go_to_least_rotation(self, seed):
        # over every word each rotation of the best word ties exactly; on
        # these families rounding puts a later rotation a few ulps ahead,
        # and the tie still goes to the least rotation, the scan's word
        mats = random_family(seed, k=2, d=3).mats
        assert_matches_brute(mats, 5, oracle_dedup=False)

    def test_max_norm_word_agrees(self):
        # unscaled, so the largest product norm sits at the deepest level
        mats = random_family(11, k=3, scale=1.5).mats
        assert_matches_brute(mats, 4)

    @pytest.mark.parametrize("extra", [0, -1])
    def test_budget_cut_at_level_boundary(self, extra):
        # a budget of exactly levels 1..3 scans them; one node less stops
        # after level 2
        mats = random_family(5, k=3).mats
        budget = 3 + 9 + 27 + extra
        assert_matches_brute(mats, 5, budget=budget)
        res = _kernels.scan_words(np.ascontiguousarray(mats), 5, budget)
        assert res.nodes == (39 if extra == 0 else 12) and not res.complete
        assert res.levels == (3 if extra == 0 else 2)


class TestWitnessRule:
    @pytest.mark.parametrize("mats", [
        [[[1.0, 1.0], [0.0, 0.5]]],
        [[[1.0, 0.5], [0.0, 0.3]], [[0.5, 0.5], [0.0, 0.2]],
         [[0.2, 0.5], [0.0, 0.9]]]])
    def test_letter_witness_values_level_one_only(self, mats, monkeypatch):
        # no Lyndon word past length 1 for one letter, and no word of an
        # upper triangular family beats its largest diagonal entry: eigvals
        # runs once; the shears keep every level maximum above 1, so the
        # bracket stays open to depth 6
        values_of, calls = _counting(_kernels.spectral_radii)
        monkeypatch.setattr(_kernels, "spectral_radii", values_of)
        mats = np.asarray(mats)
        res = _kernels.scan_words(mats, 6, 10**6)
        assert calls == [len(mats)] and res.levels == 6
        assert res.best_word == (1,) and res.best_val == 1.0
        np.testing.assert_array_equal(res.max_rho, np.ones(6))


class TestScreenWorstCases:
    @pytest.mark.parametrize("seed, cplx", [(0, False), (2, True)])
    def test_equal_norms_nothing_screened(self, seed, cplx):
        # scaled orthogonal/unitary letters: every word of a level has the
        # same norm and spectral radius, so the whole level survives the
        # screen and ties go to the first word
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((3, 3, 3))
        if cplx:
            z = z + 1j * rng.standard_normal((3, 3, 3))
        mats = 0.9 * np.stack([np.linalg.qr(m)[0] for m in z])
        assert_matches_brute(mats, 5)
        res = _kernels.scan_words(MatrixFamily(mats).mats, 5, 10**6)
        assert res.best_word == (1,)

    def test_nilpotent_products_reach_zero(self):
        # strictly upper triangular: every product of length >= 3 is 0
        rng = np.random.default_rng(4)
        mats = np.triu(rng.standard_normal((2, 3, 3)), k=1)
        assert_matches_brute(mats, 6)
        res = _kernels.scan_words(MatrixFamily(mats).mats, 6, 10**6)
        assert np.all(res.max_norm[2:] == 0.0) and np.all(res.max_rho == 0.0)
        # the bracket [0, 0] closes at level 3
        assert (res.levels, res.nodes, res.complete) == (3, 14, True)

    @pytest.mark.parametrize("cplx", [False, True])
    def test_rank_one_frobenius_is_two_norm(self, cplx):
        # every product is rank one, so ||P||_F == ||P||_2 and only the
        # 1e-10 screen margin keeps rounding from dropping the maximizer
        rng = np.random.default_rng(6)
        u = rng.standard_normal((3, 3))
        v = rng.standard_normal((3, 3))
        if cplx:
            u = u + 1j * rng.standard_normal((3, 3))
        mats = np.einsum("ki,kj->kij", u, v) / 3.0
        assert_matches_brute(mats, 5)
        assert_matches_brute(mats, 5, oracle_dedup=False)

    def test_tiny_products_are_not_screened(self):
        # the squares summed into ||P||_F underflow to 0 at depth 4; below
        # the screen floor every word is checked instead
        mats = 1e-50 * random_family(8, k=2, d=3).mats
        assert_matches_brute(mats, 4)

    @pytest.mark.parametrize("cplx", [False, True])
    def test_rank_one_normal_square_bound_is_radius(self, cplx):
        # every product is c u u^H for one unit u, so ||P^2||_F^(1/2) ==
        # rho(P) == ||P||_F and only the 1e-10 screen margin keeps rounding
        # from dropping the maximizer; the first two letters tie in modulus
        rng = np.random.default_rng(9)
        u = rng.standard_normal(3)
        if cplx:
            u = u + 1j * rng.standard_normal(3)
        u /= np.linalg.norm(u)
        c = np.array([0.9, 0.9 * np.exp(0.4j) if cplx else -0.9, 0.7])
        mats = c[:, None, None] * np.outer(u, u.conj())[None]
        assert_matches_brute(mats, 5)
        assert_matches_brute(mats, 5, oracle_dedup=False)

    def test_squares_of_squares_underflow(self):
        # products near 1e-80 at depth 2 and 1e-120 at depth 3: their
        # Frobenius norms are trusted, but the squares summed into
        # ||P^2||_F (near 1e-320 and 1e-480) underflow, so below a floor of
        # 1e-70 the second bound is skipped; at depth 3 the spectral
        # maximizer lies outside the four largest Frobenius norms
        mats = 1e-40 * random_family(19, k=3, d=3).mats
        assert_matches_brute(mats, 3)


def _stacked_children(prods, mats):
    """Every product times every letter as one broadcast matmul."""
    return (prods[:, None] @ mats[None]).reshape(-1, *mats.shape[1:])


class TestChildren:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("cplx", [False, True])
    def test_matches_stacked_matmul(self, k, cplx):
        rng = np.random.default_rng(10 * k + cplx)
        for d in range(1, 13):
            mats = rng.standard_normal((k, d, d))
            if cplx:
                mats = mats + 1j * rng.standard_normal((k, d, d))
            for m in (1, 3, 64, 2000):
                prods = rng.standard_normal((m, d, d)).astype(mats.dtype)
                got = _kernels.children(prods, mats)
                want = _stacked_children(prods, mats)
                assert got.shape == (m * k, d, d) and got.dtype == mats.dtype
                bound = d * np.abs(prods).max() * np.abs(mats).max()
                np.testing.assert_allclose(got, want, rtol=0.0,
                                           atol=1e-14 * bound)

    def test_empty_frontier(self):
        # the algebra closure extends an empty level when it accepted nothing
        mats = np.eye(3)[None].repeat(2, axis=0)
        assert _kernels.children(np.zeros((0, 3, 3)), mats).shape == (0, 3, 3)


def _counting(values_of):
    calls = []

    def wrapped(prods):
        calls.append(prods.shape[0])
        return values_of(prods)
    return wrapped, calls


@st.composite
def stacks(draw):
    """(8, d, d) stacks, d in 1..4, real or complex."""
    entries = arrays(np.float64, (8,) + (draw(st.integers(1, 4)),) * 2,
                     elements=st.floats(-4, 4))
    prods = draw(entries)
    return prods + 1j * draw(entries) if draw(st.booleans()) else prods


def _top1_kept(values_of, prods, fro, candidates):
    """How many candidates a floor from the single word with the largest
    Frobenius norm keeps."""
    top = candidates[int(np.argmax(fro[candidates]))]
    floor = values_of(prods[top:top + 1])[0]
    if floor < _kernels._SCREEN_FLOOR:
        return candidates.size
    return int(np.sum(fro[candidates] >= floor * _kernels._SCREEN_MARGIN))


class TestScreen:
    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_small_sets_are_valued_whole(self, size):
        # no separate floor: one call values every candidate
        rng = np.random.default_rng(size)
        prods = rng.standard_normal((6, 3, 3))
        fro = _kernels.frobenius(prods)
        candidates = np.array([5, 0, 3, 2][:size])
        values_of, calls = _counting(_kernels.spectral_radii)
        kept, values = _kernels._screened(values_of, _kernels._square,
                                           prods, fro, candidates)
        assert calls == [size]
        assert kept.tolist() == candidates.tolist()
        np.testing.assert_array_equal(
            values, _kernels.spectral_radii(prods[candidates]))

    def test_floor_comes_from_the_top_four(self):
        # five candidates: one call values the four largest Frobenius
        # norms; the fifth falls below the floor, so no second call
        prods = np.stack([np.diag([v, 0.0]) for v in (1.0, 5.0, 4.0, 3.0, 2.0)])
        fro = _kernels.frobenius(prods)
        values_of, calls = _counting(_kernels.spectral_radii)
        kept, values = _kernels._screened(values_of, _kernels._square,
                                          prods, fro, np.arange(5))
        assert calls == [4]
        assert kept.tolist() == [1] and values.tolist() == [5.0]

    def test_floor_words_are_valued_once(self):
        # four nearly nilpotent words hold the largest Frobenius norms and
        # set the floor 0.4; of the rest, E passes both bounds, F (P^2 = 0)
        # only the Frobenius one, G neither, so one more call values E alone
        top = [np.array([[0.0, 10.0 - i], [0.0, 0.1 * (i + 1)]])
               for i in range(4)]
        e = np.diag([3.0, 0.0])
        f = np.array([[0.0, 2.0], [0.0, 0.0]])
        g = np.diag([0.1, 0.0])
        prods = np.stack([g, top[0], f, top[1], e, top[2], top[3]])
        fro = _kernels.frobenius(prods)
        values_of, calls = _counting(_kernels.spectral_radii)
        kept, values = _kernels._screened(values_of, _kernels._square,
                                          prods, fro, np.arange(7))
        assert calls == [4, 1]
        assert kept.tolist() == [1, 3, 4, 5, 6]
        np.testing.assert_array_equal(
            values, _kernels.spectral_radii(prods[kept]))

    def test_known_floor_cuts_first(self):
        # against the floor 1, R passes both bounds and joins the four
        # largest Frobenius norms (values 1.2, 1.1, 1.3 and 4.5); the floor
        # 4.5 then cuts R by the bound from squared taken once, for all five
        rows = [[[1.2, 5.0], [0.0, 0.0]], [[1.1, 5.1], [0.0, 0.0]],
                [[1.3, 5.2], [0.0, 0.0]], np.diag([4.5, 2.0]),
                [[2.5, 4.0], [0.0, 0.0]]]
        prods = np.array(rows, dtype=np.float64)
        fro = _kernels.frobenius(prods)
        values_of, calls = _counting(_kernels.spectral_radii)
        squared, squares = _counting(_kernels._square)
        kept, values = _kernels._screened(values_of, squared, prods, fro,
                                          np.arange(5), 1.0)
        assert calls == [4] and squares == [5]
        assert kept.tolist() == [0, 1, 2, 3]
        np.testing.assert_allclose(values, [1.2, 1.1, 1.3, 4.5], rtol=1e-14)
        # a floor above every Frobenius norm leaves nothing, and no call
        kept, values = _kernels._screened(values_of, squared, prods, fro,
                                          np.arange(5), 10.0)
        assert kept.size == values.size == 0
        assert calls == [4] and squares == [5]

    def test_witness_floor_keeps_what_can_beat_it(self, monkeypatch):
        # diagonal words, whose bounds are their values: against the
        # witness 0.9 only 0.5 is cut; 0.9 (1 + 1.5e-12) is the first word
        # within 1e-12 of the level maximum 0.9 (1 + 2e-12)
        vals = 0.9 * np.array([1.0 - 3e-11, 1.0 + 1.5e-12, 1.0, 0.5 / 0.9,
                               1.0 + 2e-12])
        prods = np.stack([np.diag([v, 0.0]) for v in vals])
        fro = _kernels.frobenius(prods)
        values_of, calls = _counting(_kernels.spectral_radii)
        monkeypatch.setattr(_kernels, "spectral_radii", values_of)
        j, val, top = _kernels.level_witness(prods, fro, np.arange(5), 1, 0.9)
        assert _kernels.level_witness(prods, fro, np.arange(5), 1,
                                      1.0) is None
        assert calls == [4]
        assert (j, val, top) == (1, vals[1], vals[4])

    @given(stacks())
    # a rotated nilpotent: P^2 = 0 but for rounding, and eigvals returns
    # rho near sqrt(eps), above ||fl(P^2)||_F^(1/2) without the rounding term
    @example(np.array([[[0.42611349234136214, 0.567375798193165],
                        [-0.32002194829878, -0.42611349234136214]]]))
    @settings(max_examples=200, deadline=None)
    def test_bounds_reach_their_values(self, prods):
        # every bound the screens use is at least its computed value, less
        # the margin: ||P||_F for both, then the Gelfand chain
        # ||Q^(2^(k-1))||_F^(2^-k), k = 1..3, with Q = P^2 for rho and
        # P^H P for ||P||_2, with the rounding term; each from its floor
        # up, where the squares it sums do not underflow
        fro = _kernels.frobenius(prods)
        for values_of, squared in ((_kernels.spectral_radii, _kernels._square),
                                   (_kernels.two_norms, _kernels._gram)):
            cut = values_of(prods) * _kernels._SCREEN_MARGIN
            trusted = cut >= _kernels._SCREEN_FLOOR
            assert np.all(fro[trusted] >= cut[trusted])
            power = squared(prods)
            for k in range(1, len(_kernels._CHAIN_FLOORS) + 1):
                bound = _kernels.frobenius(power) + 1e-10 * fro ** 2 ** k
                trusted = cut >= _kernels._CHAIN_FLOORS[k - 1]
                assert np.all(bound[trusted] >= cut[trusted] ** 2 ** k)
                power = power @ power

    def test_largest_norm_with_small_radius(self):
        # the two largest Frobenius norms belong to almost nilpotent words;
        # the third largest holds the maximum spectral radius
        big = [np.array([[0.5, 10.0], [0.0, 0.0]]),
               np.array([[0.0, 9.0], [0.25, 0.0]]),
               np.diag([6.0, 1.0]),
               np.array([[0.0, 5.5], [0.0, 0.0]])]
        rng = np.random.default_rng(7)
        filler = rng.standard_normal((40, 2, 2))
        filler *= (0.5 + 4.5 * rng.random(40))[:, None, None] / np.linalg.norm(
            filler, axis=(1, 2))[:, None, None]
        prods = np.concatenate([filler[:17], big, filler[17:]])
        fro = _kernels.frobenius(prods)
        candidates = np.arange(prods.shape[0])
        rhos = _kernels.spectral_radii(prods)
        assert np.argsort(fro)[-3] == 19 and int(np.argmax(rhos)) == 19
        j, val, top = _kernels.level_witness(prods, fro, candidates, 1, -1.0)
        assert j == 19 and val == top == rhos[19]
        kept, _ = _kernels._screened(_kernels.spectral_radii,
                                     _kernels._square, prods, fro, candidates)
        assert kept.tolist() == [17, 18, 19]
        assert kept.size <= _top1_kept(_kernels.spectral_radii, prods, fro,
                                       candidates)

    @pytest.mark.parametrize("seed", range(6))
    def test_keeps_no_more_than_a_top1_floor(self, seed):
        # a level of a random family: the same witness as an unscreened
        # argmax, from no more survivors than a single-word floor leaves
        k, d, n = 2 + seed % 3, 2 + seed % 4, 4
        mats = random_family(seed, k=k, d=d).mats.real
        prods = np.eye(d)[None]
        for _ in range(n):
            prods = _kernels.children(prods, mats)
        fro = _kernels.frobenius(prods)
        candidates = np.flatnonzero(
            [is_canonical(w) for w in itertools.product(range(k), repeat=n)])
        for values_of, squared in ((_kernels.two_norms, _kernels._gram),
                                   (_kernels.spectral_radii, _kernels._square)):
            kept, values = _kernels._screened(values_of, squared, prods, fro,
                                              candidates)
            every = values_of(prods[candidates])
            assert values.max() == every.max()
            tie = 1e-12 * every.max()
            assert (kept[_kernels.first_near_max(values, tie)]
                    == candidates[_kernels.first_near_max(every, tie)])
            assert kept.size <= _top1_kept(values_of, prods, fro, candidates)


def _svd_rule(prods, n, scale, level):
    return np.flatnonzero(scale * _kernels.two_norms(prods) ** (1.0 / n)
                          > level)


class TestKeepScreen:
    """The pruned search's keep decision (``_kept_above``) against an SVD
    of every word."""

    @pytest.mark.parametrize("n, scale", [(1, 1.0), (3, 2.5)])
    def test_rank_one_cuts_as_the_svd_does(self, n, scale):
        # rank-one products: ||P||_2 == ||P||_F, and rounding puts the SVD's
        # value a few ulps above the Frobenius norm on about a third of
        # them; at a level equal to such a Frobenius norm only the 1e-10
        # margin keeps the bounds from cutting a product the SVD keeps
        rng = np.random.default_rng(3)
        prods = np.einsum("ni,nj->nij", rng.standard_normal((200, 3)),
                          rng.standard_normal((200, 3)))
        fro = _kernels.frobenius(prods)
        norms = _kernels.two_norms(prods)
        above = np.flatnonzero(norms > fro)
        assert above.size > 20
        for level in scale * fro[above[:20]] ** (1.0 / n):
            keep = _kernels._kept_above(prods, fro, n, scale, level)
            np.testing.assert_array_equal(
                keep, _svd_rule(prods, n, scale, level))

    @pytest.mark.parametrize("cplx", [False, True])
    def test_level_at_a_gram_lower_bound(self, cplx, monkeypatch):
        # products of 6 random letters, as a walk's words are: at a level
        # equal to a word's bound ||P^H P||_F / ||P||_F the bounds straddle
        # it, so that word gets an SVD, and most words are decided by the
        # bounds alone
        rng = np.random.default_rng(4)
        letters = rng.standard_normal((6, 300, 3, 3))
        if cplx:
            letters = letters + 1j * rng.standard_normal((6, 300, 3, 3))
        prods = letters[0]
        for letter in letters[1:]:
            prods = prods @ letter
        fro = _kernels.frobenius(prods)
        gram = _kernels.frobenius(_kernels._gram(prods)) / fro
        levels = 1.5 * gram[:3] ** (1.0 / 6)
        want = [_svd_rule(prods, 6, 1.5, level) for level in levels]
        two_norms, calls = _counting(_kernels.two_norms)
        monkeypatch.setattr(_kernels, "two_norms", two_norms)
        for level, kept in zip(levels, want):
            calls.clear()
            keep = _kernels._kept_above(prods, fro, 6, 1.5, level)
            np.testing.assert_array_equal(keep, kept)
            assert 1 <= sum(calls) < 30

    def test_products_below_the_screen_floor(self):
        # squares of entries near 1e-160 underflow: neither bound decides,
        # and the SVD keeps the word
        prods = np.array([[[1e-160, 1e-160], [0.0, 1e-160]]])
        fro = _kernels.frobenius(prods)
        keep = _kernels._kept_above(prods, fro, 64, 1.0, 1e-3)
        np.testing.assert_array_equal(keep, _svd_rule(prods, 64, 1.0, 1e-3))
        assert keep.tolist() == [0]


def _walk(k, n):
    """Every word of length n as a letter array, with the step's lengths and
    Lyndon mask, walked from the root through ``child_necklaces``."""
    words, lengths = np.zeros((1, 0), np.int64), np.ones(1, np.int64)
    for _ in range(n):
        words, lengths, lyndon = _kernels.child_necklaces(words, lengths, k)
    return list(map(tuple, words.tolist())), lengths, lyndon


class TestCanonicalMask:
    """The prenecklace step against explicit rotations."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_cached_index_matches_mask(self, k, n):
        index = _kernels.lyndon_index(k, n)
        expected = [is_primitive(w)
                    for w in itertools.product(range(k), repeat=n)]
        np.testing.assert_array_equal(index, np.flatnonzero(expected))
        assert _kernels.lyndon_index(k, n) is index

    def test_cached_index_is_read_only(self):
        index = _kernels.lyndon_index(2, 5)
        with pytest.raises(ValueError):
            index[0] = 1

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_helper_agrees_with_mask(self, k, n):
        # the cached lengths of a full level, stepped on base-k codes
        lengths = _kernels._full_level(k, n)[0]
        expected = [lyndon_prefix(w)
                    for w in itertools.product(range(k), repeat=n)]
        assert lengths.tolist() == expected

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_rows_agree_with_rotations(self, k, n):
        # the step on letter arrays, over every word of each level
        rows, lengths, _ = _walk(k, n)
        assert rows == list(itertools.product(range(k), repeat=n))
        assert lengths.tolist() == [lyndon_prefix(w) for w in rows]

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_primitive_rows_are_strictly_least(self, k, n):
        # strictly below each rotation: powers of shorter words drop out
        rows, _, lyndon = _walk(k, n)
        assert lyndon.tolist() == [is_primitive(w) for w in rows]

    @pytest.mark.parametrize("seed", range(6))
    def test_pruned_frontiers_to_depth_40(self, seed):
        # a random part of each level is carried on with its lengths, past
        # the depth where base-k codes overflow int64: up to 40
        # prenecklaces (each has a prenecklace child, so Lyndon words
        # stay in the frontier) and up to 20 other words
        rng = np.random.default_rng(seed)
        k = 2 + seed % 3
        words, lengths = np.zeros((1, 0), np.int64), np.ones(1, np.int64)
        found = 0
        for n in range(1, 43):
            words, lengths, lyndon = _kernels.child_necklaces(words, lengths,
                                                              k)
            rows = list(map(tuple, words.tolist()))
            assert lyndon.tolist() == [is_primitive(w) for w in rows]
            found += int(lyndon.sum())
            keep = np.sort(np.concatenate([
                rng.permutation(np.flatnonzero(lengths > 0))[:40],
                rng.permutation(np.flatnonzero(lengths == 0))[:20]]))
            words, lengths = words[keep], lengths[keep]
        assert found > 200

    def test_rows_of_an_empty_frontier(self):
        words, lengths, lyndon = _kernels.child_necklaces(
            np.zeros((0, 4), np.int64), np.zeros(0, np.int64), 3)
        assert words.shape == (0, 5) and lengths.size == lyndon.size == 0


class TestUnitScale:
    @pytest.mark.parametrize("cplx", [False, True])
    def test_exact_powers_of_two(self, cplx):
        # Q 2^e is P bit for bit, and ||Q||_F lies in [1/2, 1); below the
        # screen floor the largest entry does instead; 0 keeps e = 0
        rng = np.random.default_rng(7)
        prods = _stack(rng, 6, 3, cplx)
        prods *= np.array([1.0, 1e-300, 1e150, 1e-320, 0.0, 3.0])[:, None, None]
        q, e = _kernels.unit_scale(prods)
        assert q.dtype == prods.dtype and e.dtype.kind == "i"
        for p, qi, ei in zip(prods, q, e):
            assert np.array_equal(
                np.ldexp(qi.view(np.float64), ei).view(p.dtype), p)
        f = _kernels.frobenius(q[[0, 2, 5]])
        assert np.all((0.5 <= f) & (f < 1.0))
        top = np.abs(q[[1, 3]]).max(axis=(1, 2))
        assert np.all((0.5 <= top) & (top < 1.0))
        assert e[4] == 0 and not q[4].any()


def _direct_log_norm(mats, path):
    prod = np.eye(mats.shape[1], dtype=np.complex128)
    for c in path:
        prod = prod @ mats[c]
    return math.log(operator_norm(prod))


def _direct_log_norms(mats, paths):
    return np.array([_direct_log_norm(mats, p) / len(p) for p in paths])


def _stack(rng, k, d, cplx):
    mats = rng.standard_normal((k, d, d)) / d
    return mats + 1j * rng.standard_normal((k, d, d)) / d if cplx else mats


class TestPathEquivalence:
    @pytest.mark.parametrize("seed", range(3))
    def test_path_log_norms(self, seed):
        rng = np.random.default_rng(seed)
        mats = np.ascontiguousarray(
            rng.standard_normal((2, 2, 2)).astype(np.complex128))
        paths = rng.integers(0, 2, size=(8, 100))
        got = _kernels.path_log_norms(mats, paths)
        want = [_direct_log_norm(mats, p) / paths.shape[1] for p in paths]
        np.testing.assert_allclose(got, want, rtol=1e-10)

    @pytest.mark.parametrize("seed", range(3))
    def test_real_family_matches_complex_copy(self, seed):
        # a real family's stack is float64, and the kernel runs in it; its
        # complex128 copy runs complex and gives the same values
        rng = np.random.default_rng(seed)
        mats = MatrixFamily(rng.standard_normal((3, 3, 3)) / 2.0).mats
        paths = rng.integers(0, 3, size=(16, 200))
        got = _kernels.path_log_norms(mats, paths)
        assert mats.dtype == np.float64
        want = _kernels.path_log_norms(mats.astype(np.complex128), paths)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("k, b", [(2, 8), (3, 4), (4, 4), (5, 2)])
    @pytest.mark.parametrize("cplx", [False, True])
    def test_lengths_around_a_block(self, k, b, cplx):
        # the kernel steps b letters at a time after a head step of 1..b;
        # lengths around one block, and past two rescales, give the
        # letter-by-letter value
        assert _kernels._block_length(k) == b
        rng = np.random.default_rng(10 * k + cplx)
        mats = _stack(rng, k, 3, cplx)
        for length in sorted({1, b - 1, b, b + 1, 2 * RENORM_EVERY + 3} - {0}):
            paths = rng.integers(0, k, size=(12, length))
            got = _kernels.path_log_norms(mats, paths)
            np.testing.assert_allclose(got, _direct_log_norms(mats, paths),
                                       rtol=REL, atol=0.0)

    def test_one_letter_takes_whole_rescale_windows(self):
        # K = 1 gives b = RENORM_EVERY: one block per rescale
        assert _kernels._block_length(1) == RENORM_EVERY
        mat = np.array([[[0.9, 0.5], [0.0, 0.7]]])
        for length in (1, RENORM_EVERY, 3 * RENORM_EVERY + 5):
            paths = np.zeros((2, length), np.int64)
            np.testing.assert_allclose(
                _kernels.path_log_norms(mat, paths),
                _direct_log_norms(mat, paths), rtol=REL, atol=0.0)

    @pytest.mark.parametrize("cplx", [False, True])
    def test_path_through_a_zero_product(self, cplx):
        # N N = 0 for the second letter N: a path with N N inside a block,
        # across the head step, across a rescale or at its end has -inf;
        # paths with N only alone stay finite
        rng = np.random.default_rng(3)
        a = _stack(rng, 1, 2, cplx)[0]
        mats = np.stack([a, np.array([[0.0, 1.0], [0.0, 0.0]], a.dtype)])
        length = 2 * RENORM_EVERY + 3   # b = 8: head 3, rescale after 27
        paths = np.zeros((8, length), np.int64)
        for row, at in enumerate((0, 2, 5, 26, length - 2)):
            paths[row, at:at + 2] = 1
        for row in (5, 6, 7):
            paths[row, rng.choice(length // 2, 8, replace=False) * 2] = 1
        got = _kernels.path_log_norms(mats, paths)
        assert np.all(np.isneginf(got[:5]))
        np.testing.assert_allclose(got[5:], _direct_log_norms(mats, paths[5:]),
                                   rtol=REL, atol=0.0)

    @pytest.mark.parametrize("cplx", [False, True])
    def test_contracting_letter(self, cplx):
        # S_2 = 1e-6 S_1: products shrink by up to 1e-192 between
        # rescales, below where the squares summed into their Frobenius
        # norm underflow to 0; only a zero product may give -inf
        rng = np.random.default_rng(4)
        a = _stack(rng, 1, 3, cplx)[0]
        a /= operator_norm(a)
        mats = np.stack([a, 1e-6 * a])
        length = RENORM_EVERY + 8
        paths = (rng.random((12, length))
                 < np.linspace(0.2, 1.0, 12)[:, None]).astype(np.int64)
        paths[-1] = 1
        got = _kernels.path_log_norms(mats, paths)
        np.testing.assert_allclose(got, _direct_log_norms(mats, paths),
                                   rtol=REL, atol=0.0)

    @pytest.mark.parametrize("t", [1e-40, 1e-150])
    @pytest.mark.parametrize("cplx", [False, True])
    def test_contracting_rotation(self, t, cplx):
        # along S_2 = t R alone a block of 8 letters is t^8 R^8, whose
        # entries underflow unless the letters are scaled first
        c, s = np.cos(0.4), np.sin(0.4)
        r = np.array([[c, -s], [s, c]], np.complex128 if cplx else np.float64)
        got = _kernels.path_log_norms(np.stack([r, t * r]),
                                      np.ones((3, 300), np.int64))
        np.testing.assert_allclose(got, math.log(t), rtol=1e-12, atol=0.0)

    def test_power_log_norms(self):
        # a one-letter scan walks the powers: n log of its level maximum
        # is log ||A^n||
        mat = np.array([[1.0, 1.0], [0.0, 0.9]], dtype=np.complex128)
        max_norm = _kernels.scan_words(mat[None], 80, 10**6).max_norm
        got = np.arange(1, 81) * np.log(max_norm)
        want = [_direct_log_norm(mat[None], [0] * n) for n in range(1, 81)]
        np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_zero_matrix_neg_inf(self):
        mat = np.zeros((1, 2, 2), dtype=np.complex128)
        res = _kernels.scan_words(mat, 5, 10**6)
        assert np.all(res.max_norm == 0.0)


def assert_same_answers(res, whole):
    """Bit for bit: the bracket ends, the per-level maxima and the witness."""
    np.testing.assert_array_equal(res.max_rho, whole.max_rho)
    np.testing.assert_array_equal(res.max_norm, whole.max_norm)
    assert res.best_val == whole.best_val
    assert res.best_word == whole.best_word
    assert (res.levels, res.complete) == (whole.levels, whole.complete)


class TestPrunedScan:
    @given(gate_families())
    @settings(max_examples=60, deadline=None)
    def test_same_answers_as_the_whole_scan(self, case):
        # the pruned scan builds fewer words and answers as the scan of
        # every word does
        mats, depth = case
        res = _kernels.scan_words(mats, depth, 10**6)
        whole = _kernels.scan_words(mats, depth, 10**6, prune=False)
        assert_same_answers(res, whole)
        assert res.nodes <= whole.nodes

    @pytest.mark.parametrize("mats", [
        # every word of level 9 falls below the prefix floor
        [np.diag([1.0, 0.3]), 0.5 * np.array([[0.8, -0.6], [0.6, 0.8]])],
        # only 0.999^9 I stays, whose extensions reach 0.991 at level 10
        [np.diag([1.0, 0.0]), 0.999 * np.eye(2)]])
    def test_overstated_witness_redoes_the_whole_scan(self, mats,
                                                      monkeypatch):
        # spectral radii overstated by 1e-6 put the witness above every
        # level maximum, 1 from the powers of diag(1, .): the prefix floor
        # then cuts those powers, and the empty level or the inverted
        # bracket that follows makes the scan build every word, so the
        # upper end stays 1
        radii = _kernels.spectral_radii
        monkeypatch.setattr(_kernels, "spectral_radii",
                            lambda prods: (1.0 + 1e-6) * radii(prods))
        mats = np.array(mats)
        res = _kernels.scan_words(mats, 10, 10**6)
        whole = _kernels.scan_words(mats, 10, 10**6, prune=False)
        assert_same_answers(res, whole)
        assert res.nodes == whole.nodes == 2 ** 11 - 2
        assert res.best_val == 1.0 + 1e-6 and res.max_norm.min() == 1.0


class TestGelfandChain:
    def test_fewer_words_valued_on_a_triangular_family(self, monkeypatch):
        # a unitarily conjugated triangular family, whose nearly defective
        # products pass ||P^2||_F^(1/2): ||P^4||_F^(1/4) and ||P^8||_F^(1/8)
        # cut them against the witness, so eigvals values the letters only,
        # and the witness is the same
        rng = np.random.default_rng(1)
        t = np.tril(rng.standard_normal((2, 4, 4)))
        q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        mats = MatrixFamily(q.T @ t @ q).normalized_mats()
        radii = _kernels.spectral_radii
        scans = {}
        for steps in (3, 1):
            values_of, calls = _counting(radii)
            monkeypatch.setattr(_kernels, "spectral_radii", values_of)
            monkeypatch.setattr(_kernels, "_CHAIN_FLOORS",
                                _kernels._CHAIN_FLOORS[:steps])
            scans[steps] = _kernels.scan_words(mats, 10, 10**6), calls
        (chain, chain_calls), (square, square_calls) = scans[3], scans[1]
        assert chain_calls == [2] and sum(square_calls) > 2
        assert_same_answers(chain, square)
