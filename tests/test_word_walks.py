"""The level-batched word walks against literal per-tuple oracles.

Each oracle enumerates words as tuples (``itertools.product`` or a
tuple-by-tuple frontier) and evaluates each one on its own with
``word_product``, ``operator_norm``, ``spectral_radius``,
``cylinder_probability`` and explicit rotations, in the family's stored
dtype.
Words, node counts, depths and flags must be identical; values may drift
by rounding only.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from jsrkit import (MarkovMeasure, MatrixFamily, PeriodicMeasure,
                    PeriodicSequence, cylinder_probability,
                    lyapunov_exact_finite, operator_norm, pruned_search,
                    spectral_radius, support_words, word_product)
from jsrkit.ergodic import SupportTooLargeError
from jsrkit.symbolic import support_walk

from conftest import random_family

REL = 1e-12


def is_canonical(word):
    return all(word <= word[s:] + word[:s] for s in range(1, len(word)))


def first_near_max(scored, tie):
    """(value, word) of the first entry within tie of the largest value."""
    top = max(v for v, _ in scored)
    return next((v, w) for v, w in scored if v >= top - tie)


def literal_pruned_search(fam, tol, budget=10**7, max_depth=64):
    """The prune rule word by word, on the family divided by its scale.
    A level is expanded only when it fits in the remaining budget; with no
    level, the bracket is [0, scale] at (1,)."""
    scale = fam.scale
    scaled = MatrixFamily(fam.mats / scale)
    best_val, best_word = -1.0, (1,)
    lower = 0.0
    frontier, nodes, depth = [()], 0, 0
    while frontier and depth < max_depth:
        if nodes + len(frontier) * fam.size > budget:
            break
        depth += 1
        children = [w + (c,) for w in frontier for c in range(1, fam.size + 1)]
        nodes += len(children)
        scored = [(spectral_radius(word_product(scaled, w)) ** (1.0 / depth), w)
                  for w in children if is_canonical(w)]
        if scored:
            val, word = first_near_max(scored, 1e-12 * max(
                max(v for v, _ in scored), 1.0))
            if val > best_val + 1e-12 * max(best_val, 1.0):
                best_val, best_word = val, word
        lower = scale * best_val
        norms = [scale * operator_norm(word_product(scaled, w)) ** (1.0 / depth)
                 for w in children]
        frontier = [w for w, v in zip(children, norms) if v > lower + tol]
        kept = [v for v in norms if v > lower + tol]
    complete = not frontier
    upper = max([lower + tol] + kept) if depth else scale
    return lower, upper, best_word, depth, nodes, complete


def assert_pruned_matches(fam, tol, budget=10**7, max_depth=64):
    got = pruned_search(fam, tol, budget, max_depth)
    lower, upper, word, depth, nodes, complete = literal_pruned_search(
        fam, tol, budget, max_depth)
    assert (got.best_word, got.depth_explored, got.nodes_visited,
            got.complete) == (word, depth, nodes, complete)
    assert got.lower == pytest.approx(lower, rel=REL, abs=0.0)
    assert got.upper == pytest.approx(upper, rel=REL, abs=0.0)
    return got


class TestPrunedSearchOracle:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("k, d", [(2, 2), (2, 3), (3, 2)])
    def test_random_real(self, seed, k, d):
        assert_pruned_matches(random_family(seed, k=k, d=d), 1e-3, 3000)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_complex(self, seed):
        rng = np.random.default_rng(seed)
        mats = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
        assert_pruned_matches(MatrixFamily(mats), 1e-3, 2000)

    def test_golden_pair(self, golden_pair):
        b = assert_pruned_matches(golden_pair, 1e-9)
        assert b.complete and b.best_word == (1, 2)

    @pytest.mark.parametrize("budget", [1, 2, 50, 51, 120])
    def test_budget_cuts(self, budget):
        # a level is expanded only when it fits in the remaining budget (at
        # budget 1 not even level 1 does), and a cut search is not complete
        b = assert_pruned_matches(random_family(3, k=2, d=3), 1e-9, budget)
        assert not b.complete

    def test_depth_64_single_word_frontier(self, shear):
        # ||S^n||^(1/n) ~ n^(1/n) stays above 1 + tol, so one word survives
        # every level; its length-64 word is far past any base-K code
        b = assert_pruned_matches(shear, 1e-6)
        assert b.depth_explored == 64 and b.nodes_visited == 64
        assert not b.complete

    def test_depth_64_two_letters(self):
        # a shear beside a strong contraction: the frontier stays a handful
        # of words
        fam = MatrixFamily.from_matrices([[[1, 1], [0, 1]], 0.02 * np.eye(2)])
        b = assert_pruned_matches(fam, 1e-6)
        assert b.depth_explored == 64 and not b.complete

    def test_products_below_the_screen_floor_reach_the_svd(self):
        # ||S^n||^(1/n) stays above rho + tol on one word, while the
        # product falls to about 1e-168 by depth 64: the squares summed into
        # its Frobenius norm underflow to 0, so no bound may cut it
        fam = MatrixFamily.from_matrices([[[0.002, 1.0], [0.0, 0.002]]])
        b = assert_pruned_matches(fam, 1e-6)
        assert b.depth_explored == 64 and b.nodes_visited == 64

    def test_cut_keeps_only_norms_above_lower_plus_tol(self):
        # ||N|| = 1 is exactly lower + tol = 0.5 + 0.5, so N is cut and the
        # search ends after one level
        fam = MatrixFamily.from_matrices([[[0, 1], [0, 0]], 0.5 * np.eye(2)])
        b = assert_pruned_matches(fam, 0.5)
        assert (b.nodes_visited, b.depth_explored, b.complete) == (2, 1, True)

    def test_max_depth_cut(self):
        assert_pruned_matches(random_family(1, k=2, d=3), 1e-9, max_depth=3)

    @pytest.mark.parametrize("factor", [1e-6, 3.0, 1e8])
    def test_rescaled_family_decides_the_same(self, factor):
        # exact ties everywhere: scaled orthogonal letters
        rng = np.random.default_rng(2)
        mats = 0.9 * np.stack([np.linalg.qr(m)[0]
                               for m in rng.standard_normal((2, 3, 3))])
        fam = MatrixFamily(mats)
        base = pruned_search(fam, 1e-3, 2000)
        scaled = pruned_search(fam.scaled(factor), 1e-3 * factor, 2000)
        assert (scaled.best_word, scaled.nodes_visited, scaled.depth_explored) \
            == (base.best_word, base.nodes_visited, base.depth_explored)
        assert base.best_word == (1,)

    def test_rejects_zero_depth(self, golden_pair):
        with pytest.raises(ValueError):
            pruned_search(golden_pair, 1e-6, max_depth=0)


def literal_lyapunov(fam, mu, n):
    """(1/n) sum over all K^n words of P(w) log ||P_w||, -inf on a zero
    product of positive probability."""
    total = 0.0
    for w in itertools.product(range(1, fam.size + 1), repeat=n):
        prob = cylinder_probability(mu, w)
        if prob == 0.0:
            continue
        norm = operator_norm(word_product(fam, w))
        if norm == 0.0:
            return -math.inf
        total += prob * math.log(norm)
    return total / n


SPARSE_P = np.array([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])


def measures():
    return {
        "full-2": MarkovMeasure.from_transition(np.array([[0.3, 0.7], [0.6, 0.4]])),
        "full-3": MarkovMeasure.from_transition(
            np.random.default_rng(5).dirichlet(np.ones(3), size=3)),
        "sparse-3": MarkovMeasure.from_transition(SPARSE_P),
        # a transient letter: p has a zero entry
        "transient-3": MarkovMeasure(
            np.array([0.5, 0.5, 0.0]),
            np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.3, 0.3, 0.4]])),
        "periodic-2": PeriodicMeasure(PeriodicSequence(2, (1, 1, 2))),
        "periodic-3": PeriodicMeasure(PeriodicSequence(3, (1, 2, 1, 3, 2))),
    }


class TestSupportWalk:
    @pytest.mark.parametrize("name", list(measures()))
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_lexicographic_with_cylinder_probabilities(self, name, n):
        mu = measures()[name]
        words, probs = support_walk(mu, n)
        tuples = [tuple(int(c) + 1 for c in w) for w in words]
        brute = [w for w in itertools.product(range(1, mu.alphabet_size + 1),
                                              repeat=n)
                 if cylinder_probability(mu, w) > 0.0]
        assert tuples == brute  # product() is lexicographic
        assert probs.tolist() == [cylinder_probability(mu, w) for w in brute]
        assert support_words(mu, n) == set(brute)


class TestLyapunovExactFiniteOracle:
    @pytest.mark.parametrize("name", list(measures()))
    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_matches_literal_sum(self, name, n):
        mu = measures()[name]
        fam = random_family(7, k=mu.alphabet_size, d=3, scale=2.5)
        got = lyapunov_exact_finite(fam, mu, n)
        assert got.method == "exact-finite-n" and got.n_or_samples == n
        assert got.value == pytest.approx(literal_lyapunov(fam, mu, n),
                                          rel=REL, abs=1e-15)

    def test_long_periodic_words_rescale(self):
        # past the kernel's rescaling period, on a family of large scale
        mu = measures()["periodic-3"]
        fam = random_family(4, k=3, d=2, scale=40.0)
        words = sorted(support_words(mu, 70))
        want = sum(cylinder_probability(mu, w)
                   * math.log(operator_norm(word_product(fam, w)))
                   for w in words) / 70
        got = lyapunov_exact_finite(fam, mu, 70).value
        assert got == pytest.approx(want, rel=REL)

    def test_zero_product_is_neg_inf(self):
        # the word (1, 1) has a zero product and positive probability
        fam = MatrixFamily.from_matrices([[[0, 1], [0, 0]], np.eye(2)])
        mu = measures()["full-2"]
        assert literal_lyapunov(fam, mu, 2) == -math.inf
        assert lyapunov_exact_finite(fam, mu, 2).value == -math.inf
        assert lyapunov_exact_finite(fam, mu, 1).value \
            == pytest.approx(literal_lyapunov(fam, mu, 1), rel=REL)

    def test_zero_product_off_support_is_finite(self):
        # (1, 1) never occurs under the alternating periodic measure
        fam = MatrixFamily.from_matrices([[[0, 1], [0, 0]], [[0, 0], [1, 0]]])
        mu = PeriodicMeasure(PeriodicSequence(2, (1, 2)))
        got = lyapunov_exact_finite(fam, mu, 4).value
        assert got == pytest.approx(literal_lyapunov(fam, mu, 4), abs=1e-15)
        assert got == 0.0

    def test_nilpotent_family(self):
        rng = np.random.default_rng(1)
        fam = MatrixFamily(np.triu(rng.standard_normal((2, 3, 3)), k=1))
        mu = measures()["full-2"]
        assert lyapunov_exact_finite(fam, mu, 3).value == -math.inf
        assert lyapunov_exact_finite(fam, mu, 2).value \
            == pytest.approx(literal_lyapunov(fam, mu, 2), rel=REL)

    def test_zero_family(self):
        fam = MatrixFamily(np.zeros((2, 2, 2)))
        assert lyapunov_exact_finite(fam, measures()["full-2"], 2).value \
            == -math.inf

    @pytest.mark.parametrize("name, n, count", [("full-2", 5, 32),
                                                ("sparse-3", 6, 19),
                                                ("periodic-3", 9, 5)])
    def test_support_budget(self, name, n, count):
        mu = measures()[name]
        fam = random_family(0, k=mu.alphabet_size)
        assert len(support_words(mu, n)) == count
        lyapunov_exact_finite(fam, mu, n, word_budget=count)
        with pytest.raises(SupportTooLargeError):
            lyapunov_exact_finite(fam, mu, n, word_budget=count - 1)

    def test_budget_is_checked_before_the_walk(self):
        # 3^12 = 531,441 support words, 51 MB as a letter array: the count
        # must stop the call before any of them is built
        mu = MarkovMeasure(np.full(3, 1 / 3), np.full((3, 3), 1 / 3))
        fam = random_family(0, k=3)
        tracemalloc.start()
        try:
            with pytest.raises(SupportTooLargeError, match="531441"):
                lyapunov_exact_finite(fam, mu, 12, word_budget=1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
