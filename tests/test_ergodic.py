import math

import numpy as np
import pytest

from jsrkit import (MarkovMeasure, MatrixFamily, PeriodicMeasure,
                    PeriodicSequence, corollary_reports, extremality_verdict,
                    finiteness_to_measure, lyapunov_exact_finite,
                    lyapunov_monte_carlo, lyapunov_periodic,
                    measure_to_finiteness, operator_norm, word_product)
from jsrkit.ergodic import SupportTooLargeError, sample_paths

from conftest import PHI, random_family

LOG_PHI = math.log(PHI)


@pytest.fixture
def uniform():
    return MarkovMeasure(np.array([0.5, 0.5]), np.full((2, 2), 0.5))


@pytest.fixture
def alternating():
    # deterministic 1,2,1,2,... / 2,1,2,1,... chain
    return MarkovMeasure(np.array([0.5, 0.5]), np.array([[0.0, 1.0], [1.0, 0.0]]))


class TestLyapunovPeriodic:
    def test_golden_word(self, golden_pair):
        # [DERIVED] (1/2) log rho(S_1 S_2) = log phi
        est = lyapunov_periodic(golden_pair, PeriodicSequence(2, (1, 2)))
        assert est.value == pytest.approx(LOG_PHI, abs=1e-12)
        assert est.method == "periodic-exact"

    def test_single_shear_is_zero(self, golden_pair):
        # [DERIVED] rho(S_1) = 1, so the exponent along (1)^infinity is 0
        est = lyapunov_periodic(golden_pair, PeriodicSequence(2, (1,)))
        assert est.value == pytest.approx(0.0, abs=1e-12)

    def test_zero_product_is_neg_inf(self):
        fam = MatrixFamily.from_matrices([np.zeros((2, 2))])
        est = lyapunov_periodic(fam, PeriodicSequence(1, (1,)))
        assert est.value == -math.inf


class TestLyapunovExactFinite:
    def test_n1_is_mean_log_norm(self, golden_pair, uniform):
        # [DERIVED] both generators have norm phi, so the n=1 value is log phi
        est = lyapunov_exact_finite(golden_pair, uniform, 1)
        assert est.value == pytest.approx(LOG_PHI, abs=1e-12)

    def test_periodic_support_only(self, golden_pair):
        # under the periodic (1,2) measure only the two orbit prefixes count
        mu = PeriodicMeasure(PeriodicSequence(2, (1, 2)))
        est = lyapunov_exact_finite(golden_pair, mu, 4)
        n1 = operator_norm(word_product(golden_pair, (1, 2, 1, 2)))
        n2 = operator_norm(word_product(golden_pair, (2, 1, 2, 1)))
        expected = 0.5 * (math.log(n1) + math.log(n2)) / 4
        assert est.value == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_subadditive_doubling(self, seed, uniform):
        fam = random_family(seed)
        vals = [lyapunov_exact_finite(fam, uniform, n).value for n in (1, 2, 4, 8)]
        for a, b in zip(vals, vals[1:]):
            assert b <= a + 1e-12

    def test_zero_product_neg_inf(self, uniform):
        fam = MatrixFamily.from_matrices([np.zeros((2, 2)), np.eye(2)])
        est = lyapunov_exact_finite(fam, uniform, 2)
        assert est.value == -math.inf

    def test_word_budget(self, golden_pair, uniform):
        with pytest.raises(SupportTooLargeError):
            lyapunov_exact_finite(golden_pair, uniform, 8, word_budget=10)


class TestSamplePaths:
    def test_shape_range_and_determinism(self, uniform):
        p1 = sample_paths(uniform, 20, 50, seed=7)
        p2 = sample_paths(uniform, 20, 50, seed=7)
        assert p1.shape == (20, 50)
        assert np.array_equal(p1, p2)
        assert p1.min() >= 0 and p1.max() <= 1

    def test_respects_transitions(self, alternating):
        paths = sample_paths(alternating, 10, 40, seed=0)
        # the alternating chain never repeats a letter
        assert np.all(paths[:, 1:] != paths[:, :-1])

    def test_frequencies(self, uniform):
        paths = sample_paths(uniform, 200, 200, seed=1)
        freq = paths.mean()
        assert freq == pytest.approx(0.5, abs=0.02)


def _compare_and_sum_paths(mu, samples, length, seed):
    """The sampler as a compare-and-sum over every transition row."""
    rng = np.random.default_rng(seed)
    k = mu.alphabet_size
    cum_rows = np.cumsum(mu.P, axis=1)
    u = rng.random((samples, length))
    paths = np.empty((samples, length), dtype=np.int64)
    paths[:, 0] = np.searchsorted(np.cumsum(mu.p), u[:, 0],
                                  side="right").clip(0, k - 1)
    for t in range(1, length):
        rows = cum_rows[paths[:, t - 1]]
        paths[:, t] = (u[:, t, None] > rows).sum(axis=1).clip(0, k - 1)
    return paths


class TestSamplerTable:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("zeros", [False, True])
    def test_paths_match_compare_and_sum(self, k, zeros):
        rng = np.random.default_rng(k)
        P = rng.random((k, k))
        if zeros and k > 1:
            # forbidden transitions around a cycle that keeps the chain
            # irreducible; past K = 2 row 0 may not end in the last letter
            P[rng.random((k, k)) < 0.4] = 0.0
            P[np.arange(k), (np.arange(k) + 1) % k] = 1.0
            if k > 2:
                P[0, k - 1] = 0.0
        P /= P.sum(axis=1, keepdims=True)
        mu = MarkovMeasure.from_transition(P)
        for seed in range(3):
            got = sample_paths(mu, 50, 120, seed)
            assert got.dtype == np.int64
            assert np.array_equal(got, _compare_and_sum_paths(mu, 50, 120, seed))
            if zeros and k > 1:
                assert np.all(P[got[:, :-1], got[:, 1:]] > 0.0)


class TestLyapunovMonteCarlo:
    def test_alternating_chain_hits_log_phi(self, golden_pair, alternating):
        # products along 1,2,1,2,... grow exactly at rate phi
        est = lyapunov_monte_carlo(golden_pair, alternating, 50, 500, seed=0)
        assert est.value == pytest.approx(LOG_PHI, abs=1e-2)

    def test_single_matrix_deterministic(self):
        a = np.array([[1.0, 1.0], [0.0, 0.9]])
        fam = MatrixFamily.from_matrices([a])
        mu = MarkovMeasure(np.array([1.0]), np.array([[1.0]]))
        est = lyapunov_monte_carlo(fam, mu, 10, 300, seed=0)
        expected = math.log(operator_norm(np.linalg.matrix_power(a, 300))) / 300
        assert est.value == pytest.approx(expected, abs=1e-9)
        assert est.stderr <= 1e-9

    def test_zero_family_neg_inf(self, uniform):
        fam = MatrixFamily(np.zeros((2, 2, 2)))
        est = lyapunov_monte_carlo(fam, uniform, 5, 64, seed=0)
        assert est.value == -math.inf

    def test_long_paths_do_not_overflow(self, uniform):
        # growth rate ~ 2 per step would overflow float range without the
        # running renormalization
        fam = MatrixFamily.from_matrices([2.0 * np.eye(2), 2.0 * np.eye(2)])
        est = lyapunov_monte_carlo(fam, uniform, 4, 3000, seed=0)
        assert est.value == pytest.approx(math.log(2.0), abs=1e-9)

    def test_input_validation(self, golden_pair, uniform):
        with pytest.raises(ValueError):
            lyapunov_monte_carlo(golden_pair, uniform, 1, 10)


class TestExtremalityVerdict:
    def test_periodic_extremal(self, golden_pair):
        mu = PeriodicMeasure(PeriodicSequence(2, (1, 2)))
        v = extremality_verdict(golden_pair, mu, depth=10)
        assert v.verdict == "extremal"
        assert abs(v.gap) <= 1e-6

    def test_periodic_not_extremal(self, golden_pair):
        mu = PeriodicMeasure(PeriodicSequence(2, (1,)))
        v = extremality_verdict(golden_pair, mu, depth=10)
        assert v.verdict == "not-extremal"
        assert v.gap == pytest.approx(-LOG_PHI, abs=1e-9)

    def test_wide_bracket_is_undetermined(self, golden_pair):
        # at depth 1 the bracket is [1, phi], far wider than the tolerance,
        # so even a Lyapunov value above the lower bound stays undetermined
        mu = PeriodicMeasure(PeriodicSequence(2, (1, 2)))
        v = extremality_verdict(golden_pair, mu, depth=1, tol=1e-9)
        assert v.verdict == "undetermined"

    def test_markov_not_extremal(self, golden_pair, uniform):
        # the uniform chain mixes in slow words, so its exponent sits
        # strictly below log phi
        v = extremality_verdict(golden_pair, uniform, depth=10)
        assert v.verdict == "not-extremal"
        assert v.gap < -0.01


class TestPipelines:
    def test_forward_extremal(self, golden_pair):
        mu, verdict = finiteness_to_measure(golden_pair, (1, 2))
        assert mu.base.period == (1, 2)
        assert verdict.verdict == "extremal"

    def test_forward_not_extremal(self, golden_pair):
        _, verdict = finiteness_to_measure(golden_pair, (1,))
        assert verdict.verdict == "not-extremal"
        assert verdict.lyapunov.value == pytest.approx(0.0, abs=1e-12)

    def test_reverse_success(self, golden_pair):
        xi = PeriodicSequence(2, (1, 2))
        report = measure_to_finiteness(golden_pair, PeriodicMeasure(xi), xi)
        assert report.success
        assert [s.name for s in report.steps] == [
            "density-point", "extremality", "candidate-attains-bound",
            "polytope-certificate"]
        assert all(s.passed for s in report.steps)
        assert report.certificate.word == (1, 2)

    def test_reverse_fails_at_density(self, golden_pair):
        mu = PeriodicMeasure(PeriodicSequence(2, (1, 2)))
        report = measure_to_finiteness(golden_pair, mu, PeriodicSequence(2, (1,)))
        assert not report.success
        assert report.failing_step() == "density-point"
        assert len(report.steps) == 1

    def test_reverse_fails_at_extremality(self, golden_pair):
        # (1)^infinity is a density point of its own orbit measure, but that
        # measure is not extremal for the golden pair
        xi = PeriodicSequence(2, (1,))
        report = measure_to_finiteness(golden_pair, PeriodicMeasure(xi), xi)
        assert not report.success
        assert report.failing_step() == "extremality"
        assert report.steps[-1].passed is False and report.decided

    def test_reverse_undecided_steps(self, golden_pair):
        # a depth-1 bracket cannot decide extremality, and one vertex
        # cannot close the golden pair's polytope: neither is a "no"
        xi = PeriodicSequence(2, (1, 2))
        shallow = measure_to_finiteness(golden_pair, PeriodicMeasure(xi), xi,
                                        depth=1)
        capped = measure_to_finiteness(golden_pair, PeriodicMeasure(xi), xi,
                                       vertex_budget=1)
        for report, step in ((shallow, "extremality"),
                             (capped, "polytope-certificate")):
            assert not report.success and not report.decided
            assert report.failing_step() == step
            assert report.steps[-1].passed is None


class TestCorollaries:
    def test_diagonal_contraction_pair(self, uniform):
        # [DERIVED] every length-n product of the pair is diagonal with
        # entries products of 1/2 and 1/4, so the scan max is 1/2
        fam = MatrixFamily.from_matrices([np.diag([0.5, 0.25]),
                                          np.diag([0.25, 0.5])])
        report = corollary_reports(fam, uniform, depth=6)
        assert report.scan_max == pytest.approx(0.5, abs=1e-12)
        assert report.upper_bound <= 0.5 + 1e-9
        assert "stable" in report.stability_conclusion

    def test_golden_pair_not_applicable(self, golden_pair, uniform):
        report = corollary_reports(golden_pair, uniform, depth=8)
        assert report.extremality.verdict == "not-extremal"
        assert report.scan_max >= 1.0
        assert "not applicable" in report.stability_conclusion
