import math

import numpy as np
import pytest

from jsrkit import (MarkovMeasure, MatrixFamily, PeriodicMeasure,
                    PeriodicSequence, certify_finiteness, check_extremal_norm,
                    corollary_reports, ergodic, extremality_verdict,
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

    def test_long_contracting_period(self):
        # the normalized product of R and 60 letters 1e-6 R is 1e-360 R^61,
        # below the smallest double: log rho = -360 log 10 over 61 letters
        c, s = np.cos(0.3), np.sin(0.3)
        r = np.array([[c, -s], [s, c]])
        fam = MatrixFamily(np.stack([r, 1e-6 * r]))
        est = lyapunov_periodic(fam, PeriodicSequence(2, (1,) + (2,) * 60))
        assert est.value == pytest.approx(-360 * math.log(10) / 61, rel=1e-12)

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

    def test_seeded_paths_are_pinned(self):
        # the paths of a fixed seed, bit for bit: a change to the Monte
        # Carlo estimate's product kernel moves its value by rounding only
        P = np.array([[0.2, 0.5, 0.3], [0.6, 0.0, 0.4], [0.1, 0.1, 0.8]])
        got = sample_paths(MarkovMeasure.from_transition(P), 4, 16, seed=5)
        assert got.tolist() == [
            [2, 2, 2, 2, 0, 1, 0, 0, 0, 2, 2, 2, 2, 2, 2, 2],
            [2, 2, 2, 0, 1, 0, 2, 0, 1, 2, 2, 2, 2, 0, 2, 0],
            [2, 2, 2, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 2, 2, 2],
            [0, 2, 0, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2]]

    def test_zero_draw_takes_no_forbidden_transition(self, alternating,
                                                     monkeypatch):
        # a draw u = 0 falls on the cumulative entry 0 of the forbidden
        # transition 1 -> 1: it takes the first letter of positive mass
        class Zeros:
            def random(self, shape):
                return np.zeros(shape)

        monkeypatch.setattr(np.random, "default_rng", lambda seed: Zeros())
        paths = sample_paths(alternating, 2, 6, seed=0)
        assert paths.tolist() == [[0, 1, 0, 1, 0, 1]] * 2


def _compare_and_sum_paths(mu, samples, length, seed):
    """The sampler as a compare-and-sum over every transition row: the
    letter is the number of cumulative entries at or below u."""
    rng = np.random.default_rng(seed)
    cum_p = np.cumsum(mu.p)
    cum_rows = np.cumsum(mu.P, axis=1)
    cum_rows /= cum_rows[:, -1:]
    u = rng.random((samples, length))
    paths = np.empty((samples, length), dtype=np.int64)
    paths[:, 0] = np.searchsorted(cum_p / cum_p[-1], u[:, 0], side="right")
    for t in range(1, length):
        rows = cum_rows[paths[:, t - 1]]
        paths[:, t] = (u[:, t, None] >= rows).sum(axis=1)
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


class TestContractingLetter:
    """R a rotation and S_2 = 1e-11 R, under the measure that stays on
    letter 2: products of its 8-letter blocks underflow within one window
    of RENORM_EVERY letters unless every product is scaled exactly, and
    the exponent is log 1e-11 exactly."""

    WANT = math.log(1e-11)   # -25.328436022934504

    @pytest.fixture
    def setting(self):
        c, s = np.cos(1.0), np.sin(1.0)
        r = np.array([[c, -s], [s, c]])
        fam = MatrixFamily(np.stack([r, 1e-11 * r]))
        mu = MarkovMeasure(np.array([0.0, 1.0]),
                           np.array([[0.5, 0.5], [0.0, 1.0]]))
        return fam, mu

    def test_monte_carlo(self, setting):
        est = lyapunov_monte_carlo(*setting, 8, 200, seed=0)
        assert est.value == pytest.approx(self.WANT, rel=1e-12)

    @pytest.mark.parametrize("n", [31, 32, 40, 64])
    def test_exact_finite(self, setting, n):
        est = lyapunov_exact_finite(*setting, n)
        assert est.value == pytest.approx(self.WANT, rel=1e-12)


class TestRescaling:
    """Both Lyapunov estimates of c S are those of S plus log c: no
    decision of the product kernel changes when the input is rescaled."""

    @pytest.mark.parametrize("c", [1e-150, 1e150])
    @pytest.mark.parametrize("k", [2, 3])
    def test_exact_finite(self, c, k):
        fam = random_family(40 + k, k=k, d=3)
        mu = MarkovMeasure.from_transition(
            np.random.default_rng(k).dirichlet(np.ones(k), size=k))
        want = lyapunov_exact_finite(fam, mu, 7).value + math.log(c)
        got = lyapunov_exact_finite(fam.scaled(c), mu, 7).value
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("c", [1e-150, 1e150])
    @pytest.mark.parametrize("k", [2, 3])
    def test_monte_carlo(self, c, k):
        fam = random_family(50 + k, k=k, d=3)
        mu = MarkovMeasure.from_transition(
            np.random.default_rng(k).dirichlet(np.ones(k), size=k))
        base = lyapunov_monte_carlo(fam, mu, 16, 203, seed=3)
        est = lyapunov_monte_carlo(fam.scaled(c), mu, 16, 203, seed=3)
        assert est.value == pytest.approx(base.value + math.log(c),
                                          rel=1e-12, abs=0.0)
        assert est.stderr == pytest.approx(base.stderr, rel=1e-9)


class TestRescaledSingleWord:
    """The value of one word is taken on the normalized letters: the
    golden pair times c, whose raw word products underflow to 0 or
    overflow at these scales, gets the answers of the golden pair."""

    XI = PeriodicSequence(2, (1, 2))

    @pytest.mark.parametrize("c", [1e-170, 1e-120, 1e120, 1e170])
    def test_lyapunov_periodic(self, golden_pair, c):
        base = lyapunov_periodic(golden_pair, self.XI).value
        got = lyapunov_periodic(golden_pair.scaled(c), self.XI).value
        assert got - math.log(c) == pytest.approx(base, abs=1e-12)

    @pytest.mark.parametrize("c", [1e-170, 1e-120, 1e120, 1e170])
    def test_verdict(self, golden_pair, c):
        mu = PeriodicMeasure(self.XI)
        base = extremality_verdict(golden_pair, mu, 6)
        got = extremality_verdict(golden_pair.scaled(c), mu, 6)
        assert base.verdict == got.verdict == "extremal"
        assert got.gap == pytest.approx(base.gap, abs=1e-12)

    @pytest.mark.parametrize("c", [1e-170, 1e-120, 1e120, 1e170])
    def test_reverse_pipeline(self, golden_pair, c):
        mu = PeriodicMeasure(self.XI)
        base = measure_to_finiteness(golden_pair, mu, self.XI)
        got = measure_to_finiteness(golden_pair.scaled(c), mu, self.XI)
        assert base.success and got.success
        assert ([(s.name, s.passed) for s in got.steps]
                == [(s.name, s.passed) for s in base.steps])
        assert got.certificate.value == pytest.approx(
            c * base.certificate.value, rel=1e-12)


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

    @pytest.mark.parametrize("scale", [1.0, 1e-14])
    def test_reverse_attains_check_is_relative(self, scale):
        # the period (2) is extremal within the verdict's 1e-6, but its
        # value falls 1e-7 relative short of the lower bound at every scale
        mats = np.array([np.diag([1.0, 0.0]), np.diag([1.0 - 1e-7, 0.0])])
        xi = PeriodicSequence(2, (2,))
        report = measure_to_finiteness(MatrixFamily(mats * scale),
                                       PeriodicMeasure(xi), xi, 4)
        assert report.failing_step() == "candidate-attains-bound"
        assert report.decided

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

    def test_extremal_measure_certifies_the_witness(self, uniform):
        # [DERIVED] every product has top entry 1 and the other entry at
        # most 1/2, so rho = 1, the uniform measure's exponent is log 1 and
        # the bracket's witness (1,) closes a polytope around e1
        fam = MatrixFamily.from_matrices([np.diag([1.0, 0.5]),
                                          np.diag([1.0, 0.25])])
        report = corollary_reports(fam, uniform, depth=6)
        assert report.extremality.verdict == "extremal"
        assert report.finiteness.word == report.extremality.jsr_bracket.best_word
        assert report.finiteness.verdict == "certified"
        assert report.upper_bound == report.finiteness.value == 1.0

    def test_one_certification_when_the_witness_fails(self, monkeypatch):
        # the measure on the fixed point 1, 1, ... of {R(1 rad), I/2} is
        # extremal, and its witness (1,) has the complex leading eigenvalue
        # e^i: no other word can certify, so none is tried
        c, s = math.cos(1.0), math.sin(1.0)
        fam = MatrixFamily.from_matrices([[[c, -s], [s, c]], np.eye(2) / 2])
        fixed = MarkovMeasure(np.array([1.0, 0.0]), np.eye(2))
        calls = []

        def certify(family, word, vertex_budget):
            calls.append(word)
            return certify_finiteness(family, word, vertex_budget)

        monkeypatch.setattr(ergodic, "certify_finiteness", certify)
        report = corollary_reports(fam, fixed, depth=6, vertex_budget=30)
        assert report.extremality.verdict == "extremal"
        assert calls == [(1,)]
        assert report.finiteness.verdict == "inconclusive"
        assert "real leading eigenvalue" in report.finiteness.reason

    def test_upper_bound_is_the_attained_norm(self, golden_pair, alternating):
        # the alternating chain is extremal for the golden pair over 2, at
        # rho = phi/2 < 1; the certificate proves rho <= the largest
        # induced generator norm, which may exceed the value by rounding
        fam = golden_pair.scaled(0.5)
        report = corollary_reports(fam, alternating, depth=8)
        assert report.finiteness.verdict == "certified"
        _, _, attained = check_extremal_norm(
            fam, report.finiteness.certificate, report.finiteness.value)
        assert report.upper_bound >= attained
        assert report.upper_bound == pytest.approx(PHI / 2, rel=1e-9)
        assert f"{report.upper_bound:.12g} < 1" in report.stability_conclusion

    def test_golden_pair_not_applicable(self, golden_pair, uniform):
        report = corollary_reports(golden_pair, uniform, depth=8)
        assert report.extremality.verdict == "not-extremal"
        assert report.scan_max >= 1.0
        assert "not applicable" in report.stability_conclusion
