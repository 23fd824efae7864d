import itertools

import numpy as np
import pytest

from jsrkit import (MarkovMeasure, PeriodicMeasure, PeriodicSequence,
                    check_stationarity, cylinder_probability, is_density_point,
                    shift, support_words)


@pytest.fixture
def uniform():
    return MarkovMeasure(np.array([0.5, 0.5]), np.full((2, 2), 0.5))


@pytest.fixture
def asymmetric():
    # stationary for P = [[0,1],[1/2,1/2]]: p = (1/3, 2/3)
    return MarkovMeasure(np.array([1 / 3, 2 / 3]),
                         np.array([[0.0, 1.0], [0.5, 0.5]]))


@pytest.fixture
def periodic_12():
    return PeriodicMeasure(PeriodicSequence(2, (1, 2)))


ALL_MEASURES = ["uniform", "asymmetric", "periodic_12"]


def all_words(k, n):
    return [tuple(w) for w in itertools.product(range(1, k + 1), repeat=n)]


class TestPeriodicSequence:
    def test_primitive_normalization(self):
        # (1,2,1,2) and (1,2) generate the same sequence
        assert PeriodicSequence(2, (1, 2, 1, 2)) == PeriodicSequence(2, (1, 2))
        assert PeriodicSequence(2, (1, 1, 1)).period == (1,)

    def test_shift_rotates(self):
        xi = PeriodicSequence(2, (1, 2))
        assert shift(xi).period == (2, 1)
        assert shift(shift(xi)) == xi

    def test_prefix(self):
        xi = PeriodicSequence(2, (1, 2))
        assert xi.prefix(5) == (1, 2, 1, 2, 1)

    def test_orbit_size_is_primitive_period(self):
        xi = PeriodicSequence(3, (1, 2, 3))
        assert len(xi.orbit()) == 3
        assert set(s.period for s in xi.orbit()) == {(1, 2, 3), (2, 3, 1), (3, 1, 2)}

    def test_rejects_bad_letters(self):
        with pytest.raises(ValueError):
            PeriodicSequence(2, (1, 3))
        with pytest.raises(ValueError):
            PeriodicSequence(2, ())


class TestMarkovMeasure:
    def test_rejects_nonstationary(self):
        with pytest.raises(ValueError, match="stationary"):
            MarkovMeasure(np.array([0.9, 0.1]), np.full((2, 2), 0.5))

    def test_rejects_nonstochastic(self):
        with pytest.raises(ValueError, match="sum to 1"):
            MarkovMeasure(np.array([0.5, 0.5]), np.array([[0.5, 0.6], [0.5, 0.5]]))

    def test_from_transition(self):
        # [DERIVED] stationary vector of [[0,1],[1/2,1/2]] is (1/3, 2/3)
        mu = MarkovMeasure.from_transition([[0.0, 1.0], [0.5, 0.5]])
        assert mu.p == pytest.approx([1 / 3, 2 / 3], abs=1e-10)

    def test_from_periodic_transition(self):
        # [DERIVED] the bipartite chain 1 -> {2, 3} -> 1 has period 2, so
        # p P^n oscillates from the uniform start; its stationary law is
        # (1/2, 1/4, 1/4)
        mu = MarkovMeasure.from_transition(
            [[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        assert mu.p == pytest.approx([0.5, 0.25, 0.25], abs=1e-12)

    @pytest.mark.parametrize("P, p", [
        # letter 3 is transient and feeds the period-2 class {1, 2}
        ([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.5, 0.0, 0.5]], [0.5, 0.5, 0.0]),
        # two closed classes: any mixture of (1, 0, 0) and (0, 1/2, 1/2)
        ([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]], None),
    ])
    def test_from_reducible_transition(self, P, p):
        mu = MarkovMeasure.from_transition(P)
        assert np.all(mu.p >= 0.0) and mu.p.sum() == pytest.approx(1.0)
        assert check_stationarity(mu.p, mu.P)[1] <= 1e-14
        if p is not None:
            assert mu.p == pytest.approx(p, abs=1e-12)

    def test_check_stationarity(self):
        ok, res = check_stationarity([1 / 3, 2 / 3], [[0.0, 1.0], [0.5, 0.5]])
        assert ok and res <= 1e-12
        ok, res = check_stationarity([0.9, 0.1], np.full((2, 2), 0.5))
        assert not ok and res > 0.1


class TestCylinderProbability:
    def test_empty_word_is_whole_space(self, uniform, periodic_12):
        assert cylinder_probability(uniform, ()) == 1.0
        assert cylinder_probability(periodic_12, ()) == 1.0

    def test_uniform_values(self, uniform):
        # [TRIVIAL] each length-n cylinder has mass 2^-n
        assert cylinder_probability(uniform, (1,)) == pytest.approx(0.5)
        assert cylinder_probability(uniform, (1, 2, 1)) == pytest.approx(0.125)

    def test_asymmetric_values(self, asymmetric):
        # [DERIVED] mu([1,1]) = p_1 * P[1,1] = (1/3) * 0 = 0
        assert cylinder_probability(asymmetric, (1, 1)) == 0.0
        # [DERIVED] mu([1,2]) = (1/3) * 1
        assert cylinder_probability(asymmetric, (1, 2)) == pytest.approx(1 / 3)

    def test_periodic_values(self, periodic_12):
        # [TRIVIAL] the orbit of (1,2)-periodic has two points, each mass 1/2
        assert cylinder_probability(periodic_12, (1, 2, 1)) == pytest.approx(0.5)
        assert cylinder_probability(periodic_12, (1, 1)) == 0.0

    @pytest.mark.parametrize("name", ALL_MEASURES)
    @pytest.mark.parametrize("n", range(1, 9))
    def test_total_mass_one(self, name, n, request):
        mu = request.getfixturevalue(name)
        total = sum(cylinder_probability(mu, w) for w in all_words(2, n))
        assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("name", ALL_MEASURES)
    @pytest.mark.parametrize("n", range(1, 7))
    def test_consistency(self, name, n, request):
        # mu([w]) = sum_k mu([w + (k,)])
        mu = request.getfixturevalue(name)
        for w in all_words(2, n):
            ext = sum(cylinder_probability(mu, w + (k,)) for k in (1, 2))
            assert ext == pytest.approx(cylinder_probability(mu, w), abs=1e-12)

    @pytest.mark.parametrize("name", ALL_MEASURES)
    @pytest.mark.parametrize("n", range(1, 7))
    def test_shift_invariance(self, name, n, request):
        # mu(theta^{-1}[w]) = sum_k mu([(k,) + w]) = mu([w])
        mu = request.getfixturevalue(name)
        for w in all_words(2, n):
            pre = sum(cylinder_probability(mu, (k,) + w) for k in (1, 2))
            assert pre == pytest.approx(cylinder_probability(mu, w), abs=1e-12)

    def test_rejects_bad_letters(self, uniform):
        with pytest.raises(ValueError):
            cylinder_probability(uniform, (3,))


class TestDensityPoint:
    def test_markov_positive_path(self, uniform):
        verdict = is_density_point(uniform, PeriodicSequence(2, (1, 2)))
        assert verdict and verdict.certificate == "structural"

    def test_markov_blocked_transition(self, asymmetric):
        # P[1,1] = 0, so (1)^infinity is not in the support
        verdict = is_density_point(asymmetric, PeriodicSequence(2, (1,)))
        assert not verdict
        assert "P[1,1]" in verdict.detail

    def test_markov_allowed_cycle(self, asymmetric):
        assert is_density_point(asymmetric, PeriodicSequence(2, (1, 2)))
        assert is_density_point(asymmetric, PeriodicSequence(2, (2,)))

    def test_periodic_orbit_membership(self, periodic_12):
        assert is_density_point(periodic_12, PeriodicSequence(2, (2, 1)))
        verdict = is_density_point(periodic_12, PeriodicSequence(2, (1,)))
        assert not verdict and verdict.certificate == "orbit-membership"

    def test_alphabet_mismatch(self, uniform):
        with pytest.raises(ValueError):
            is_density_point(uniform, PeriodicSequence(3, (1, 2, 3)))


class TestSupportWords:
    @pytest.mark.parametrize("name", ALL_MEASURES)
    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_positive_cylinders(self, name, n, request):
        mu = request.getfixturevalue(name)
        brute = {w for w in all_words(2, n) if cylinder_probability(mu, w) > 0}
        assert support_words(mu, n) == brute

    def test_periodic_support_size(self, periodic_12):
        # exactly the two orbit prefixes at every length
        for n in range(1, 10):
            assert len(support_words(periodic_12, n)) == 2

    def test_rejects_nonpositive_n(self, uniform):
        with pytest.raises(ValueError):
            support_words(uniform, 0)
