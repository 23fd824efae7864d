import itertools

import numpy as np
import pytest

from jsrkit import (MatrixFamily, averaged_norm_value, averaged_spectral_value,
                    berger_wang_report, bounds_bracket, lower_bound,
                    pruned_search, upper_bound)
from jsrkit.bounds import BudgetExceededError

from conftest import PHI, random_family


def brute_lower(family, depth):
    best = 0.0
    for n in range(1, depth + 1):
        for w in itertools.product(range(1, family.size + 1), repeat=n):
            best = max(best, averaged_spectral_value(family, w))
    return best


def brute_upper(family, depth):
    out = []
    for n in range(1, depth + 1):
        out.append(max(averaged_norm_value(family, w)
                       for w in itertools.product(
                           range(1, family.size + 1), repeat=n)))
    return min(out)


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(6))
    def test_lower_matches_enumeration(self, seed):
        fam = random_family(seed)
        val, word = lower_bound(fam, 4)
        assert val == pytest.approx(brute_lower(fam, 4), rel=1e-10, abs=1e-12)
        assert val == pytest.approx(averaged_spectral_value(fam, word), rel=1e-10)

    @pytest.mark.parametrize("seed", range(6))
    def test_upper_matches_enumeration(self, seed):
        fam = random_family(seed)
        assert upper_bound(fam, 4) == pytest.approx(brute_upper(fam, 4),
                                                    rel=1e-10, abs=1e-12)

    def test_dedup_does_not_change_values(self):
        # the scan values the least rotation of each word only; the
        # enumeration values every word
        fam = random_family(3)
        assert lower_bound(fam, 5)[0] == pytest.approx(brute_lower(fam, 5),
                                                       rel=1e-12)


class TestBracketProperties:
    @pytest.mark.parametrize("seed", range(8))
    def test_ordering(self, seed):
        b = bounds_bracket(random_family(seed, k=2, d=3), 5)
        assert b.lower <= b.upper + 1e-12
        assert b.complete

    @pytest.mark.parametrize("seed", range(4))
    def test_deeper_never_widens(self, seed):
        fam = random_family(seed)
        shallow = bounds_bracket(fam, 3)
        deep = bounds_bracket(fam, 6)
        assert deep.lower >= shallow.lower - 1e-12
        assert deep.upper <= shallow.upper + 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_scaling_equivariance(self, seed):
        fam = random_family(seed)
        b1 = bounds_bracket(fam, 4)
        b2 = bounds_bracket(fam.scaled(3.0), 4)
        assert b2.lower == pytest.approx(3.0 * b1.lower, rel=1e-10)
        assert b2.upper == pytest.approx(3.0 * b1.upper, rel=1e-10)

    def test_single_matrix_spectral(self):
        # [TRIVIAL] singleton {2I}: both bounds are exactly 2
        fam = MatrixFamily.from_matrices([2.0 * np.eye(2)])
        b = bounds_bracket(fam, 3)
        assert b.lower == pytest.approx(2.0, abs=1e-12)
        assert b.upper == pytest.approx(2.0, abs=1e-12)

    def test_zero_family(self):
        b = bounds_bracket(MatrixFamily(np.zeros((2, 2, 2))), 4)
        assert b.lower == 0.0 and b.upper == 0.0 and b.complete

    def test_tie_break_prefers_short_word(self):
        # both generators are the same diagonal, so every word ties at 2;
        # the witness must be a length-1 word
        fam = MatrixFamily.from_matrices([np.diag([2.0, 1.0]), np.diag([2.0, 1.0])])
        _, word = lower_bound(fam, 4)
        assert word == (1,)

    def test_golden_pair_depth12(self, golden_pair):
        b = bounds_bracket(golden_pair, 12)
        assert b.lower == pytest.approx(PHI, abs=1e-9)
        # the witness is (1,2) up to rotation
        assert b.best_word in ((1, 2), (2, 1))


class TestBudget:
    def test_lower_raises_with_partial(self, golden_pair):
        with pytest.raises(BudgetExceededError) as exc:
            lower_bound(golden_pair, 10, node_budget=20)
        partial_val, partial_word = exc.value.partial
        assert 0.0 < partial_val <= PHI + 1e-9

    def test_upper_raises(self, golden_pair):
        with pytest.raises(BudgetExceededError):
            upper_bound(golden_pair, 10, node_budget=20)

    def test_bracket_falls_back_soundly(self, golden_pair):
        # a cut scan keeps every level that fit whole in the budget: its
        # bracket is the brute-force bracket at that depth, and with no
        # level at all the upper is max_k ||S_k||
        for fam in (golden_pair, random_family(3, k=3)):
            k = fam.size
            for budget in (1, k, k + k * k, 20, 100):
                levels = 0
                while sum(k ** n for n in range(1, levels + 2)) <= budget:
                    levels += 1
                b = bounds_bracket(fam, 10, node_budget=budget)
                assert not b.complete
                assert b.depth_explored == levels
                if levels:
                    assert b.upper == pytest.approx(brute_upper(fam, levels),
                                                    rel=1e-12)
                    assert b.lower == pytest.approx(brute_lower(fam, levels),
                                                    rel=1e-10)
                else:
                    assert b.upper == fam.scale
                assert b.lower <= b.upper + 1e-12
                with pytest.raises(BudgetExceededError) as exc:
                    upper_bound(fam, 10, node_budget=budget)
                assert exc.value.partial == b.upper

    def test_report_raises(self, golden_pair):
        with pytest.raises(BudgetExceededError):
            berger_wang_report(golden_pair, 10, node_budget=20)


class TestBergerWangReport:
    def test_columns_are_monotone(self, golden_pair):
        rows = berger_wang_report(golden_pair, 8)
        lowers = [r["lower"] for r in rows]
        uppers = [r["upper"] for r in rows]
        assert lowers == sorted(lowers)
        assert uppers == sorted(uppers, reverse=True)
        assert all(lo <= up + 1e-12 for lo, up in zip(lowers, uppers))

    def test_converges_on_golden_pair(self, golden_pair):
        rows = berger_wang_report(golden_pair, 12)
        assert rows[-1]["lower"] == pytest.approx(PHI, abs=1e-9)
        assert rows[-1]["upper"] >= PHI - 1e-12


class TestPrunedSearch:
    def test_golden_pair_tight(self, golden_pair):
        b = pruned_search(golden_pair, tol=1e-6)
        assert b.complete
        assert b.lower == pytest.approx(PHI, abs=1e-9)
        assert b.upper <= PHI + 1e-6 + 1e-12
        assert b.lower <= b.upper

    @pytest.mark.parametrize("seed", range(6))
    def test_contains_exhaustive_bracket(self, seed):
        # the pruned bracket must contain the true JSR, so it must overlap
        # every exhaustive bracket
        fam = random_family(seed, scale=0.8)
        pruned = pruned_search(fam, tol=1e-4, node_budget=10**6)
        exact = bounds_bracket(fam, 8)
        assert pruned.lower <= exact.upper + 1e-9
        assert pruned.upper >= exact.lower - 1e-9

    def test_golden_pair_terminates_early(self, golden_pair):
        # the alternation product is symmetric, so its averaged norm equals
        # its averaged spectral value and the frontier empties at depth 2
        b = pruned_search(golden_pair, tol=1e-12)
        assert b.complete
        assert b.depth_explored == 2
        assert b.lower == pytest.approx(PHI, abs=1e-12)

    def test_budget_flagged_but_sound(self):
        fam = random_family(0)
        b = pruned_search(fam, tol=1e-12, node_budget=50)
        assert not b.complete
        assert b.lower <= b.upper
        # even interrupted, the bracket contains the exhaustive one
        exact = bounds_bracket(fam, 8)
        assert b.lower <= exact.upper + 1e-9
        assert b.upper >= exact.lower - 1e-9

    def test_rejects_bad_tol(self, golden_pair):
        with pytest.raises(ValueError):
            pruned_search(golden_pair, tol=0.0)

    def test_zero_family(self):
        b = pruned_search(MatrixFamily(np.zeros((1, 2, 2))), tol=1e-6)
        assert b.lower == 0.0 and b.upper == 0.0
