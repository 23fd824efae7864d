import itertools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from jsrkit import (MatrixFamily, _kernels, averaged_norm_value,
                    averaged_spectral_value, berger_wang_report,
                    bounds_bracket, pruned_search)
from jsrkit.bounds import BoundsBracket, BudgetExceededError

from conftest import PHI, gate_families, prefix_floor, random_family


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


@st.composite
def real_families(draw):
    """(K, d, d) stacks with K in 1..3 and d in 1..4."""
    shape = (draw(st.integers(1, 3)),) + (draw(st.integers(1, 4)),) * 2
    return draw(arrays(np.float64, shape, elements=st.floats(-4, 4)))


def _unscreened_rule(prods, words, lyndon, n, best_val, best_word):
    """The tie rule on one level with every Lyndon word valued and no
    screen: the first word within 1e-12 of the level maximum replaces the
    witness when it beats it by more than 1e-12.  A power u^k of a shorter
    word ties u, so it is not valued: its computed spectral radius only
    adds rounding, which for a defective product can exceed rho."""
    lyndon = np.flatnonzero(lyndon)
    if lyndon.size:
        avs = _kernels.spectral_radii(prods[lyndon]) ** (1.0 / n)
        j = _kernels.first_near_max(avs, 1e-12 * max(float(avs.max()), 1.0))
        if avs[j] > best_val + 1e-12 * max(best_val, 1.0):
            return float(avs[j]), tuple(int(c) + 1 for c in words[lyndon[j]])
    return best_val, best_word


def _root(family):
    """(normalized letters, identity product, root word, root length),
    in the dtype the family stores."""
    mats = family.normalized_mats()
    return (mats, np.eye(family.dim, dtype=mats.dtype)[None],
            np.zeros((1, 0), np.int64), np.ones(1, np.int64))


def reference_bracket(family, depth, budget, prune=True, close=True):
    """``bounds_bracket`` from SVDs of every word and eigenvalues of every
    Lyndon word.  Before a level of at least 1024 words, the parents whose
    Frobenius norm lies below ``prefix_floor`` (by the 1e-10 margin, from
    1e-140 up) are not extended.  A walk that loses a whole level, or
    whose level maximum ends below the witness, is redone whole.  The walk
    ends, complete, at the first level where the running minimum of the
    averaged level maxima lies within 1e-12 of the witness, relative (both
    normalized; 0 and 0 count as closed), unless ``close`` is False."""
    mats, prods, words, lengths = _root(family)
    best_val, best_word = -1.0, (1,)
    tops, nodes, complete, pruned = [], 0, True, False
    for n in range(1, depth + 1):
        if nodes + prods.shape[0] * family.size > budget:
            complete = False
            break
        prods = _kernels.children(prods, mats)
        words, lengths, lyndon = _kernels.child_necklaces(words, lengths,
                                                          family.size)
        nodes += prods.shape[0]
        tops.append(float(_kernels.two_norms(prods).max()))
        best_val, best_word = _unscreened_rule(prods, words, lyndon, n,
                                               best_val, best_word)
        upper = min(t ** (1.0 / m) if t > 0.0 else 0.0
                    for m, t in enumerate(tops, start=1))
        if close and abs(upper - best_val) <= 1e-12 * best_val:
            break
        if (prune and n < depth and prods.shape[0] * family.size >= 1024
                and best_val > 0.0):
            fro = np.linalg.norm(prods, axis=(1, 2))
            floor = prefix_floor(tops, n, depth, best_val) * (1.0 - 1e-10)
            keep = (fro >= floor) | (fro < 1e-140)
            if not keep.any():
                return reference_bracket(family, depth, budget, False, close)
            pruned |= not keep.all()
            prods, words, lengths = prods[keep], words[keep], lengths[keep]
    tops = np.array([t ** (1.0 / n) if t > 0.0 else 0.0
                     for n, t in enumerate(tops, start=1)])
    if pruned and np.any(tops < best_val * (1.0 - 1e-11)):
        return reference_bracket(family, depth, budget, False, close)
    upper = float(np.min(tops * family.scale, initial=family.scale))
    return BoundsBracket(max(best_val, 0.0) * family.scale, upper, best_word,
                         len(tops), nodes, complete)


def reference_pruned(family, tol, budget, max_depth=64):
    """``pruned_search`` from SVDs of every frontier word and eigenvalues
    of every Lyndon one.  A level is expanded only when it fits in the
    remaining budget; with no level, the bracket is [0, scale] at (1,)."""
    mats, prods, words, lengths = _root(family)
    scale = family.scale
    best_val, best_word = -1.0, (1,)
    lower = 0.0
    nodes = depth = 0
    while prods.shape[0] and depth < max_depth:
        if nodes + prods.shape[0] * family.size > budget:
            break
        depth += 1
        prods = _kernels.children(prods, mats)
        words, lengths, lyndon = _kernels.child_necklaces(words, lengths,
                                                          family.size)
        nodes += prods.shape[0]
        best_val, best_word = _unscreened_rule(prods, words, lyndon, depth,
                                               best_val, best_word)
        lower = scale * best_val
        norms = scale * _kernels.two_norms(prods) ** (1.0 / depth)
        keep = norms > lower + tol
        prods, words, lengths, norms = (prods[keep], words[keep],
                                        lengths[keep], norms[keep])
    complete = not prods.shape[0]
    upper = float(np.max(norms, initial=lower + tol)) if depth else scale
    return BoundsBracket(lower, upper, best_word, depth, nodes, complete)


@st.composite
def walk_cases(draw):
    """(letters, depth, tol, node budget): K in 1..3, d in 1..3, real or
    complex, depths whose levels stay small."""
    k = draw(st.integers(1, 3))
    entries = arrays(np.float64, (k,) + (draw(st.integers(1, 3)),) * 2,
                     elements=st.floats(-4, 4))
    mats = draw(entries)
    if draw(st.booleans()):
        mats = mats + 1j * draw(entries)
    return (mats, draw(st.integers(1, {1: 8, 2: 6, 3: 4}[k])),
            draw(st.sampled_from([1e-2, 1e-6])),
            draw(st.sampled_from([60, 3000])))


_C, _S = np.cos(0.7), np.sin(0.7)
# A and A^T with A = [[1, 1.3e-6], [0, 0.5]]: the word (1, 2) has the
# averaged value ||A||_2 = 1 + 1.13e-12 (normalized), the letters 1
_NEAR_TIE = np.array([[1.0, 1.3e-6], [0.0, 0.5]])


class TestAgainstUnscreenedReference:
    @given(walk_cases())
    # a single matrix: no Lyndon word past length 1
    @example((np.array([[[1.0, 2.0], [0.0, 0.5]]]), 8, 1e-6, 3000))
    # rho = 1 + 3e-26, but eigvals rounds rho of the powers of this nearly
    # defective matrix up to 1 + 1.8e-6: only the letter is valued
    @example((np.array([[[1.0, 3.4332555e-77, 0.0], [1.0, 1.0, 1.0],
                         [1.0, 0.0, 1.0]]]), 8, 1e-2, 60))
    # orthogonal letters: every word ties the letter witness
    @example((np.array([[[_C, -_S], [_S, _C]], [[1.0, 0.0], [0.0, -1.0]]]),
              6, 1e-2, 3000))
    @example((np.array([np.diag([1.0, 0.5j]), np.diag([0.5, -1.0])]),
              6, 1e-6, 3000))
    # triangular with a 1e-10 diagonal: the spectral values of depth 8 lie
    # near 1e-80, where the squared bound is not trusted
    @example((np.array([[[1e-10, 1.0], [0.0, 1e-10]],
                        [[3e-10, 0.5], [0.0, 2e-10]]]), 8, 1e-6, 3000))
    @example((np.array([[[1e-10, 1.0], [0.0, 1e-10]],
                        [[3e-10, 0.5], [0.0, 2e-10]]]), 8, 1e-6, 10**6))
    # a level that beats a letter by just over 1e-12
    @example((np.stack([_NEAR_TIE, _NEAR_TIE.T]), 4, 1e-13, 3000))
    @settings(max_examples=150, deadline=None)
    def test_same_brackets(self, case):
        mats, depth, tol, budget = case
        fam = MatrixFamily(mats)
        assume(fam.scale > 0.0)
        assert bounds_bracket(fam, depth, budget) == reference_bracket(
            fam, depth, budget)
        assert pruned_search(fam, tol, budget) == reference_pruned(
            fam, tol, budget)

    @given(gate_families())
    @settings(max_examples=40, deadline=None)
    def test_same_brackets_past_the_gate(self, case):
        # levels of 1024 words and more, where the scan prunes: the same
        # bracket from the same number of words
        mats, depth = case
        fam = MatrixFamily(mats)
        assert bounds_bracket(fam, depth) == reference_bracket(fam, depth,
                                                               10**6)

    def test_near_tie_goes_to_the_longer_word(self):
        # the case above is what it claims: (1, 2) beats (1,) by > 1e-12
        fam = MatrixFamily(np.stack([_NEAR_TIE, _NEAR_TIE.T]))
        assert bounds_bracket(fam, 4).best_word == (1, 2)
        assert pruned_search(fam, 1e-13, 3000).best_word == (1, 2)


@st.composite
def closing_cases(draw):
    """(family, depth, kind): K in 1..3 letters of dimension 1..4, real or
    complex, at depths that reach the scan's pruning gate.  Hermitian,
    diagonal, golden-type ({A, A^H}, where rho(A A^H) = ||A||^2), zero and
    nilpotent (strictly upper triangular) families have brackets that
    close; random non-normal ones (d >= 2) have brackets that stay open."""
    kind = draw(st.sampled_from(["hermitian", "diagonal", "golden", "zero",
                                 "nilpotent", "non-normal"]))
    k = 2 if kind == "golden" else draw(st.integers(1, 3))
    d = draw(st.integers(2 if kind == "non-normal" else 1, 4))
    cplx = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    z = rng.standard_normal((k, d, d))
    if cplx:
        z = z + 1j * rng.standard_normal((k, d, d))
    if kind == "hermitian":
        z = z + z.conj().transpose(0, 2, 1)
    elif kind == "diagonal":
        z = z * np.eye(d)
    elif kind == "golden":
        z = np.stack([z[0], z[0].conj().T])
    elif kind == "zero":
        z = 0.0 * z
    elif kind == "nilpotent":
        z = np.triu(z, 1)
    return MatrixFamily(z), {1: 12, 2: 10, 3: 7}[k], kind


class TestClosedBracket:
    @given(closing_cases())
    @settings(max_examples=80, deadline=None)
    def test_closing_keeps_the_answers(self, case):
        # a bracket that closes ends the scan with the lower end and the
        # witness of the scan to the full depth, bit for bit, and its
        # upper end to rounding; a non-normal family never closes
        fam, depth, kind = case
        b = bounds_bracket(fam, depth)
        full = reference_bracket(fam, depth, 10**6, close=False)
        assert b == reference_bracket(fam, depth, 10**6)
        assert (b.lower, b.best_word) == (full.lower, full.best_word)
        assert b.upper == pytest.approx(full.upper, rel=1e-12, abs=0.0)
        assert b.complete and b.nodes_visited <= full.nodes_visited
        if kind == "non-normal":
            assert b == full
        else:
            assert b.depth_explored < depth

    def test_nilpotent_closes_where_products_vanish(self):
        # every product of 3 strictly upper triangular 3x3 letters is 0
        fam = MatrixFamily(np.triu(random_family(4, d=3).mats, 1))
        b = bounds_bracket(fam, 8)
        assert (b.lower, b.upper, b.depth_explored) == (0.0, 0.0, 3)
        assert b.nodes_visited == 2 + 4 + 8 and b.complete


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(6))
    def test_lower_matches_enumeration(self, seed):
        fam = random_family(seed)
        b = bounds_bracket(fam, 4)
        assert b.complete
        assert b.lower == pytest.approx(brute_lower(fam, 4), rel=1e-10, abs=1e-12)
        assert b.lower == pytest.approx(averaged_spectral_value(fam, b.best_word),
                                        rel=1e-10)

    @pytest.mark.parametrize("seed", range(6))
    def test_upper_matches_enumeration(self, seed):
        fam = random_family(seed)
        assert bounds_bracket(fam, 4).upper == pytest.approx(
            brute_upper(fam, 4), rel=1e-10, abs=1e-12)

    def test_dedup_does_not_change_values(self):
        # the scan values the least rotation of each word only; the
        # enumeration values every word
        fam = random_family(3)
        assert bounds_bracket(fam, 5).lower == pytest.approx(
            brute_lower(fam, 5), rel=1e-12)


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

    @given(real_families(), st.integers(1, 3))
    # the level-1 maximum, taken on the family over its scale and scaled
    # back, rounds one ulp above the scale here
    @example(np.array([[[0.8677213780652736, 0.05283808503854799],
                        [-1.0159735470221951, -1.3970518935029943]]]), 1)
    # a subnormal scale: 1/scale overflowed, and the SVD met inf and nan
    @example(np.array([[[2.22507386e-309]]]), 1)
    @settings(max_examples=60, deadline=None)
    def test_upper_at_most_scale(self, mats, depth):
        # max_k ||S_k|| is the level-1 upper bound, exactly
        fam = MatrixFamily(mats)
        assert bounds_bracket(fam, depth).upper <= fam.scale

    def test_subnormal_family(self):
        # the rescaled stack is finite, so the scan runs as on any family
        fam = MatrixFamily.from_matrices(
            [np.array([[2.22507386e-309, 1e-309], [0, 1e-309]])])
        b = bounds_bracket(fam, 2)
        assert b.lower == pytest.approx(2.22507386e-309, rel=1e-9)
        assert b.lower <= b.upper <= fam.scale

    def test_zero_family(self):
        # the bracket [0, 0] closes at level 1, after its K words
        b = bounds_bracket(MatrixFamily(np.zeros((2, 2, 2))), 4)
        assert b == BoundsBracket(0.0, 0.0, (1,), 1, 2, True)

    def test_tie_break_prefers_short_word(self):
        # both generators are the same diagonal, so every word ties at 2;
        # the witness must be a length-1 word
        fam = MatrixFamily.from_matrices([np.diag([2.0, 1.0]), np.diag([2.0, 1.0])])
        assert bounds_bracket(fam, 4).best_word == (1,)

    def test_powers_are_not_valued(self):
        # rho = 1 + 3e-26, but eigvals rounds rho(A^3)^(1/3) up to
        # 1 + 1.8e-6; a power ties its letter, which is the witness
        fam = MatrixFamily.from_matrices([[[1.0, 3.4332555e-77, 0.0],
                                           [1.0, 1.0, 1.0],
                                           [1.0, 0.0, 1.0]]])
        for b in (bounds_bracket(fam, 8), pruned_search(fam, 1e-2, 60)):
            assert b.best_word == (1,)
            assert b.lower == averaged_spectral_value(fam, (1,))

    def test_golden_pair_closes_at_depth_2(self, golden_pair):
        # rho((1, 2))^(1/2) = phi = ||S_1||: the bracket closes at level 2,
        # after 6 words, with the ends of the scan of every word to depth
        # 12 (its lower bit for bit, its upper to rounding)
        b = bounds_bracket(golden_pair, 12)
        assert (b.depth_explored, b.nodes_visited, b.complete) == (2, 6, True)
        assert b.best_word == (1, 2) and b.lower == 1.6180339887498947
        assert b.upper == pytest.approx(1.6180339887498947, rel=1e-12, abs=0)

    def test_golden_pair_depth12(self, golden_pair):
        b = bounds_bracket(golden_pair, 12)
        assert b.lower == pytest.approx(PHI, abs=1e-9)
        # the witness is (1,2) up to rotation
        assert b.best_word in ((1, 2), (2, 1))


class TestBudget:
    def test_lower_raises_with_partial(self, mixed_entries):
        # the per-depth report raises on a cut scan; the partial lower end
        # comes on the bracket, flagged incomplete and attained by its word
        fam = mixed_entries
        with pytest.raises(BudgetExceededError):
            berger_wang_report(fam, 10, node_budget=20)
        b = bounds_bracket(fam, 10, node_budget=20)
        assert not b.complete
        assert 0.0 < b.lower <= bounds_bracket(fam, 12).upper
        assert b.lower == pytest.approx(
            averaged_spectral_value(fam, b.best_word), rel=1e-12)

    def test_upper_raises(self, mixed_entries):
        # the report's upper column needs every level, so it raises; the
        # cut bracket's upper end stays sound
        fam = mixed_entries
        with pytest.raises(BudgetExceededError):
            berger_wang_report(fam, 10, node_budget=20)
        b = bounds_bracket(fam, 10, node_budget=20)
        assert not b.complete
        assert bounds_bracket(fam, 12).lower <= b.upper

    def test_bracket_falls_back_soundly(self, mixed_entries):
        # a cut scan keeps every level that fit whole in the budget: its
        # bracket is the brute-force bracket at that depth, and with no
        # level at all the upper is max_k ||S_k||
        for fam in (mixed_entries, random_family(3, k=3)):
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
                # the per-depth report needs every level, so it raises
                with pytest.raises(BudgetExceededError):
                    berger_wang_report(fam, 10, node_budget=budget)

    def test_budget_buys_depth(self, mixed_entries):
        # the pruned scan builds 1134 words to depth 12, where every word
        # makes 8190: a budget of 4096 no longer stops it at depth 11
        b = bounds_bracket(mixed_entries, 12, node_budget=4096)
        assert b == bounds_bracket(mixed_entries, 12)
        assert b.complete and b.depth_explored == 12
        assert b.nodes_visited == 1134

    @pytest.mark.parametrize("mats, depth", [
        # levels of about 500 words, to depth 70: the base-2 code of a word
        # overflows int64 from depth 63, and the budget is 10^7
        ([[[1, 1], [0, 1]], 0.02 * np.eye(2)], 70),
        # K = 3, where codes overflow from depth 40; the witness is a word
        # of length 45
        ([[[1, 1], [0, 1]], 0.02 * np.eye(2), [[0, 0.03], [0.03, 0]]], 45),
    ])
    def test_pruned_levels_pass_the_code_cap(self, mats, depth):
        fam = MatrixFamily.from_matrices(mats)
        b = bounds_bracket(fam, depth)
        assert b == reference_bracket(fam, depth, 10**7)
        assert b.complete and b.depth_explored == depth

    def test_report_raises(self, mixed_entries):
        with pytest.raises(BudgetExceededError):
            berger_wang_report(mixed_entries, 10, node_budget=20)

    def test_zero_family_budget_below_one_level(self):
        # with not even level 1 in the budget, the zero family's bracket is
        # the pruned search's, cut before level 1
        zero = MatrixFamily(np.zeros((3, 2, 2)))
        want = BoundsBracket(0.0, 0.0, (1,), 0, 0, False)
        assert bounds_bracket(zero, 4, node_budget=1) == want
        assert pruned_search(zero, 1e-6, node_budget=1) == want

    def test_zero_family_report_raises(self):
        with pytest.raises(BudgetExceededError):
            berger_wang_report(MatrixFamily(np.zeros((3, 2, 2))), 4,
                               node_budget=1)


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

    def test_keeps_to_the_node_budget(self):
        # a level is expanded only when it fits: this pair's level 20
        # would take the count from 84,070 to 154,862
        rng = np.random.default_rng(0)
        fam = MatrixFamily(rng.standard_normal((2, 2, 2))
                           + 1j * rng.standard_normal((2, 2, 2)))
        b = pruned_search(fam, tol=1e-3, node_budget=10**5)
        assert not b.complete
        assert b.nodes_visited <= 10**5
        assert b.lower <= b.upper

    def test_budget_below_one_level(self, golden_pair):
        # not even level 1 fits: the bracket bounds_bracket gives
        want = BoundsBracket(0.0, golden_pair.scale, (1,), 0, 0, False)
        assert pruned_search(golden_pair, 1e-6, node_budget=1) == want
        assert bounds_bracket(golden_pair, 4, node_budget=1) == want
        zero = MatrixFamily(np.zeros((3, 2, 2)))
        assert pruned_search(zero, 1e-6, node_budget=2).nodes_visited == 0

    def test_rejects_bad_tol(self, golden_pair):
        with pytest.raises(ValueError):
            pruned_search(golden_pair, tol=0.0)

    def test_zero_family(self):
        b = pruned_search(MatrixFamily(np.zeros((1, 2, 2))), tol=1e-6)
        assert b.lower == 0.0 and b.upper == 0.0
