"""Certified lower/upper bounds on the joint spectral radius.

The lower bound is the best nth-root spectral radius over all words up to
a depth (a true lower bound since it is attained); the upper bound is the
smallest per-depth maximum of nth-root product norms (a true upper bound
by submultiplicativity).  ``pruned_search`` narrows the bracket with a
Gripenberg-style branch-and-bound instead of exhausting every depth.

Both walk the word tree level by level through the batched frontier step
of ``_kernels``.  The exhaustive scan (``_kernels.scan_words``) builds
only the words that can still hold a level maximum or beat the witness
(a word u of level n is dropped once ||P_u||_F M(N - n) stays below the
witness^N at every deeper level N, and a scan whose bracket inverts is
redone whole), so its answers are those of a scan of every word, and
takes singular values only where exact screens, the Frobenius norm and
then the Gelfand chain ||(P^H P)^(2^(k-1))||_F^(2^-k), say the level
maximum can be.  The pruned search takes an SVD only of the words whose
Frobenius norm does not already decide the cut
(``_kernels.norms_above``).  Both take eigenvalues only of the Lyndon
words whose bounds, ||P||_F and ||P^(2^k)||_F^(2^-k) for k = 1, 2, 3, can
still beat the running witness (``_kernels.level_witness``).  Both work
on the family over its scale (``MatrixFamily.normalized_mats``), and
both count in ``nodes_visited`` the words they build.  The scan stops at
the first level where its bracket closes, the upper end within 1e-12 of
the lower relative (or both 0): no deeper word can beat the witness by
the tie below, so its ends are those of the full depth, the upper to
rounding, and ``depth_explored`` and ``nodes_visited`` fall.

Tie rule, shared by both: values are compared on the family divided by
its scale, so a rescaled family decides the same way.  A level's witness
is its first Lyndon word, lexicographically, within 1e-12 of the largest
value among those that can beat the running witness, and it replaces the
running witness only if it beats it by more than that.  Ties go to the
shorter word, then to the lexicographically first: a power of a word ties
the word, and is never valued.  The per-depth lower bound
(``WordScan.max_rho``) is the running maximum of the levels' spectral
values.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import _kernels
from .config import DEFAULT_NODE_BUDGET
from .matrix_core import MatrixFamily, Word


@dataclass(frozen=True)
class BoundsBracket:
    lower: float
    upper: float
    best_word: Word
    depth_explored: int
    nodes_visited: int
    complete: bool = True

    @property
    def width(self) -> float:
        return self.upper - self.lower


class BudgetExceededError(RuntimeError):
    """Node budget exhausted before a report that needs every level."""


def _scan(family: MatrixFamily, depth: int,
          node_budget: int) -> _kernels.WordScan:
    """Exhaustive word-tree scan, rescaled for overflow safety.  Before
    level 1 the spectral witness is the word (1,) with value 0."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    scale = family.scale
    res = _kernels.scan_words(family.normalized_mats(), depth, node_budget)
    return replace(res, max_rho=res.max_rho * scale,
                   max_norm=res.max_norm * scale,
                   best_val=max(res.best_val, 0.0) * scale,
                   best_word=res.best_word or (1,))


def _bracket(res: _kernels.WordScan, scale: float) -> BoundsBracket:
    upper = float(np.min(res.max_norm[:res.levels], initial=scale))
    return BoundsBracket(res.best_val, upper, res.best_word, res.levels,
                         res.nodes, res.complete)


def _table(res: _kernels.WordScan, node_budget: int) -> list[dict]:
    if not res.complete:
        raise BudgetExceededError(
            f"node budget {node_budget} exhausted at {res.nodes} nodes")
    n = res.levels
    upper = np.minimum.accumulate(res.max_norm[:n])
    return [{"n": j, "lower": float(lo), "upper": float(up)}
            for j, lo, up in zip(range(1, n + 1), res.max_rho, upper)]


def bounds_bracket(family: MatrixFamily, depth: int,
                   node_budget: int = DEFAULT_NODE_BUDGET) -> BoundsBracket:
    """Exhaustive bracket [lower, upper] at one depth.

    ``nodes_visited`` counts the words the scan built, only those that
    can still hold a level maximum or beat the witness, so a node budget
    buys depth: a level is built only when it fits in what is left.  On
    budget exhaustion the bracket is flagged incomplete but stays sound:
    the lower is attained, and the upper is the minimum over the levels
    scanned before the cut (each one's maximum is exact), or
    max_k ||S_k|| when not even level 1 fit.  ``depth_explored`` counts
    the levels scanned.  A bracket that closes, upper within 1e-12 of
    lower relative (or both 0), ends the scan: no deeper word can beat
    the witness, so ``depth_explored`` below ``depth`` with ``complete``
    True means closed at that depth, with the answers of the full depth.
    """
    return _bracket(_scan(family, depth, node_budget), family.scale)


def berger_wang_report(family: MatrixFamily, depth: int,
                       node_budget: int = DEFAULT_NODE_BUDGET) -> list[dict]:
    """Per-depth rows (n, running-max lower, running-min upper).

    The two columns converge to the same value (the Berger-Wang equality
    of the generalized and joint spectral radii); the report shows how
    fast they do at this depth.  A closed bracket ends the scan, so the
    rows end at the depth where it closed.
    """
    return _table(_scan(family, depth, node_budget), node_budget)


def pruned_search(family: MatrixFamily, tol: float,
                  node_budget: int = DEFAULT_NODE_BUDGET,
                  max_depth: int = 64) -> BoundsBracket:
    """Branch-and-bound bracket of width <= tol (or best within budget).

    A word stops being extended once its averaged product norm falls to
    lower + tol: any continuation then factors through blocks of averaged
    norm <= lower + tol, so nothing above that level is lost.  The
    returned lower is always an attained averaged spectral value; the
    returned upper is max(lower + tol, best frontier value), a true upper
    bound by the block-factorization argument.

    Each level expands the whole frontier in one batched matmul, raises
    the lower bound by the level's spectral witness among its Lyndon
    words (under the tie rule above), then cuts every child whose
    averaged norm is <= lower + tol.  A level is expanded only if it fits
    in the remaining node budget, as in the scan (with no level, the
    bracket is [0, max_k ||S_k||] at (1,)), and the search is complete
    only if the frontier ran out first.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    scale = family.scale
    if family.size > node_budget:
        return BoundsBracket(0.0, scale, (1,), 0, 0, False)
    if scale == 0.0:
        return BoundsBracket(0.0, 0.0, (1,), 1, family.size, True)
    # work on the rescaled family so products stay near magnitude 1
    mats = family.normalized_mats()
    prods = np.eye(family.dim, dtype=mats.dtype)[None]
    words = np.zeros((1, 0), np.int64)
    lengths = np.ones(1, np.int64)
    best_val, best_word = -1.0, words
    nodes = depth = 0
    while prods.shape[0] and depth < max_depth:
        if nodes + prods.shape[0] * family.size > node_budget:
            break
        depth += 1
        prods = _kernels.children(prods, mats)
        words, lengths, lyndon = _kernels.child_necklaces(words, lengths,
                                                          family.size)
        nodes += prods.shape[0]
        fro = _kernels.frobenius(prods)
        found = _kernels.level_witness(prods, fro, np.flatnonzero(lyndon),
                                       depth, best_val)
        if found and found[1] > best_val + 1e-12 * max(best_val, 1.0):
            best_val, best_word = found[1], words[found[0]]
        lower = scale * best_val
        keep, norms = _kernels.norms_above(prods, fro, depth, scale,
                                           lower + tol)
        prods, words, lengths = prods[keep], words[keep], lengths[keep]
    complete = not prods.shape[0]
    upper = float(np.max(norms, initial=lower + tol))
    return BoundsBracket(lower, upper, tuple(int(c) + 1 for c in best_word),
                         depth, nodes, complete)
