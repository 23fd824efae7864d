"""Certified lower/upper bounds on the joint spectral radius.

The lower bound is the best nth-root spectral radius over all words up to
a depth (a true lower bound since it is attained); the upper bound is the
smallest per-depth maximum of nth-root product norms (a true upper bound
by submultiplicativity).  ``pruned_search`` narrows the bracket with a
Gripenberg-style branch-and-bound instead of exhausting every depth.

Both walk the word tree level by level through the batched frontier step
of ``_kernels``; the exhaustive scan (``_kernels.scan_words``) takes
singular values and eigenvalues only where an exact Frobenius-norm screen
says the level maximum can be.

Tie rule, shared by both: values are compared on the family divided by
its scale, so a rescaled family decides the same way.  A level's witness
is its first word, lexicographically, within 1e-12 of the level maximum,
and a deeper level replaces the witness only if it beats it by more than
that.  Ties go to the shorter word, then to the lexicographically first.
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
    """Node budget exhausted before the search finished; carries the partial result."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


def _scan(family: MatrixFamily, depth: int,
          node_budget: int) -> _kernels.WordScan:
    """Exhaustive word-tree scan, rescaled for overflow safety.  Before
    level 1 the spectral witness is the word (1,) with value 0."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    scale = family.scale
    if scale == 0.0:
        return _kernels.WordScan(np.zeros(depth), np.zeros(depth), 0.0, (1,),
                                 -np.inf, (), family.size, depth, True)
    mats = np.ascontiguousarray(family.mats / scale)
    res = _kernels.scan_words(mats, depth, node_budget)
    return replace(res, max_rho=res.max_rho * scale,
                   max_norm=res.max_norm * scale,
                   best_val=max(res.best_val, 0.0) * scale,
                   best_word=res.best_word or (1,))


def lower_bound(family: MatrixFamily, depth: int,
                node_budget: int = DEFAULT_NODE_BUDGET) -> tuple[float, Word]:
    """max over words of length 1..depth of rho(P(w))^(1/|w|) and its witness.

    Ties break toward the shorter word, then the lexicographically least;
    only the least rotation of each word is valued (spectral radius is
    invariant under rotation of the word).
    """
    res = _scan(family, depth, node_budget)
    if not res.complete:
        raise BudgetExceededError(
            f"node budget {node_budget} exhausted at {res.nodes} nodes",
            partial=(float(np.max(res.max_rho)), res.best_word))
    return res.best_val, res.best_word


def upper_bound(family: MatrixFamily, depth: int,
                node_budget: int = DEFAULT_NODE_BUDGET) -> float:
    """min over n = 1..depth of (max over |w| = n of ||P(w)||^(1/n))."""
    b = bounds_bracket(family, depth, node_budget)
    if not b.complete:
        raise BudgetExceededError(
            f"node budget {node_budget} exhausted at {b.nodes_visited} nodes",
            partial=b.upper)
    return b.upper


def bounds_bracket(family: MatrixFamily, depth: int,
                   node_budget: int = DEFAULT_NODE_BUDGET) -> BoundsBracket:
    """Exhaustive bracket [lower, upper] at one depth.

    On budget exhaustion the bracket is flagged incomplete but stays
    sound: the lower is attained, and the upper is the minimum over the
    levels scanned before the cut (each was scanned whole), or
    max_k ||S_k|| when not even level 1 fit.  ``depth_explored`` counts
    the levels scanned.
    """
    res = _scan(family, depth, node_budget)
    upper = (float(np.min(res.max_norm[:res.levels])) if res.levels
             else family.scale)
    return BoundsBracket(res.best_val, upper, res.best_word, res.levels,
                         res.nodes, res.complete)


def berger_wang_report(family: MatrixFamily, depth: int,
                       node_budget: int = DEFAULT_NODE_BUDGET) -> list[dict]:
    """Per-depth rows (n, running-max lower, running-min upper).

    The two columns converge to the same value (the Berger-Wang equality
    of the generalized and joint spectral radii); the report shows how
    fast they do at this depth.
    """
    res = _scan(family, depth, node_budget)
    if not res.complete:
        raise BudgetExceededError(
            f"node budget {node_budget} exhausted at {res.nodes} nodes")
    lower = np.maximum.accumulate(res.max_rho)
    upper = np.minimum.accumulate(res.max_norm)
    return [{"n": n, "lower": float(lo), "upper": float(up)}
            for n, lo, up in zip(range(1, depth + 1), lower, upper)]


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
    the lower bound by the level's spectral witness among its canonical
    words (under the tie rule above), then cuts every child whose
    averaged norm is <= lower + tol.  The search stops after the level
    whose node count reaches ``node_budget``, and is complete only if the
    frontier ran out first.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    scale = family.scale
    if scale == 0.0:
        return BoundsBracket(0.0, 0.0, (1,), 1, family.size, True)
    # work on the rescaled family so products stay near magnitude 1
    mats = _kernels.real_if_exact(family.mats / scale)
    prods = np.eye(family.dim, dtype=mats.dtype)[None]
    words = np.zeros((1, 0), np.int64)
    lengths = np.ones(1, np.int64)
    best_val, best_word = -1.0, words
    nodes = depth = 0
    while prods.shape[0] and depth < max_depth:
        depth += 1
        prods = _kernels.children(prods, mats)
        words, lengths, canon = _kernels.child_necklaces(words, lengths,
                                                         family.size)
        nodes += prods.shape[0]
        canon = np.flatnonzero(canon)
        if canon.size:
            j, val, _ = _kernels.level_witness(
                prods, _kernels.frobenius(prods), canon, depth)
            if val > best_val + 1e-12 * max(best_val, 1.0):
                best_val, best_word = val, words[j]
        lower = scale * best_val
        norms = scale * _kernels.two_norms(prods) ** (1.0 / depth)
        keep = norms > lower + tol
        prods, words, norms = prods[keep], words[keep], norms[keep]
        lengths = lengths[keep]
        if nodes >= node_budget:
            break
    complete = not prods.shape[0] and nodes < node_budget
    upper = float(np.max(norms, initial=lower + tol))
    return BoundsBracket(lower, upper, tuple(int(c) + 1 for c in best_word),
                         depth, nodes, complete)
