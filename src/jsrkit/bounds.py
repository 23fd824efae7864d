"""Certified lower/upper bounds on the joint spectral radius.

The lower bound is the best nth-root spectral radius over all words up to
a depth (a true lower bound since it is attained); the upper bound is the
smallest per-depth maximum of nth-root product norms (a true upper bound
by submultiplicativity).  ``pruned_search`` narrows the bracket with a
Gripenberg-style branch-and-bound instead of exhausting every depth.

The exhaustive scan (numpy only, ``_kernels.scan_words``) needs just the
maximum of each level, so it takes singular values and eigenvalues only
of the words whose Frobenius norm reaches a value some word of the level
attains.  That screen is exact because rho(P) <= ||P||_2 <= ||P||_F, and
the first maximizer in lexicographic order survives it, so the tie rules
below are those of a scan of every word.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .config import DEFAULT_NODE_BUDGET
from .matrix_core import (MatrixFamily, Word, is_cyclic_canonical,
                          operator_norm, spectral_radius)


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

    def to_json_dict(self) -> dict:
        return {
            "lower": self.lower,
            "upper": self.upper,
            "best_word": list(self.best_word),
            "depth_explored": self.depth_explored,
            "nodes_visited": self.nodes_visited,
            "complete": self.complete,
        }


class BudgetExceededError(RuntimeError):
    """Node budget exhausted before the search finished; carries the partial result."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class _ScanResult:
    max_rho: np.ndarray    # per depth n: max over |w|=n of rho(P(w))^(1/n)
    max_norm: np.ndarray   # per depth n: max over |w|=n of ||P(w)||^(1/n)
    best_val: float
    best_word: Word
    nodes: int
    complete: bool


def _scan(family: MatrixFamily, depth: int, node_budget: int,
          dedup: bool = True) -> _ScanResult:
    """Exhaustive word-tree scan, rescaled for overflow safety."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    scale = family.scale
    if scale == 0.0:
        return _ScanResult(np.zeros(depth), np.zeros(depth), 0.0, (1,),
                           family.size, True)
    mats = np.ascontiguousarray(family.mats / scale)
    (max_rho, max_norm, best_val, best_word, best_len,
     _, _, _, nodes, complete) = _kernels.scan_words(
        mats, depth, node_budget, dedup)
    word = tuple(int(c) + 1 for c in best_word[:best_len])
    if best_len == 0:  # zero spectral radius everywhere
        word = (1,)
        best_val = 0.0
    return _ScanResult(max_rho * scale, max_norm * scale,
                       float(best_val) * scale, word, int(nodes),
                       bool(complete))


def lower_bound(family: MatrixFamily, depth: int,
                node_budget: int = DEFAULT_NODE_BUDGET,
                dedup: bool = True) -> tuple[float, Word]:
    """max over words of length 1..depth of rho(P(w))^(1/|w|) and its witness.

    Ties break toward the shorter word, then the lexicographically least;
    cyclically equal words are deduplicated (spectral radius is invariant
    under rotation of the word).
    """
    res = _scan(family, depth, node_budget, dedup)
    if not res.complete:
        raise BudgetExceededError(
            f"node budget {node_budget} exhausted at {res.nodes} nodes",
            partial=(float(np.max(res.max_rho)), res.best_word))
    return res.best_val, res.best_word


def upper_bound(family: MatrixFamily, depth: int,
                node_budget: int = DEFAULT_NODE_BUDGET) -> float:
    """min over n = 1..depth of (max over |w| = n of ||P(w)||^(1/n))."""
    res = _scan(family, depth, node_budget, dedup=True)
    if not res.complete:
        # partial per-depth maxima are not sound; fall back to depth 1
        raise BudgetExceededError(
            f"node budget {node_budget} exhausted at {res.nodes} nodes",
            partial=family.scale)
    return float(np.min(res.max_norm))


def bounds_bracket(family: MatrixFamily, depth: int,
                   node_budget: int = DEFAULT_NODE_BUDGET,
                   dedup: bool = True) -> BoundsBracket:
    """Exhaustive bracket [lower, upper] at one depth.

    On budget exhaustion the lower is still sound (it is attained), but
    interrupted per-depth norm maxima are not; the upper then falls back
    to the depth-1 value max_k ||S_k|| and the bracket is flagged.
    """
    res = _scan(family, depth, node_budget, dedup)
    if res.complete:
        upper = float(np.min(res.max_norm))
        return BoundsBracket(res.best_val, upper, res.best_word, depth,
                             res.nodes, True)
    return BoundsBracket(res.best_val, family.scale, res.best_word, 1,
                         res.nodes, False)


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
    rows = []
    run_lower = 0.0
    run_upper = float("inf")
    for n in range(1, depth + 1):
        run_lower = max(run_lower, float(res.max_rho[n - 1]))
        run_upper = min(run_upper, float(res.max_norm[n - 1]))
        rows.append({"n": n, "lower": run_lower, "upper": run_upper})
    return rows


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
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    scale = family.scale
    if scale == 0.0:
        return BoundsBracket(0.0, 0.0, (1,), 1, family.size, True)
    # work on the rescaled family so products stay near magnitude 1
    mats = family.mats / scale
    k = family.size
    d = family.dim

    lower = 0.0
    best_word: Word = (1,)
    nodes = 0
    # frontier entries: (word tuple 1-based, product of rescaled mats)
    frontier = [((), np.eye(d, dtype=np.complex128))]
    depth = 0
    complete = True
    while frontier and depth < max_depth:
        depth += 1
        children = []
        for word, prod in frontier:
            for c in range(1, k + 1):
                children.append((word + (c,), prod @ mats[c - 1]))
        nodes += len(children)
        # first pass: raise the lower bound with every new spectral value
        for word, prod in children:
            if is_cyclic_canonical(word):
                r = spectral_radius(prod)
                val = scale * (r ** (1.0 / len(word)) if r > 0 else 0.0)
                if val > lower * (1 + 1e-14):
                    lower = val
                    best_word = word
        # second pass: prune with the final lower bound of this level
        cut = lower + tol
        frontier = []
        for word, prod in children:
            nval = scale * operator_norm(prod) ** (1.0 / len(word))
            if nval > cut:
                frontier.append((word, prod))
        if nodes >= node_budget:
            complete = False
            break
    if frontier:
        complete = False
    frontier_vals = [
        scale * operator_norm(prod) ** (1.0 / len(word))
        for word, prod in frontier
    ]
    upper = max([lower + tol] + frontier_vals)
    return BoundsBracket(lower, upper, best_word, depth, nodes, complete)
