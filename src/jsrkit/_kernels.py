"""Hot numeric kernels: the level-batched word walk and matrix-product path sums.

Everything here is vectorized numpy, one implementation of each kernel.
Every word walk goes one level at a time through one frontier step,
``children``: a level is K GEMMs per block of parents, one per letter j,
each multiplying the stacked rows of the block by S_j into slot j of an
(m, K, d, d) array, so children come parent-major and letter-minor and a
level is in lexicographic order.  One rule, ``necklace_step``, picks the
Lyndon words of every walk from the length p of each word's longest
Lyndon prefix, carried from parent to child in O(1) beside the words.

``scan_words`` is the one frontier loop over the word tree, behind both
brackets of ``bounds``.  A whole level of length n is implicit: its
words are the base-K codes 0..K^n-1 and its Lyndon words come from
``lyndon_index``, cached per (K, n).  From a level's first cut on, the
kept words are letter rows, stepped by ``child_necklaces``, so a cut
walk goes on past the depth where codes overflow int64.  The two modes
differ only in the words of a level they keep for the next:

- the exhaustive scan drops the parents that cannot reach a level
  maximum or beat the witness (``_prefix_floor``, Gripenberg's
  branch-and-bound argument), so its answers are those of a scan of
  every word, and it stops where its bracket closes;
- the pruned search (with ``tol``) keeps the words whose averaged 2-norm
  exceeds lower + tol (``_kept_above``).

Values come from batched SVD and ``eigvals`` behind exact screens: the
Frobenius norm, then the Gelfand chain ||P^(2^k)||_F^(2^-k) >= rho(P)
and ||(P^H P)^(2^(k-1))||_F^(2^-k) >= ||P||_2, one batched matmul each
(``_screened``, ``_reach``); the keep rule also bounds the 2-norm below
by ||P^H P||_F / ||P||_F, so only the words its bounds straddle get an
SVD.  Both modes share one witness rule (``level_witness``): spectral
radii are taken only on the Lyndon words whose bounds can still beat the
running witness, since rho is invariant under rotation and a power u^k
ties the shorter u, so the answers are those of a walk that values every
canonical word.  Every kernel computes in the dtype of its stack,
float64 for a real family.  Letters are 0-based here; the walk's record
gives 1-based words, as the public API does.

``path_log_norms``, behind both Lyapunov estimates (the exact finite-n
sum over support words and the Monte Carlo average over sampled paths),
walks the same tree to a fixed depth b once: levels 1..b hold the
product of every block of up to b letters, at most ``_BLOCK_PRODUCTS``
of them, indexed by the block's base-K code.  Every path then advances b
letters per step, one gather and one stacked matmul, each product kept
as an exact power of 2 times a unit one (``unit_scale``).  b is the
largest power of two up to RENORM_EVERY with K^b <= 256 (K = 2 gives 8,
K = 3 gives 4).  The final 2-norm of a path is lambda_max(P^H P)^(1/2)
by ``eigvalsh``, not an SVD: from 64 products a call it is 1.5-2.5x
faster, but it costs about 14 us a call more, so below about 16 products
(the screened scans value fewer) ``two_norms`` stays an SVD.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .config import RENORM_EVERY

# jsrbench/run.py prints this in its header: there is no compiled path.
USE_NUMBA = False

_SCREEN_MARGIN = 1.0 - 1e-10
# below this the squares summed into ||P||_F may underflow, so the screen
# is skipped (and every word is checked) rather than trusted
_SCREEN_FLOOR = 1e-140
# the Gelfand chain of the screens: bound k, ||Q^(2^(k-1))||_F^(2^-k) for
# Q = P^2 (rho) or P^H P (2-norm), sums squares of entries of the order of
# the value^(2^k), so it is trusted only from the k-th of these floors up
_CHAIN_FLOORS = (_SCREEN_FLOOR ** 0.5, _SCREEN_FLOOR ** 0.25,
                 _SCREEN_FLOOR ** 0.125)
# entries in the GEMM result of one block of parents: each result is a
# temporary until it is copied into its slot of the level, and blocks keep
# it small next to the level (256 KB in complex128)
_GEMM_ENTRIES = 2 ** 14
# the screen floor is the largest value among this many candidates with the
# largest Frobenius norms
_SCREEN_TOP = 4
# a level of fewer words than this is built whole: on such levels the
# pruning test and the carry cost more than they save (on recorded
# `bracket` scans with a code carry, a gate of 512 or 1024 made the scan
# 1.37-1.45x faster than building every word, 256 only 1.27-1.33x; the
# K = 3, depth 6 scans of `ergodic`, which 512 prunes, ran 4-7% slower)
_PRUNE_FROM = 1024
# a whole level's base-K codes are int64: a level of more words is built
# only from the letter rows of a cut one
_MAX_CODE = 2 ** 63 - 1
# products in the block table of ``path_log_norms``: a level of at most
# this many d x d matrices is gathered from on every block step
_BLOCK_PRODUCTS = 256


def children(prods, mats, parents=None):
    """The frontier step: every product (or those at the sorted indices
    ``parents``) times every letter, in order.  Letter j fills slot j of
    the (m, K, d, d) level with one GEMM over the stacked rows of a block
    of parents, gathered a block at a time, so no copy of the kept
    parents is held beside the level."""
    m, d, _ = prods.shape if parents is None else (len(parents),
                                                   *prods.shape[1:])
    k = mats.shape[0]
    out = np.empty((m, k, d, d), np.result_type(prods, mats))
    step = max(1, _GEMM_ENTRIES // (d * d))
    for i in range(0, m, step):
        block = (prods[i:i + step] if parents is None
                 else prods[parents[i:i + step]])
        rows = block.reshape(-1, d)
        for j in range(k):
            out[i:i + step, j] = (rows @ mats[j]).reshape(-1, d, d)
    return out.reshape(m * k, d, d)


def child_words(words, k):
    """The letter array of ``children``: each row extended by 0..k-1."""
    m, n = words.shape
    out = np.empty((m, k, n + 1), words.dtype)
    out[:, :, :n] = words[:, None]
    out[:, :, n] = np.arange(k)
    return out.reshape(m * k, n + 1)


def necklace_step(lengths, ref, k, n):
    """The prenecklace step (Fredricksen-Kessler-Maiorana; Ruskey, Savage
    and Wang 1992) over the children w.a of length n, in ``child_words``
    order.  A parent carries p, the length of its longest Lyndon prefix (0
    if it is no prenecklace), and ``ref`` = w[n-1-p]; the child gets 0 if
    p = 0 or a < ref, p if a = ref, and n if a > ref.  Returns the child
    lengths and the mask of the Lyndon children (p = n: least rotations
    that are no power of a shorter word)."""
    a = np.arange(k)
    # no letter reaches the ref k of a parent with p = 0
    ref = np.where(lengths == 0, k, ref)[:, None]
    child = np.where(a > ref, n, np.where(a == ref, lengths[:, None], 0))
    child = child.ravel()
    return child, child == n


def child_necklaces(words, lengths, k):
    """(``child_words(words, k)``, their lengths, Lyndon mask) by
    ``necklace_step``; the root (1, 0) array has p = 1 and ref 0, a row
    with p = 0 any ref."""
    m, n = words.shape
    ref = (words[np.arange(m), np.minimum(n - lengths, n - 1)] if n
           else np.zeros(m, np.int64))
    return child_words(words, k), *necklace_step(lengths, ref, k, n + 1)


@functools.lru_cache(maxsize=64)
def _full_level(k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(lengths, Lyndon index) of the k^n words of length n as base-k
    codes, from the cached lengths of level n-1: the letter w[n-1-p] of
    parent code c is (c // k^(p-1)) % k."""
    # level 0 is the root: p = 1, and its code 0 gives ref 0
    parent = _full_level(k, n - 1)[0] if n > 1 else np.ones(1, np.int64)
    ref = np.arange(parent.size) // k ** np.maximum(parent - 1, 0) % k
    lengths, lyndon = necklace_step(parent, ref, k, n)
    index = np.flatnonzero(lyndon)
    lengths.setflags(write=False)
    index.setflags(write=False)
    return lengths, index


def lyndon_index(k: int, n: int) -> np.ndarray:
    """Base-k codes of the Lyndon words of length n (least rotations that
    are no power of a shorter word), in order, built once per (k, n) and
    returned read-only, since every caller shares the cached array."""
    return _full_level(k, n)[1]


def _word(code: int, k: int, n: int) -> tuple[int, ...]:
    """The 1-based word whose base-k code at length n is ``code``."""
    return tuple(code // k ** (n - 1 - i) % k + 1 for i in range(n))


def first_near_max(values, tie):
    """First index whose value is within ``tie`` of the maximum: rounding
    must not decide between words of mathematically equal value (cyclic
    rotations, reversed words of a symmetric family, orthogonal letters)."""
    return int(np.argmax(values >= values.max() - tie))


def two_norms(prods):
    return np.linalg.svd(prods, compute_uv=False)[:, 0]


def spectral_radii(prods):
    return np.abs(np.linalg.eigvals(prods)).max(axis=1)


def frobenius(prods):
    flat = prods.reshape(prods.shape[0], -1)
    if np.iscomplexobj(flat):
        flat = flat.view(np.float64)
    return np.sqrt(np.einsum("ij,ij->i", flat, flat))


def _square(prods):
    """P^2, whose Frobenius norm bounds rho(P)^2."""
    return prods @ prods


def _gram(prods):
    """P^H P, whose Frobenius norm bounds ||P||_2^2."""
    return np.ascontiguousarray(prods.transpose(0, 2, 1).conj()) @ prods


def _reach(squared, prods, fro, live, floor, known=(), taken=None):
    """The words ``live`` (indices) whose bounds reach ``floor`` less the
    margin: the Frobenius norm ``fro``, then for k = 1, 2, 3 the Gelfand
    bound ||Q^(2^(k-1))||_F^(2^-k) with Q = ``squared``(P), one more
    batched matmul each, cut by the first that falls short.  Bound k
    takes ||P||_F^(2^k) 1e-10 of slack, since the backward error of SVD
    or ``eigvals`` and the matmuls' rounding are a few ulps of it, which
    for a nearly nilpotent P exceed rho(P)^(2^k) itself; it is trusted
    from a floor of ``_CHAIN_FLOORS[k - 1]`` up, where the squares it sums
    do not underflow.  ``floor`` is at least ``_SCREEN_FLOOR``, below
    which those summed into ``fro`` may.  A call on sorted words appends
    each bound it takes, as (words, Q^(2^(k-1)), bound), to ``taken``; a
    later call on some of them reads those from ``known``, so each word's
    powers are taken once.  Without ``taken`` a power is dropped as soon
    as the next is taken."""
    cut = floor * _SCREEN_MARGIN
    f = fro[live]
    high = f >= cut
    live, f = live[high], f[high]
    power = None
    for k, trusted in enumerate(_CHAIN_FLOORS, start=1):
        if not live.size or floor < trusted:
            break
        cut, f = cut * cut, f * f  # both to the power 2^k
        if k <= len(known):
            at, power, bound = known[k - 1]
            at = np.searchsorted(at, live)
            power, bound = power[at], bound[at]
        else:
            power = squared(prods[live]) if power is None else power @ power
            bound = frobenius(power) + (1.0 - _SCREEN_MARGIN) * f
            if taken is not None:
                taken.append((live, power, bound))
        high = bound >= cut
        live, f, power = live[high], f[high], power[high]
    return live


def _screened(values_of, squared, prods, fro, candidates, floor=0.0):
    """(indices, values) of the candidates (sorted indices) that can hold
    the maximum of ``values_of`` (2-norm or spectral radius) and reach
    ``floor``, in order.  A known ``floor`` (0 for none) cuts first: a
    word stays only when its Frobenius norm and then its Gelfand bounds
    from ``squared`` (``_square`` or ``_gram``) reach it (``_reach``).
    The floor of the level is the largest value among the ``_SCREEN_TOP``
    remaining candidates with the largest Frobenius norms, and the same
    bounds cut the rest against it.  It is at most the maximum, so every
    word that ties the maximum survives.  The floor words are valued
    once, ``values_of`` runs on the rest only if some survive, and each
    word's bounds are taken at most once.  A set no larger than
    ``_SCREEN_TOP`` is valued whole, and an empty one makes no call."""
    known = []
    if floor >= _SCREEN_FLOOR:
        candidates = _reach(squared, prods, fro, candidates, floor,
                            taken=known)
    if candidates.size <= _SCREEN_TOP:
        if not candidates.size:
            return candidates, np.zeros(0)
        return candidates, values_of(prods[candidates])
    f = fro[candidates]
    order = np.argpartition(f, -_SCREEN_TOP)
    top4, rest = order[-_SCREEN_TOP:], candidates[order[:-_SCREEN_TOP]]
    kept = candidates[top4]
    values = values_of(prods[kept])
    top = values.max()
    if top >= _SCREEN_FLOOR:
        high = f[top4] >= top * _SCREEN_MARGIN
        kept, values = kept[high], values[high]
        rest = _reach(squared, prods, fro, rest, top, known)
    if rest.size:
        kept = np.concatenate([kept, rest])
        values = np.concatenate([values, values_of(prods[rest])])
    order = np.argsort(kept)
    return kept[order], values[order]


def level_witness(prods, fro, candidates, n, best):
    """(index, value, maximum) over the candidates whose averaged value
    rho(P)^(1/n) can beat ``best``, the running witness (normalized, so at
    most 1; below 0 before the first level): the first within 1e-12 of
    the largest, and that largest.  None when no candidate can; then no
    ``eigvals`` runs.  A candidate is cut when its bounds fall below
    (best*(1 - 1e-11))^n: a word of averaged value below best*(1 - 1e-11)
    can neither beat the witness by 1e-12 nor lie within 1e-12 of a level
    maximum that does."""
    floor = (best * (1.0 - 1e-11)) ** n if best > 0.0 else 0.0
    kept, rhos = _screened(spectral_radii, _square, prods, fro, candidates,
                           floor)
    if not kept.size:
        return None
    avs = rhos ** (1.0 / n)
    top = float(avs.max())
    j = first_near_max(avs, 1e-12 * max(top, 1.0))
    return int(kept[j]), float(avs[j]), top


def _kept_above(prods, fro, n, scale, level):
    """Indices of the products whose averaged 2-norm scale*||P||_2^(1/n),
    as ``two_norms`` computes it, exceeds ``level``.  Bounds decide most
    words, with a 1e-10 margin for rounding (a rank-one P's SVD value can
    lie a few ulps above its computed Frobenius norm f): f above, and
    ||P^H P||_F / f <= ||P||_2 below, one batched matmul on the words f
    does not cut.  Only the words the two straddle get an SVD.  Below
    ``_SCREEN_FLOOR`` f may have underflowed and cuts nothing; below
    ``_CHAIN_FLOORS[0]`` the lower bound may have and keeps nothing."""
    def averaged(values):
        return scale * values ** (1.0 / n)

    live = np.flatnonzero((fro < _SCREEN_FLOOR)
                          | (averaged(fro / _SCREEN_MARGIN) > level))
    keep = fro[live] >= _CHAIN_FLOORS[0]
    at = live[keep]
    gram = np.empty(at.size)
    step = max(1, _GEMM_ENTRIES // prods.shape[-1] ** 2)
    # a block at a time, as in ``children``: P^H P of a whole level would
    # hold three more copies of it
    for i in range(0, at.size, step):
        gram[i:i + step] = frobenius(_gram(prods[at[i:i + step]]))
    keep[keep] = averaged(gram / fro[at] * _SCREEN_MARGIN) > level
    straddled = ~keep
    if straddled.any():
        keep[straddled] = averaged(two_norms(prods[live[straddled]])) > level
    return live[keep]


@dataclass(frozen=True)
class WordScan:
    """What ``scan_words`` found: per-level bounds and the spectral
    witness, the only word it keeps (1-based, as in the public API)."""

    max_rho: np.ndarray   # per depth n: max over |w| <= n of rho(P(w))^(1/|w|)
    max_norm: np.ndarray  # per depth n: max over |w| = n of ||P(w)||^(1/n)
    best_val: float       # the spectral witness's value, -1 before level 1
    best_word: tuple[int, ...]
    nodes: int
    levels: int           # lengths 1..levels were scanned
    complete: bool


def _prefix_floor(tops, n, depth, best):
    """The least Frobenius norm a word u of level n needs to hold a level
    maximum or a word that can beat the witness ``best`` at some level N
    in (n, depth]: the least (best (1 - 1e-11))^N / M(N - n).  A level-N
    word w = u.v has ||P_w|| <= ||P_u|| M(N - n), and a level maximum
    reaches rho^N >= best^N.  M(j) is the raw level-j maximum 2-norm
    ``tops[j - 1]`` for j <= n and beyond it min over a + b = j of
    M(a) M(b).  A level N with M(N - n) = 0 holds nothing u could reach,
    so it keeps no word."""
    top = tops[:n]
    for j in range(n + 1, depth - n + 1):
        top.append(min(top[a - 1] * top[j - a - 1] for a in range(1, n + 1)))
    reach = best * (1.0 - 1e-11)
    return min((reach ** big / top[big - n - 1]
                for big in range(n + 1, depth + 1) if top[big - n - 1] > 0.0),
               default=math.inf)


def scan_words(mats, depth, node_budget, prune=True, tol=None,
               scale=1.0) -> WordScan:
    """Walk the words of length 1..depth, level by level: the exhaustive
    scan, or with ``tol`` the pruned search.

    Both take the running maximum of the averaged spectral value (the
    depth-n lower bound, ``max_rho``) and the witness (value, word) for it
    with shorter-then-lexicographic tie-breaking (``level_witness``).  A
    level is built only when it fits in the remaining node budget (and,
    built whole, its base-K codes in int64), and ``nodes`` counts the
    words built.  The two differ in the words of a level they keep for
    the next.

    The scan takes per-level maxima of averaged norm (``max_norm``).
    After each level, a bracket whose upper end, the least ``max_norm``
    so far, lies within 1e-12 of ``best_val`` relative, in either
    direction, is closed: the scan stops there, complete, with ``levels``
    the levels scanned, and the entries of ``max_rho`` and ``max_norm``
    past it stay 0.  A deeper word cannot beat the witness by the 1e-12
    tie, since its averaged value is at most rho, itself at most the
    upper end, so the lower end and the witness are those of the full
    depth.  An inverted bracket beyond the tie never closes.  Before a
    level of at least ``_PRUNE_FROM`` words is built, the words of its
    parent level whose Frobenius norm lies below ``_prefix_floor`` (by
    the screen margin, and from ``_SCREEN_FLOOR`` up) are dropped: none
    of their extensions can hold a level maximum or pass the witness's
    own floor, so the answers are those of the whole scan
    (``prune=False``).  That argument needs every level maximum to reach
    the witness; when one ends below it (an inverted bracket) or a level
    loses every word, the scan is redone whole, and the redone scan's
    record (its nodes too) is the answer.

    The pruned search (Gripenberg's branch and bound) keeps the words
    whose averaged norm scale*||P||_2^(1/n) exceeds scale*``best_val`` +
    ``tol`` (``_kept_above``), and it is complete when a level keeps
    none.  Its ``max_norm`` holds only the last level's entry: the
    largest averaged norm among the words that level kept (0 if none).
    """
    K, d, _ = mats.shape
    max_rho = np.zeros(depth)
    max_norm = np.zeros(depth)
    tops = []
    best_val, best_word = -1.0, ()
    lower, upper = 0.0, math.inf
    nodes = levels = 0
    completed = True
    pruned = False
    prods = np.eye(d, dtype=mats.dtype)[None]
    # a whole level is implicit, its words the base-K codes 0..K^n-1; from
    # a level's first cut on, the kept words are letter rows, carried with
    # the lengths of their longest Lyndon prefixes
    words = lengths = kept = None
    for n in range(1, depth + 1):
        m = (prods.shape[0] if kept is None else kept.size) * K
        if not m:  # the pruned search kept no word
            break
        if nodes + m > node_budget or (words is None and K ** n > _MAX_CODE):
            completed = False
            break
        prods, kept = children(prods, mats, kept), None
        nodes += m
        if words is None:
            lyndon = lyndon_index(K, n)
        else:
            words, lengths, mask = child_necklaces(words, lengths, K)
            lyndon = np.flatnonzero(mask)
        fro = frobenius(prods)
        if tol is None:
            _, norms = _screened(two_norms, _gram, prods, fro, np.arange(m))
            top = float(norms.max())
            tops.append(top)
            max_norm[n - 1] = top ** (1.0 / n) if top > 0.0 else 0.0
        found = level_witness(prods, fro, lyndon, n, best_val)
        if found:
            j, val, level_max = found
            lower = max(lower, level_max)
            if val > best_val + 1e-12 * max(best_val, 1.0):
                best_val = val
                best_word = (_word(j, K, n) if words is None
                             else tuple(a + 1 for a in words[j].tolist()))
        max_rho[n - 1] = lower
        levels = n
        if tol is not None:
            keep = _kept_above(prods, fro, n, scale, scale * best_val + tol)
        else:
            upper = min(upper, max_norm[n - 1])
            if abs(upper - best_val) <= 1e-12 * best_val:  # closed
                break
            if not (prune and n < depth and m * K >= _PRUNE_FROM
                    and best_val > 0.0):
                continue
            floor = _prefix_floor(tops, n, depth, best_val) * _SCREEN_MARGIN
            keep = np.flatnonzero((fro >= floor) | (fro < _SCREEN_FLOOR))
            if not keep.size:
                return scan_words(mats, depth, node_budget, prune=False)
            pruned = pruned or keep.size < m
        if keep.size == m:
            continue
        kept = keep
        if words is None:  # the first cut: rows of the codes' base-K digits
            words = kept[:, None] // K ** np.arange(n - 1, -1, -1) % K
            lengths = _full_level(K, n)[0][kept]
        else:
            words, lengths = words[kept], lengths[kept]
    if tol is not None:
        completed = kept is not None and not kept.size
        if levels:
            live = np.arange(prods.shape[0]) if kept is None else kept
            _, norms = _screened(two_norms, _gram, prods, fro, live)
            # an array power, which rounds as the keep rule's does
            max_norm[levels - 1] = np.max(norms ** (1.0 / levels),
                                          initial=0.0)
    if pruned and np.any(max_norm[:levels] < best_val * (1.0 - 1e-11)):
        return scan_words(mats, depth, node_budget, prune=False)
    return WordScan(max_rho, max_norm, best_val, best_word, nodes, levels,
                    completed)


def _block_length(k: int) -> int:
    """b of ``path_log_norms``: the largest power of two up to
    RENORM_EVERY with k^b <= ``_BLOCK_PRODUCTS``, and at least 1."""
    b = 1
    while 2 * b <= RENORM_EVERY and k ** (2 * b) <= _BLOCK_PRODUCTS:
        b *= 2
    return b


def unit_scale(prods):
    """(Q, e) with Q = P 2^-e exactly for each product P of the stack, e
    the binary exponent of P's Frobenius norm (below ``_SCREEN_FLOOR``,
    where its squares may underflow, of its largest entry modulus), so
    that this magnitude of Q lies in [1/2, 1); e = 0 for a zero P."""
    f = frobenius(prods)
    tiny = f < _SCREEN_FLOOR
    if tiny.any():
        f[tiny] = np.abs(prods[tiny]).max(axis=(1, 2))
    e = np.frexp(f)[1]
    flat = prods.view(np.float64) if np.iscomplexobj(prods) else prods
    return np.ldexp(flat, -e[:, None, None]).view(prods.dtype), e


def path_log_norms(mats, paths):
    """Per-path (1/L) log ||S_{i_1} ... S_{i_L}||.

    Levels 1..b of the word walk (``children``, b from ``_block_length``)
    hold the product of every block of up to b letters at its base-K
    code.  A path takes a head step of h = 1..b letters from level h, so
    that L - h is whole blocks, then one gather from level b and one
    stacked matmul per block.  ``unit_scale`` keeps as (Q, e) the letters,
    those two levels and the running products every RENORM_EVERY / b steps
    (the head counted: every RENORM_EVERY letters when b divides L, else
    b - h letters sooner), exactly: only a product that underflows within
    one such window (a zero one) has -inf.

    A last scaling leaves lambda_max(Q^H Q) >= 1/4: ||Q||_2 is its root,
    by ``eigvalsh`` of the Gram matrix, whose squares do not underflow,
    and the log is (e log 2 + log ||Q||_2)/L.  That beats an SVD from
    about 16 products a call, and an estimate values 64 and more;
    ``two_norms`` stays an SVD for the few a screened scan values per call.
    """
    n_paths, length = paths.shape
    k, d, _ = mats.shape
    b = _block_length(k)
    head = (length - 1) % b + 1
    letters, shift = unit_scale(mats)
    levels, exps = [np.eye(d, dtype=mats.dtype)[None]], [np.zeros(1, np.int64)]
    for _ in range(b if length > b else head):
        levels.append(children(levels[-1], letters))
        exps.append((exps[-1][:, None] + shift).ravel())
    for h in {head, len(levels) - 1}:  # the two levels a path gathers from
        levels[h], lift = unit_scale(levels[h])
        exps[h] += lift
    weights = k ** np.arange(b - 1, -1, -1)
    blocks = paths[:, head:].reshape(n_paths, (length - head) // b, b) @ weights
    first = paths[:, :head] @ weights[b - head:]
    prods = levels[head][first]
    e = exps[head][first] + exps[-1][blocks].sum(axis=1)
    every = RENORM_EVERY // b
    for s in range(blocks.shape[1]):
        if s % every == every - 1:
            prods, lift = unit_scale(prods)
            e += lift
        prods = prods @ levels[-1][blocks[:, s]]
    prods, lift = unit_scale(prods)
    lam = np.linalg.eigvalsh(_gram(prods))[:, -1]
    logs = np.log(lam, where=lam > 0.0, out=np.full(n_paths, -np.inf))
    return ((e + lift) * np.log(2.0) + 0.5 * logs) / length
