"""Hot numeric kernels: word-tree scans and matrix-product path sums.

Everything here is vectorized numpy; there is one implementation of each
kernel.  ``scan_words`` walks the word tree one level at a time, forming
all K^n products of a level as one batched matmul.  Only the per-level
maxima of the spectral radius and the operator norm are wanted, so the
expensive batched SVD and ``eigvals`` run on a screened subset, and the
screen is exact:

* rho(P) <= ||P||_2 <= ||P||_F for every product P, and the Frobenius
  norms of a whole level cost one reduction.  A word whose ||P||_F lies
  below a value that some word of the level attains (the 2-norm, or the
  spectral radius, of the word with the largest Frobenius norm) cannot
  hold the maximum, so it is skipped.  The 1e-10 relative margin covers
  rounding in the computed norms.
* Every word that can attain the maximum survives the screen, and the
  argmax is taken over survivors in index (= lexicographic) order, so the
  first maximizer is the same word an unscreened scan would pick.

Real families (every imaginary part exactly 0) run in float64.  Words of
length n are carried as their base-K indices c = 0..K^n-1 in lexicographic
order, and only the winners are decoded to digits.

Letters are 0-based here; the public API uses 1-based words.
"""

from __future__ import annotations

import numpy as np

from .config import RENORM_EVERY

# jsrbench/run.py prints this in its header: there is no compiled path.
USE_NUMBA = False

_SCREEN_MARGIN = 1.0 - 1e-10
# log norms within this of each other tie (a relative 1e-12 in the norm)
_LOG_TIE = 1e-12
# below this the squares summed into ||P||_F may underflow, so the screen
# is skipped (and every word is checked) rather than trusted
_SCREEN_FLOOR = 1e-140


def canonical_mask(k: int, n: int) -> np.ndarray:
    """Mask over the words of length n (as base-k indices, lexicographic
    order) that are lexicographically <= every cyclic rotation of
    themselves.  Rotating word c left by s gives
    (c mod k^(n-s)) * k^s + c div k^(n-s)."""
    codes = np.arange(k ** n, dtype=np.int64)
    mask = np.ones(codes.size, bool)
    for s in range(1, n):
        high = k ** (n - s)
        mask &= codes <= (codes % high) * k ** s + codes // high
    return mask


def _digits(code: int, k: int, n: int) -> np.ndarray:
    out = np.zeros(n, np.int64)
    for i in range(n - 1, -1, -1):
        code, out[i] = divmod(code, k)
    return out


def _first_near_max(values, tie):
    """First index whose value is within ``tie`` of the maximum: rounding
    must not decide between words of mathematically equal value (cyclic
    rotations, reversed words of a symmetric family, orthogonal letters)."""
    return int(np.argmax(values >= values.max() - tie))


def _two_norms(prods):
    return np.linalg.svd(prods, compute_uv=False)[:, 0]


def _spectral_radii(prods):
    return np.abs(np.linalg.eigvals(prods)).max(axis=1)


def _screened(values_of, prods, fro, candidates):
    """(indices, values) of the candidates that can hold the maximum of
    ``values_of`` (2-norm or spectral radius, both <= ||P||_F): those whose
    Frobenius norm reaches the value of the candidate with the largest one."""
    top = candidates[int(np.argmax(fro[candidates]))]
    floor = values_of(prods[top:top + 1])[0]
    if floor >= _SCREEN_FLOOR:
        candidates = candidates[fro[candidates] >= floor * _SCREEN_MARGIN]
    return candidates, values_of(prods[candidates])


def scan_words(mats, depth, node_budget, dedup):
    """Exhaustive scan over all words of length 1..depth, level by level.

    Returns per-depth maxima of averaged norm and averaged spectral value,
    the best (value, word) for the spectral lower bound with
    shorter-then-lexicographic tie-breaking, the log norm and word of the
    largest product norm, the node count, and a completion flag.  A level
    is scanned only when it fits in the remaining node budget.
    """
    K, d, _ = mats.shape
    if not np.any(mats.imag):
        mats = np.ascontiguousarray(mats.real)
    max_rho = np.zeros(depth)
    max_norm = np.zeros(depth)
    best_val = -1.0
    best_len = 0
    best_word = np.zeros(depth, np.int64)
    bn_val = -np.inf
    bn_len = 0
    bn_word = np.zeros(depth, np.int64)
    nodes = 0
    completed = True
    prods = np.eye(d, dtype=mats.dtype)[None]
    for n in range(1, depth + 1):
        m = prods.shape[0] * K
        if nodes + m > node_budget:
            completed = False
            break
        # children in lexicographic order: parent-major, letter-minor
        prods = (prods[:, None] @ mats[None]).reshape(m, d, d)
        nodes += m
        flat = prods.reshape(m, -1)
        if np.iscomplexobj(flat):
            flat = flat.view(np.float64)
        fro = np.sqrt(np.einsum("ij,ij->i", flat, flat))
        everything = np.arange(m)

        kept, norms = _screened(_two_norms, prods, fro, everything)
        top = float(norms.max())
        max_norm[n - 1] = top ** (1.0 / n) if top > 0.0 else 0.0
        with np.errstate(divide="ignore"):
            lognorms = np.where(norms > 0.0, np.log(norms), -np.inf)
        i = _first_near_max(lognorms, _LOG_TIE)
        if lognorms[i] > bn_val + _LOG_TIE:
            bn_val = float(lognorms[i])
            bn_len = n
            bn_word[:n] = _digits(int(kept[i]), K, n)

        canon = np.flatnonzero(canonical_mask(K, n)) if dedup else everything
        kept, rhos = _screened(_spectral_radii, prods, fro, canon)
        avs = np.where(rhos > 0.0, rhos ** (1.0 / n), 0.0)
        max_rho[n - 1] = avs.max()
        j = _first_near_max(avs, 1e-12 * max(max_rho[n - 1], 1.0))
        if avs[j] > best_val + 1e-12 * max(best_val, 1.0):
            best_val = float(avs[j])
            best_len = n
            best_word[:n] = _digits(int(kept[j]), K, n)
    return (max_rho, max_norm, best_val, best_word, best_len,
            bn_val, bn_word, bn_len, nodes, completed)


def path_log_norms(mats, paths):
    """Per-path (1/L) log ||S_{i_1} ... S_{i_L}|| with running rescaling."""
    n_paths, length = paths.shape
    K, d, _ = mats.shape
    prods = np.broadcast_to(np.eye(d, dtype=np.complex128),
                            (n_paths, d, d)).copy()
    acc = np.zeros(n_paths)
    dead = np.zeros(n_paths, bool)
    for t in range(length):
        col = paths[:, t]
        for k in range(K):
            sel = col == k
            if sel.any():
                prods[sel] = prods[sel] @ mats[k]
        if (t + 1) % RENORM_EVERY == 0:
            f = np.sqrt((np.abs(prods) ** 2).sum(axis=(1, 2)))
            dead |= f == 0.0
            f[dead] = 1.0
            prods /= f[:, None, None]
            with np.errstate(divide="ignore"):
                acc += np.where(dead, 0.0, np.log(f))
    sv = np.linalg.svd(prods, compute_uv=False)[:, 0]
    with np.errstate(divide="ignore"):
        out = (acc + np.where(sv > 0.0, np.log(sv), -np.inf)) / length
    out[dead] = -np.inf
    return out


def power_log_norms(mat, steps):
    """log ||A^n|| for n = 1..steps, overflow-safe."""
    d = mat.shape[0]
    prod = np.eye(d, dtype=np.complex128)
    out = np.empty(steps)
    acc = 0.0
    for t in range(steps):
        prod = prod @ mat
        f = np.linalg.norm(prod)
        if f == 0.0:
            out[t:] = -np.inf
            return out
        prod /= f
        acc += np.log(f)
        sv = np.linalg.svd(prod, compute_uv=False)[0]
        out[t] = acc + (np.log(sv) if sv > 0.0 else -np.inf)
    return out
