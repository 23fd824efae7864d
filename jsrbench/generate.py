"""Seeded job generation for the four workloads.

Every job is a plain dict that survives ``json.dumps``: the family travels
as a JSON family document (the format ``jsrkit.io.family_from_dict``
reads), the measure as plain lists, and the oracle as the planted answer
when the generator knows one.  The same (workload, seed) always gives the
same jobs; the seed changes only the random entries, never the mix of job
kinds, so every seed exercises the same cells.

This module uses numpy only, so inputs never depend on the library under
test.
"""

from __future__ import annotations

import json
import math

import numpy as np

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
WORKLOADS = ("bracket", "certify", "ergodic", "reduce")

# bounds_bracket depth per alphabet size K: sum_{n<=depth} K^n is about 1e4
BRACKET_DEPTH = {2: 12, 3: 8, 4: 6}
CERTIFY_TOL = 1e-6
# room for the ~27k-node searches that set the certify tail
CERTIFY_NODE_BUDGET = 30_000
# polytope vertex cap: closures that have not terminated by then are
# reported inconclusive (the library default of 1e4 can take hours, and
# each vertex costs K linear programs).  Random nonnegative families need
# 2 to 25 vertices.
VERTEX_BUDGET = 30
ERGODIC_DEPTH = 6
# exact finite-n Lyapunov length per K: full support has K^n words
EXACT_N = {2: 10, 3: 6}
REDUCE_DEPTH = 5


def family_doc(mats: np.ndarray) -> str:
    """JSON family document with [re, im] pairs for complex entries."""
    mats = np.asarray(mats)
    if np.iscomplexobj(mats) and np.any(mats.imag != 0.0):
        enc = [[[[float(z.real), float(z.imag)] for z in row] for row in m]
               for m in mats]
    else:
        enc = np.asarray(mats.real, dtype=float).tolist()
    return json.dumps({"schema_version": "1", "dim": int(mats.shape[1]),
                       "matrices": enc})


def _gaussian(rng, k: int, d: int, cplx: bool) -> np.ndarray:
    m = rng.standard_normal((k, d, d))
    if cplx:
        m = m + 1j * rng.standard_normal((k, d, d))
    return m / math.sqrt(d)


def _orthogonal(rng, d: int, cplx: bool) -> np.ndarray:
    z = rng.standard_normal((d, d))
    if cplx:
        z = z + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _symmetric(rng, k: int, d: int, cplx: bool = False,
               nonneg: bool = False) -> tuple[np.ndarray, float]:
    """Hermitian family: every member is normal, so rho(S) = max_k rho(S_k)."""
    a = rng.random((k, d, d)) if nonneg else _gaussian(rng, k, d, cplx)
    s = a + np.conj(np.transpose(a, (0, 2, 1)))
    rho = max(float(np.max(np.abs(np.linalg.eigvalsh(m)))) for m in s)
    return s, rho


def _triangular(rng, k: int, d: int, cplx: bool) -> tuple[np.ndarray, float]:
    """Unitarily conjugated lower-triangular family: rho = max diagonal modulus."""
    t = np.tril(_gaussian(rng, k, d, cplx))
    q = _orthogonal(rng, d, cplx)
    rho = float(np.max(np.abs(np.diagonal(t, axis1=1, axis2=2))))
    return q.conj().T @ t @ q, rho


def _golden(rng) -> tuple[np.ndarray, float]:
    """Scaled golden pair c*{[[1,1],[0,1]], [[1,0],[1,1]]}: rho = c*phi at (1,2)."""
    c = float(rng.uniform(0.5, 2.0))
    mats = c * np.array([[[1.0, 1.0], [0.0, 1.0]], [[1.0, 0.0], [1.0, 1.0]]])
    return mats, c * GOLDEN


def _rotation_led(rng, d: int) -> tuple[np.ndarray, float]:
    """r*R(theta) (+) small, plus a contraction of norm < r.

    The first member is normal with norm r and every product has norm at
    most r^n, so rho = r; the leading eigenvalue of the maximizing word is
    complex, which the real polytope certificate cannot seed.
    """
    r = float(rng.uniform(0.8, 1.5))
    theta = float(rng.uniform(0.3, 1.2))
    s1 = np.zeros((d, d))
    s1[:2, :2] = r * np.array([[math.cos(theta), -math.sin(theta)],
                               [math.sin(theta), math.cos(theta)]])
    if d > 2:
        s1[2:, 2:] = 0.5 * r * np.eye(d - 2)
    s2 = rng.random((d, d))
    s2 *= 0.7 * r / np.linalg.norm(s2, 2)
    return np.stack([s1, s2]), r


def _job(kind: str, mats: np.ndarray, **fields) -> dict:
    return {"kind": kind, "family": family_doc(mats), **fields}


def _bracket_cell(rng, cell: int) -> list[dict]:
    jobs = []
    for k in (2, 3, 4):
        depth = BRACKET_DEPTH[k]
        for d in range(2, 7):
            for cplx in (False, True):
                jobs.append(_job("random", _gaussian(rng, k, d, cplx),
                                 depth=depth))
        # planted and budget-capped jobs cycle through d = 2..6 over cells
        dims = [2 + (cell + k + i) % 5 for i in range(6)]
        for cplx, d_sym, d_tri in ((False, dims[0], dims[1]), (True, dims[2], dims[3])):
            mats, rho = _symmetric(rng, k, d_sym, cplx)
            jobs.append(_job("symmetric", mats, depth=depth, rho=rho))
            mats, rho = _triangular(rng, k, d_tri, cplx)
            jobs.append(_job("triangular", mats, depth=depth, rho=rho))
        # budget-capped queries: the budget stops the scan before the last level
        capped = k ** depth
        d = dims[4]
        jobs.append(_job("budget-capped", _gaussian(rng, k, d, False),
                         depth=depth, node_budget=capped))
        d = dims[5]
        mats, rho = _symmetric(rng, k, d, True)
        jobs.append(_job("budget-capped", mats, depth=depth,
                         node_budget=capped, rho=rho))
    for _ in range(2):
        mats, rho = _golden(rng)
        jobs.append(_job("golden", mats, depth=BRACKET_DEPTH[2], rho=rho))
    return jobs


def _certify_cell(rng, cell: int) -> list[dict]:
    jobs = []
    for k in (2, 3):
        for d in range(2, 6):
            jobs.append(_job("nonnegative", rng.random((k, d, d))))
    for k in (2, 3):
        d = 2 + (cell + k) % 4
        mats, rho = _symmetric(rng, k, d, nonneg=True)
        jobs.append(_job("symmetric", mats, rho=rho))
    mats, rho = _golden(rng)
    jobs.append(_job("golden", mats, rho=rho))
    mats, rho = _triangular(rng, 2, 2 + cell % 4, False)
    jobs.append(_job("triangular", mats, rho=rho))
    mats, rho = _rotation_led(rng, 2 + cell % 3)
    jobs.append(_job("rotation-led", mats, rho=rho))
    for job in jobs:
        job.update(tol=CERTIFY_TOL, node_budget=CERTIFY_NODE_BUDGET,
                   vertex_budget=VERTEX_BUDGET)
    return jobs


def _transition(rng, k: int, loops: int | None = None) -> np.ndarray:
    """Row-stochastic P, full support unless ``loops`` is given.  A sparse
    P keeps the cycle i -> i+1 through every letter (so the chain stays
    irreducible) plus a self-loop on each of the first ``loops`` letters.
    The mask, and with it the number of support words the exact Lyapunov
    sum visits, is fixed by ``loops``, not by the seed."""
    p = rng.dirichlet(np.ones(k), size=k)
    if loops is not None:
        mask = np.zeros((k, k), bool)
        for i in range(k):
            mask[i, (i + 1) % k] = True
            mask[i, i] = i < loops
        p = np.where(mask, p + 0.05, 0.0)
        p /= p.sum(axis=1, keepdims=True)
    return p


def _top_word(mats: np.ndarray, depth: int) -> list[int]:
    """Shortest word of length <= depth with the largest averaged spectral
    value (up to a relative 1e-9)."""
    k, d, _ = mats.shape
    best, best_word = -1.0, [1]
    prods = np.eye(d)[None]
    for n in range(1, depth + 1):
        # children in lexicographic order: parent-major, letter-minor
        prods = (prods[:, None] @ mats[None]).reshape(-1, d, d)
        vals = np.abs(np.linalg.eigvals(prods)).max(axis=1) ** (1.0 / n)
        i = int(np.argmax(vals))
        if vals[i] > best * (1 + 1e-9):
            best = float(vals[i])
            best_word = [1 + int(c) for c in np.base_repr(i, k).zfill(n)]
    return best_word


def _ergodic_cell(rng, cell: int) -> list[dict]:
    jobs = []
    for k in (2, 3):
        n = {"exact_n": EXACT_N[k]}
        for d in (2, 3, 4):
            jobs.append(_job("markov-full", _gaussian(rng, k, d, False),
                             P=_transition(rng, k).tolist(), **n))
            loops = 1 + (d - 2) % (k - 1)
            jobs.append(_job("markov-sparse", _gaussian(rng, k, d, bool(cell % 2)),
                             P=_transition(rng, k, loops).tolist(), **n))
        jobs.append(_job("markov-mc", _gaussian(rng, k, 3, False),
                         P=_transition(rng, k).tolist(),
                         mc_samples=64, mc_length=500, **n))
        # periodic measures: a random short word, and the word that attains
        # the depth-limited lower bound (its verdict stays undetermined
        # while the bracket is open)
        word = [1] + [1 + int(c) for c in rng.integers(k, size=2)]
        jobs.append(_job("periodic", _gaussian(rng, k, 3, False), period=word))
        for d in (2, 3):
            mats = _gaussian(rng, k, d, False)
            jobs.append(_job("periodic-top", mats,
                             period=_top_word(mats, ERGODIC_DEPTH)))
    # planted density points: the extremal word of a planted family
    mats, rho = _golden(rng)
    jobs.append(_job("density-golden", mats, period=[1, 2], rho=rho,
                     vertex_budget=VERTEX_BUDGET))
    mats, rho = _symmetric(rng, 2, 2 + cell % 3, nonneg=True)
    lead = 1 + int(np.argmax([np.max(np.abs(np.linalg.eigvalsh(m))) for m in mats]))
    jobs.append(_job("density-symmetric", mats, period=[lead], rho=rho,
                     vertex_budget=VERTEX_BUDGET))
    for job in jobs:
        job["depth"] = ERGODIC_DEPTH
    return jobs


def _planted_blocks(rng, sizes: tuple[int, ...], k: int, cplx: bool,
                    leak: float = 0.0) -> tuple[np.ndarray, list[float]]:
    """Hermitian diagonal blocks under a random lower coupling, conjugated
    by a random unitary.  Before conjugation the row-vector invariant
    subspaces are spanned by the leading coordinate blocks.  ``leak`` > 0
    adds a tiny coupling above the diagonal that destroys them at that
    scale."""
    d = sum(sizes)
    starts = np.cumsum((0,) + sizes)
    mats = np.tril(_gaussian(rng, k, d, cplx)) * 0.5
    rhos = []
    for a, b in enumerate(sizes):
        blk, rho = _symmetric(rng, k, b, cplx)
        mats[:, starts[a]:starts[a + 1], starts[a]:starts[a + 1]] = blk
        rhos.append(rho)
    if leak:
        mats = mats + leak * np.triu(_gaussian(rng, k, d, cplx), 1)
    q = _orthogonal(rng, d, cplx)
    return q.conj().T @ mats @ q, rhos


# (block sizes, K), d from 4 to 12 with 2 to 4 blocks; the sizes step
# through d one at a time so that job costs spread evenly
REDUCE_LAYOUTS = (((2, 2), 2), ((1, 3), 2), ((1, 1, 2), 2), ((2, 3), 2),
                  ((1, 2, 2), 2), ((1, 4), 2), ((1, 3), 3), ((3, 3), 2),
                  ((1, 2, 3), 2), ((2, 2, 2), 2), ((2, 2, 3), 2), ((3, 4), 2),
                  ((4, 4), 2), ((2, 2, 2, 2), 2), ((3, 3, 2), 2),
                  ((3, 3, 3), 2), ((2, 3, 4), 2), ((2, 3, 4, 3), 2))
NEAR_REDUCIBLE = ((2, 2), (1, 3), (1, 1, 2), (2, 3))


def _reduce_cell(rng, cell: int) -> list[dict]:
    cplx = bool(cell % 2)
    jobs = []
    # nearly reducible: the leak sits between the rank tolerance and the
    # invariance tolerance, so rank decisions are ambiguous
    for sizes in NEAR_REDUCIBLE:
        mats, rhos = _planted_blocks(rng, sizes, 2, cplx, leak=1e-10)
        jobs.append(_job("near-reducible", mats, sizes=list(sizes), rhos=rhos))
    for sizes, k in REDUCE_LAYOUTS:
        mats, rhos = _planted_blocks(rng, sizes, k, cplx)
        jobs.append(_job("planted", mats, sizes=list(sizes), rhos=rhos))
    for job in jobs:
        job["depth"] = REDUCE_DEPTH
    return jobs


# A cell holds one job of every kind and size the workload covers; each
# cell has its own random stream, so cell i of a seed is the same whatever
# else is generated.  A run measures fresh cells until its time is up (see
# run.py), so no input is ever timed twice.
_CELLS = {"bracket": _bracket_cell, "certify": _certify_cell,
          "ergodic": _ergodic_cell, "reduce": _reduce_cell}
# stream 1 is reserved for warm-up jobs, which never appear in a run
MEASURED, WARM_UP = 0, 1


def make_cell(workload: str, seed: int, cell: int, stream: int = MEASURED) -> list[dict]:
    """Jobs of one cell (same arguments, same jobs).  A job's id is unique
    within its stream: ``cell * 1000 + its index in the cell``."""
    if workload not in _CELLS:
        raise ValueError(f"unknown workload {workload!r}; pick one of {WORKLOADS}")
    rng = np.random.default_rng([stream, WORKLOADS.index(workload), seed, cell])
    jobs = _CELLS[workload](rng, cell)
    for i, job in enumerate(jobs):
        job["id"] = cell * 1000 + i
    return jobs
