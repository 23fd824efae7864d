"""A fixed reference loop that tracks the machine's speed during a run.

On a small shared cloud VM the same code runs up to 1.4x slower or faster
for spells of ten seconds to minutes, as other tenants load the host.  A
35 s run cannot average that out, so the benchmark times this loop
between jobs (about every ``INTERVAL_S`` of job time) and scales each
job's latency by ``REFERENCE_S`` over the median loop time of the
``SMOOTH`` measurements around it: figures then read as if the machine
ran the loop in ``REFERENCE_S`` throughout.  One loop time is noisy (a
loop that is preempted reads several times too slow); the median over a
few seconds of them follows the machine's drift.

The loop uses numpy and the standard library only, never jsrkit, so a
change to the library cannot move it.  Its work resembles the library's:
Python bookkeeping around small matrix products, a rank decision by SVD
of a stack of flattened products (as in ``algebra_closure``), batched
SVD and eigenvalues of many small matrices (as in the word-tree scan),
and a plain Python loop.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# median time of one ``measure`` between jobs on the 2-core cloud VM the
# bounds were set on
REFERENCE_S = 0.009
INTERVAL_S = 0.5     # job time between two measurements
SMOOTH = 10          # measurements whose median sets a job's scale

_GEN = np.random.default_rng(20110701).standard_normal((2, 6, 6)) / 3.0
_STACK = np.random.default_rng(20110702).standard_normal((256, 4, 4))


def measure() -> float:
    """Seconds one reference loop takes now."""
    t0 = time.perf_counter()
    for _ in range(2):
        basis, frontier = [np.eye(6)], [np.eye(6)]
        for _depth in range(4):
            grown = [p @ g for p in frontier for g in _GEN]
            flat = np.array([b.ravel() for b in basis + grown])
            s = np.linalg.svd(flat, compute_uv=False)
            rank = int(np.count_nonzero(s > 1e-9 * s[0]))
            basis = basis + grown[:max(0, rank - len(basis))]
            frontier = grown[:6]
        np.linalg.svd(_STACK, compute_uv=False)
        np.abs(np.linalg.eigvals(_STACK)).max(axis=1)
        counts: dict[int, int] = {}
        for i in range(8000):
            counts[i % 97] = counts.get(i % 97, 0) + i
    return time.perf_counter() - t0


def job_scales(marks, n_jobs: int) -> list[float]:
    """Factor for each of ``n_jobs`` latencies that brings it to the
    reference speed.  ``marks`` are (jobs run, loop seconds) pairs in
    order, the first at 0 jobs and the last at ``n_jobs``; the jobs
    between marks i and i + 1 are scaled by REFERENCE_S over the median
    loop time of the SMOOTH marks centred on them.
    """
    if marks[0][0] != 0 or marks[-1][0] != n_jobs:
        raise ValueError("marks must start at job 0 and end at the last job")
    loops = [t for _, t in marks]
    half = SMOOTH // 2
    scales = []
    for i in range(len(marks) - 1):
        near = loops[max(0, i + 1 - half):i + 1 + half]
        scales += [REFERENCE_S / statistics.median(near)] * (marks[i + 1][0] - marks[i][0])
    return scales
