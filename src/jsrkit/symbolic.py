"""The one-sided shift space over {1..K}: words as cylinder addresses,
periodic sequences, and the two concrete ergodic measure families
(canonical Markovian and periodic-orbit measures).

The sequence space itself is never materialized; every question is asked
through finite words (cylinder sets) or period words.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from ._kernels import child_words
from .config import ROW_STOCHASTIC_TOL, STATIONARITY_TOL, ZERO_PROB_TOL
from .matrix_core import Word


def _primitive_period(word: Word) -> Word:
    """Shortest period word generating the same infinite repetition."""
    n = len(word)
    for p in range(1, n + 1):
        if n % p == 0 and all(word[i] == word[i % p] for i in range(n)):
            return word[:p]
    return word


@dataclass(frozen=True)
class PeriodicSequence:
    """The infinite sequence obtained by repeating ``period`` forever.

    The stored period is normalized to the primitive (shortest) one, so
    equality of sequences is plain equality of fields.
    """

    alphabet_size: int
    period: Word

    def __post_init__(self):
        if len(self.period) < 1:
            raise ValueError("period must be non-empty")
        if any(not 1 <= c <= self.alphabet_size for c in self.period):
            raise ValueError(f"letters must lie in 1..{self.alphabet_size}")
        object.__setattr__(self, "period", _primitive_period(tuple(self.period)))

    @property
    def period_length(self) -> int:
        return len(self.period)

    def shifted(self) -> "PeriodicSequence":
        """Drop the first letter: the period rotates left by one."""
        w = self.period
        return PeriodicSequence(self.alphabet_size, w[1:] + w[:1])

    def prefix(self, n: int) -> Word:
        p = self.period
        return tuple(p[i % len(p)] for i in range(n))

    def orbit(self) -> list["PeriodicSequence"]:
        """The finite orbit {xi, theta(xi), ..., theta^(pi-1)(xi)}."""
        out = []
        s = self
        for _ in range(self.period_length):
            out.append(s)
            s = s.shifted()
        return out


def shift(xi: PeriodicSequence) -> PeriodicSequence:
    return xi.shifted()


@dataclass(frozen=True)
class MarkovMeasure:
    """Canonical (p, P)-Markovian probability on the shift space.

    ``p`` is the stationary distribution, ``P`` the row-stochastic
    transition matrix; cylinder mass is p_{i1} * P[i1,i2] * ... * P[i_{n-1},i_n].
    """

    p: np.ndarray
    P: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=np.float64)
        P = np.asarray(self.P, dtype=np.float64)
        if p.ndim != 1 or P.shape != (p.size, p.size):
            raise ValueError("p must be length-K and P must be K x K")
        if np.any(p < -ZERO_PROB_TOL):
            raise ValueError("p must be nonnegative")
        if abs(p.sum() - 1.0) > ROW_STOCHASTIC_TOL:
            raise ValueError(f"p must sum to 1, got {p.sum()}")
        ok, residual = check_stationarity(p, P)
        if not ok:
            raise ValueError(f"p is not stationary for P (residual {residual:.3e})")
        p.setflags(write=False)
        P.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "P", P)

    @classmethod
    def from_transition(cls, P) -> "MarkovMeasure":
        """The stationary p of P, solved from p (P - I) = 0, sum p = 1 by
        least squares, so a periodic chain needs no convergence.  For a
        reducible P the solve gives a stationary p that mixes the closed
        classes with positive weights; rounding negatives are clipped to 0
        and p is renormalized."""
        P = np.asarray(P, dtype=np.float64)
        _validate_stochastic(P)
        k = P.shape[0]
        p = np.linalg.lstsq(np.vstack([P.T - np.eye(k), np.ones(k)]),
                            np.r_[np.zeros(k), 1.0], rcond=None)[0].clip(0.0)
        return cls(p / p.sum(), P)

    @property
    def alphabet_size(self) -> int:
        return self.p.size


@dataclass(frozen=True)
class PeriodicMeasure:
    """The unique shift-ergodic measure carried by a periodic orbit:
    the uniform average of point masses along {xi, ..., theta^(pi-1) xi}."""

    base: PeriodicSequence

    @property
    def alphabet_size(self) -> int:
        return self.base.alphabet_size


ShiftMeasure = Union[MarkovMeasure, PeriodicMeasure]


def _validate_stochastic(P: np.ndarray) -> None:
    if np.any(P < -ZERO_PROB_TOL):
        raise ValueError("transition matrix must be nonnegative")
    rows = P.sum(axis=1)
    if np.max(np.abs(rows - 1.0)) > ROW_STOCHASTIC_TOL:
        raise ValueError(f"rows of P must sum to 1, worst row sum {rows[np.argmax(np.abs(rows - 1))]}")


def check_stationarity(p, P) -> tuple[bool, float]:
    """Is p a stationary distribution for P?  Returns (verdict, residual)."""
    p = np.asarray(p, dtype=np.float64)
    P = np.asarray(P, dtype=np.float64)
    if P.shape != (p.size, p.size):
        raise ValueError("dimension mismatch between p and P")
    _validate_stochastic(P)
    residual = float(np.max(np.abs(p @ P - p)))
    return residual <= STATIONARITY_TOL, residual


def cylinder_probability(mu: ShiftMeasure, word: Word) -> float:
    """Measure of the cylinder set [i_1, ..., i_n]; the empty word is the whole space."""
    k = mu.alphabet_size
    if any(not 1 <= c <= k for c in word):
        raise ValueError(f"letters must lie in 1..{k}")
    if len(word) == 0:
        return 1.0
    if isinstance(mu, MarkovMeasure):
        prob = mu.p[word[0] - 1]
        for a, b in zip(word, word[1:]):
            prob *= mu.P[a - 1, b - 1]
        return float(prob)
    period = mu.base.period_length
    n = len(word)
    hits = sum(1 for s in mu.base.orbit() if s.prefix(n) == tuple(word))
    return hits / period


@dataclass(frozen=True)
class DensityVerdict:
    is_density_point: bool
    certificate: str  # "structural" or "orbit-membership"
    detail: str = ""

    def __bool__(self):
        return self.is_density_point


def is_density_point(mu: ShiftMeasure, xi: PeriodicSequence) -> DensityVerdict:
    """Exact decision whether the periodic sequence xi lies in supp(mu).

    For a Markov measure this is structural: the initial letter must have
    positive mass and every transition along one period cycle must have a
    positive P entry.  For a periodic measure it is orbit membership.
    """
    if xi.alphabet_size != mu.alphabet_size:
        raise ValueError("alphabet sizes of measure and sequence differ")
    if isinstance(mu, MarkovMeasure):
        w = xi.prefix(xi.period_length + 1)
        if mu.p[w[0] - 1] <= ZERO_PROB_TOL:
            return DensityVerdict(False, "structural", f"p[{w[0]}] = 0")
        for a, b in zip(w, w[1:]):
            if mu.P[a - 1, b - 1] <= ZERO_PROB_TOL:
                return DensityVerdict(False, "structural", f"P[{a},{b}] = 0")
        return DensityVerdict(True, "structural")
    member = xi in mu.base.orbit()
    detail = "" if member else "sequence is not in the periodic orbit"
    return DensityVerdict(member, "orbit-membership", detail)


def support_walk(mu: ShiftMeasure, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The support words of length n as an (m, n) array of 0-based letters
    in lexicographic order, with their cylinder probabilities.

    A Markov walk extends each level by every letter and keeps the
    transitions above ZERO_PROB_TOL, multiplying the probability by
    P[last, c]; a periodic measure takes its orbit's prefixes, weighted by
    hits / period.  Never scans all K^n words.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if isinstance(mu, PeriodicMeasure):
        size = mu.base.period_length
        index = np.arange(size)[:, None] + np.arange(n)  # orbit point, letter
        prefixes = np.asarray(mu.base.period)[index % size] - 1
        words, hits = np.unique(prefixes, axis=0, return_counts=True)
        return words, hits / size
    k = mu.alphabet_size
    keep = mu.p > ZERO_PROB_TOL
    words, probs = np.arange(k)[keep, None], mu.p[keep]
    for _ in range(n - 1):
        words = child_words(words, k)
        step = mu.P[words[:, -2], words[:, -1]]
        keep = step > ZERO_PROB_TOL
        words, probs = words[keep], np.repeat(probs, k)[keep] * step[keep]
    return words, probs


def support_size(mu: ShiftMeasure, n: int) -> int:
    """The number of words ``support_walk(mu, n)`` returns, without
    building them.  A Markov measure pushes the indicator of p above
    ZERO_PROB_TOL through the pattern of P above it, n - 1 times (counts in
    float64 are exact below 2^53); a periodic orbit has at most its period
    many, which its walk builds."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if isinstance(mu, PeriodicMeasure):
        return len(support_walk(mu, n)[0])
    count = (mu.p > ZERO_PROB_TOL).astype(np.float64)
    pattern = (mu.P > ZERO_PROB_TOL).astype(np.float64)
    for _ in range(n - 1):
        count = count @ pattern
    return int(count.sum())


def support_words(mu: ShiftMeasure, n: int) -> set[Word]:
    """All words w of length n with positive cylinder probability,
    enumerated structurally by ``support_walk``."""
    words, _ = support_walk(mu, n)
    return set(map(tuple, (words + 1).tolist()))
