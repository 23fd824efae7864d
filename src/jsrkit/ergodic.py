"""Lyapunov exponents of matrix products under shift-ergodic measures,
extremality verdicts, and the pipelines tying periodic density points to
finiteness witnesses in both directions.

Every product is kept as an exact power of 2 times a unit one
(``_kernels.unit_scale``); minus infinity is a first-class value (zero
products), never a NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .bounds import BoundsBracket, bounds_bracket
from .config import (DEFAULT_DEPTH, DEFAULT_NODE_BUDGET, EXTREMALITY_TOL,
                     VERTEX_BUDGET)
from .extremal import (ComplexFamilyError, FinitenessCertificate,
                       certify_finiteness, check_extremal_norm)
from .matrix_core import (MatrixFamily, Word, _normalized_product,
                          averaged_spectral_value, spectral_radius)
from .symbolic import (MarkovMeasure, PeriodicMeasure, PeriodicSequence,
                       ShiftMeasure, is_density_point, support_size,
                       support_walk)


@dataclass(frozen=True)
class LyapunovEstimate:
    value: float  # log scale (nats); may be -inf
    method: str   # "exact-finite-n", "periodic-exact", "monte-carlo"
    n_or_samples: int
    stderr: float = 0.0


class SupportTooLargeError(RuntimeError):
    """Exact enumeration would exceed the word budget; use monte-carlo."""


def lyapunov_exact_finite(family: MatrixFamily, mu: ShiftMeasure, n: int,
                          word_budget: int = 10**6) -> LyapunovEstimate:
    """(1/n) integral of log ||S_{i_1}...S_{i_n}|| over the measure.

    Enumerates the measure's support words only, so sparse supports stay
    cheap at large n; a support larger than ``word_budget`` is counted,
    not built, before the call raises.  These values are nonincreasing
    along n, 2n, 4n, ... and converge to the Lyapunov exponent from above
    (subadditivity).
    """
    size = support_size(mu, n)
    if size > word_budget:
        raise SupportTooLargeError(
            f"{size} support words at n={n} exceed the budget "
            f"{word_budget}; use lyapunov_monte_carlo")
    words, probs = support_walk(mu, n)
    # a zero product (or family) has log norm -inf, and then so has the sum
    live = probs > 0.0
    logs = (_kernels.path_log_norms(family.normalized_mats(), words[live])
            + math.log(family.scale or 1.0))
    return LyapunovEstimate(float(probs[live] @ logs), "exact-finite-n", n)


def lyapunov_periodic(family: MatrixFamily, xi: PeriodicSequence) -> LyapunovEstimate:
    """(1/pi) log rho of the period product: the exact a.e. growth rate
    along the periodic orbit (Gelfand's formula), taken on the normalized
    product P 2^e as (log rho(P) + e log 2)/pi + log scale, and -inf when
    rho(P) = 0."""
    prod, exp = _normalized_product(family, xi.period)
    r = spectral_radius(prod)
    value = ((math.log(r) + exp * math.log(2.0)) / xi.period_length
             + math.log(family.scale) if r > 0.0 else -math.inf)
    return LyapunovEstimate(value, "periodic-exact", xi.period_length)


def sample_paths(mu: MarkovMeasure, samples: int, length: int,
                 seed: int) -> np.ndarray:
    """Seeded Markov-chain paths as a (samples, length) 0-based array."""
    rng = np.random.default_rng(seed)
    k = mu.alphabet_size
    # each cumulative row over its last entry ends at exactly 1 > u, and
    # side="right" takes the first letter whose cumulative mass exceeds u,
    # so no draw, u = 0 included, takes a letter of probability 0
    cum_p = np.cumsum(mu.p)
    cum_p /= cum_p[-1]
    cum_rows = np.cumsum(mu.P, axis=1)
    cum_rows /= cum_rows[:, -1:]
    u = rng.random((samples, length))
    paths = np.empty((samples, length), dtype=np.int64)
    paths[:, 0] = np.searchsorted(cum_p, u[:, 0], side="right")
    # next_letter[i, s, t]: the letter at step t of path s after state i
    next_letter = np.empty((k, samples, length), np.min_scalar_type(k - 1))
    for i in range(k):
        next_letter[i] = np.searchsorted(cum_rows[i], u, side="right")
    cols = np.arange(samples)
    for t in range(1, length):
        paths[:, t] = next_letter[paths[:, t - 1], cols, t]
    return paths


def lyapunov_monte_carlo(family: MatrixFamily, mu: MarkovMeasure,
                         samples: int, length: int,
                         seed: int = 0) -> LyapunovEstimate:
    """Sampled (1/length) log product norm, averaged across seeded paths.

    Products are kept as exact powers of 2 times unit ones, so path length
    is not limited by floating point range; a zero family gives -inf, as
    a zero product does.
    """
    if length < 1 or samples < 2:
        raise ValueError("need length >= 1 and samples >= 2")
    paths = sample_paths(mu, samples, length, seed)
    vals = (_kernels.path_log_norms(family.normalized_mats(), paths)
            + math.log(family.scale or 1.0))
    if np.any(np.isneginf(vals)):
        return LyapunovEstimate(-math.inf, "monte-carlo", samples)
    mean = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / math.sqrt(samples))
    return LyapunovEstimate(mean, "monte-carlo", samples, stderr)


@dataclass(frozen=True)
class ExtremalityVerdict:
    verdict: str  # "extremal", "not-extremal", "undetermined"
    lyapunov: LyapunovEstimate
    jsr_bracket: BoundsBracket
    gap: float        # lyapunov value minus log(bracket lower)
    tol: float


def _log_or_neginf(x: float) -> float:
    return math.log(x) if x > 0.0 else -math.inf


def extremality_verdict(family: MatrixFamily, mu: ShiftMeasure,
                        depth: int = DEFAULT_DEPTH,
                        tol: float | None = None,
                        node_budget: int = DEFAULT_NODE_BUDGET,
                        exact_n: int | None = None,
                        mc_samples: int = 0, mc_length: int = 1000,
                        seed: int = 0) -> ExtremalityVerdict:
    """Is the measure's Lyapunov exponent equal to log JSR?

    Periodic measures get the exact periodic value; Markov measures get
    the exact finite-n average at the largest affordable n, or a seeded
    Monte Carlo estimate instead when mc_samples > 0.  The verdict never
    outruns the JSR bracket: if the bracket is wider than the decision gap
    the result is "undetermined", a first-class outcome.
    """
    bracket = bounds_bracket(family, depth, node_budget)
    err = 0.0
    tol_eff = EXTREMALITY_TOL if tol is None else tol
    if isinstance(mu, PeriodicMeasure):
        lyap = lyapunov_periodic(family, mu.base)
    elif mc_samples > 0:
        lyap = lyapunov_monte_carlo(family, mu, mc_samples, mc_length, seed)
        err = 3.0 * lyap.stderr
        if tol is None:
            tol_eff = err
    else:
        if exact_n is None:
            exact_n = 1
            while mu.alphabet_size ** (exact_n + 1) <= 4096 and exact_n < 12:
                exact_n += 1
        lyap = lyapunov_exact_finite(family, mu, exact_n)
    log_lower = _log_or_neginf(bracket.lower)
    log_upper = _log_or_neginf(bracket.upper)
    lv = lyap.value
    gap = lv - log_lower if not (math.isinf(lv) and math.isinf(log_lower)) else 0.0
    if lv + err < log_lower - tol_eff:
        verdict = "not-extremal"
    elif (log_upper - log_lower <= tol_eff + err + 1e-12
          and lv >= log_lower - tol_eff - err):
        verdict = "extremal"
    else:
        verdict = "undetermined"
    return ExtremalityVerdict(verdict, lyap, bracket, gap, tol_eff)


def finiteness_to_measure(family: MatrixFamily, word: Word,
                          depth: int = DEFAULT_DEPTH,
                          node_budget: int = DEFAULT_NODE_BUDGET,
                          ) -> tuple[PeriodicMeasure, ExtremalityVerdict]:
    """Forward pipeline: a candidate spectrum-maximizing word induces the
    periodic measure on its orbit, which is extremal exactly when the word
    attains the JSR."""
    if len(word) < 1:
        raise ValueError("need a non-empty word")
    xi = PeriodicSequence(family.size, tuple(word))
    mu = PeriodicMeasure(xi)
    verdict = extremality_verdict(family, mu, depth, node_budget=node_budget)
    return mu, verdict


@dataclass(frozen=True)
class PipelineStep:
    name: str
    passed: bool | None  # None: the step could not decide
    detail: str = ""


@dataclass(frozen=True)
class MainTheoremReport:
    success: bool
    steps: tuple[PipelineStep, ...]
    certificate: FinitenessCertificate | None = None

    def failing_step(self) -> str | None:
        for s in self.steps:
            if not s.passed:
                return s.name
        return None

    @property
    def decided(self) -> bool:
        """False when a step could not decide: an undetermined extremality
        verdict, an inconclusive certificate, or a complex family."""
        return all(s.passed is not None for s in self.steps)


def measure_to_finiteness(family: MatrixFamily, mu: ShiftMeasure,
                          xi: PeriodicSequence,
                          depth: int = DEFAULT_DEPTH,
                          node_budget: int = DEFAULT_NODE_BUDGET,
                          vertex_budget: int = VERTEX_BUDGET) -> MainTheoremReport:
    """Reverse pipeline: a periodic density point of an extremal measure
    yields a finiteness witness.

    Verifies (i) the density-point property, (ii) numerical extremality of
    the measure, (iii) that the period word attains the JSR lower bound,
    and (iv) a polytope certificate for the word.  All steps past (i) are
    numerical; the only theorem-grade claim is the final certificate.  A
    step that cannot decide has ``passed`` None, and the run stops there.
    """
    steps: list[PipelineStep] = []
    density = is_density_point(mu, xi)
    steps.append(PipelineStep(
        "density-point", bool(density),
        density.detail or f"certificate: {density.certificate}"))
    if not density:
        return MainTheoremReport(False, tuple(steps))
    verdict = extremality_verdict(family, mu, depth, node_budget=node_budget)
    steps.append(PipelineStep(
        "extremality",
        None if verdict.verdict == "undetermined"
        else verdict.verdict == "extremal",
        f"verdict: {verdict.verdict}, gap {verdict.gap:.3e}"))
    if verdict.verdict != "extremal":
        return MainTheoremReport(False, tuple(steps))
    word = xi.period
    value = averaged_spectral_value(family, word)
    lower = verdict.jsr_bracket.lower
    attains = value >= lower - 1e-9 * lower
    steps.append(PipelineStep(
        "candidate-attains-bound", attains,
        f"averaged spectral value {value:.12g} vs lower bound {lower:.12g}"))
    if not attains:
        return MainTheoremReport(False, tuple(steps))
    try:
        cert = certify_finiteness(family, word, vertex_budget)
    except ComplexFamilyError as exc:
        steps.append(PipelineStep("polytope-certificate", None, str(exc)))
        return MainTheoremReport(False, tuple(steps))
    steps.append(PipelineStep(
        "polytope-certificate", True if cert.verdict == "certified" else None,
        cert.reason or f"value {cert.value:.12g}"))
    return MainTheoremReport(cert.verdict == "certified", tuple(steps),
                             cert if cert.verdict == "certified" else None)


@dataclass(frozen=True)
class CorollaryReport:
    extremality: ExtremalityVerdict
    finiteness: FinitenessCertificate | None
    scan_max: float          # max averaged spectral value over |w| <= depth
    upper_bound: float
    stability_conclusion: str


def corollary_reports(family: MatrixFamily, mu: MarkovMeasure,
                      depth: int = DEFAULT_DEPTH,
                      node_budget: int = DEFAULT_NODE_BUDGET,
                      vertex_budget: int = VERTEX_BUDGET) -> CorollaryReport:
    """Extremality of a Markovian measure, the finiteness certificate that
    its extremality licenses, and the periodically-switched-stability scan.

    An extremal measure on a real family has its finiteness certified at
    one word: the bracket's witness (``jsr_bracket.best_word``), whose
    periodic measure attains the bracket's lower bound.  A certificate at
    value r proves rho <= r (1 + MEMBERSHIP_TOL) and the witness proves
    rho >= its own value, so a word whose value lies further than that
    below the witness's cannot certify.  The reported upper bound of a
    certified run is the largest induced generator norm under the
    certificate (``check_extremal_norm``'s attained value), which bounds
    rho whatever its distance from the value.
    """
    verdict = extremality_verdict(family, mu, depth, node_budget=node_budget)
    cert: FinitenessCertificate | None = None
    if verdict.verdict == "extremal" and family.is_real:
        cert = certify_finiteness(family, verdict.jsr_bracket.best_word,
                                  vertex_budget)
    scan_max = verdict.jsr_bracket.lower  # max averaged spectral value by construction
    upper = verdict.jsr_bracket.upper
    if cert is not None and cert.verdict == "certified":
        upper = check_extremal_norm(family, cert.certificate, cert.value)[2]
    if scan_max < 1.0 and upper < 1.0:
        conclusion = (f"periodically switched stable and rho(S) <= "
                      f"{upper:.12g} < 1")
    elif scan_max >= 1.0:
        conclusion = "not applicable: periodic scan max >= 1"
    else:
        conclusion = ("inconclusive: scan max < 1 but the certified upper "
                      "bound does not confirm rho(S) < 1")
    return CorollaryReport(verdict, cert, scan_max, upper, conclusion)
