"""Job execution through jsrkit's public API, and the answer checks.

``execute`` runs one job and returns what the library answered; the
caller times it.  ``check`` then judges the answer against the oracle
(outside the timed region) and returns an ``Outcome``:

* ``ok``            the answer is complete and passed every check;
* ``inconclusive``  the library flagged its answer honestly (an open
                    bracket, an inconclusive certificate, an undetermined
                    verdict, or a documented budget/tolerance error); the
                    reason joins every flag with "+";
* ``failed``        a check caught a wrong answer, or an undocumented
                    exception escaped.

A traced run also replays the public parts of each composite call on the
same input (``decomp`` spans), so each part's share is measured rather
than inferred.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from jsrkit import (MarkovMeasure, PeriodicMeasure, PeriodicSequence,
                    averaged_spectral_value, block_triangularize,
                    bounds_bracket, certify_finiteness, check_extremal_norm,
                    dominant_blocks, extremality_verdict, is_irreducible,
                    lyapunov_exact_finite, lyapunov_monte_carlo,
                    measure_to_finiteness, operator_norm, pruned_search,
                    support_words)
from jsrkit.bounds import BudgetExceededError
from jsrkit.config import DEFAULT_NODE_BUDGET
from jsrkit.ergodic import SupportTooLargeError
from jsrkit.extremal import DegenerateNormError
from jsrkit.io import family_from_dict
from jsrkit.reduction import ToleranceConflictError

# raised by the library to flag an honest non-answer
DOCUMENTED_ERRORS = (ToleranceConflictError, BudgetExceededError,
                     SupportTooLargeError)

REL_TOL = 1e-9  # relative slack on planted values and recomputed bounds
# HiGHS solves each gauge LP to feasibility tolerances of 1e-7, so a
# polytope norm is only good to about 1e-6 relative: the rel_tol passed to
# check_extremal_norm
LP_REL_TOL = 1e-6


class WrongAnswer(AssertionError):
    """An answer check failed."""


@dataclass(frozen=True)
class Outcome:
    status: str                 # "ok", "inconclusive" or "failed"
    reason: str = ""
    digits: float | None = None  # -log10 of the relative bracket width


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise WrongAnswer(msg)


def _family(job: dict, tr):
    doc = json.loads(job["family"])
    with tr.span("io.family_from_dict"):
        return family_from_dict(doc, source=f"job {job['id']}")


def _replay(tr, name: str, fn, *args, **attrs_from):
    """Decomposition span: time a public part of a composite call on the
    same input.  Documented errors are recorded on the span, not raised."""
    with tr.span(name, decomp=True) as s:
        try:
            out = fn(*args)
        except DOCUMENTED_ERRORS as exc:
            s.attrs["raised"] = type(exc).__name__
            return None
        for key, get in attrs_from.items():
            s.attrs[key] = get(out)
        return out


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def _run_bracket(job, tr) -> dict:
    fam = _family(job, tr)
    with tr.span("bounds.bounds_bracket") as s:
        b = bounds_bracket(fam, job["depth"],
                           job.get("node_budget", DEFAULT_NODE_BUDGET))
        s.attrs["nodes"] = b.nodes_visited
    return {"family": fam, "bracket": b}


def _run_certify(job, tr) -> dict:
    fam = _family(job, tr)
    with tr.span("bounds.pruned_search") as s:
        b = pruned_search(fam, job["tol"], job["node_budget"])
        s.attrs.update(nodes=b.nodes_visited, depth=b.depth_explored,
                       complete=b.complete)
    cert = _certify(tr, fam, b.best_word, job["vertex_budget"])
    check = None
    if cert.verdict == "certified":
        with tr.span("extremal.check_extremal_norm"):
            check = _check_norm(fam, cert)
    return {"family": fam, "bracket": b, "cert": cert, "check": check}


def _check_norm(fam, cert):
    """check_extremal_norm's (ok, gap, attained), or the DegenerateNormError
    it raised for a polytope that does not span the space."""
    try:
        return check_extremal_norm(fam, cert.certificate, cert.value,
                                   rel_tol=LP_REL_TOL)
    except DegenerateNormError as exc:
        return exc


def _certify(tr, fam, word, vertex_budget: int, decomp: bool = False):
    with tr.span("extremal.certify_finiteness", decomp=decomp) as s:
        cert = certify_finiteness(fam, word, vertex_budget)
        s.attrs.update(verdict=cert.verdict, K=fam.size,
                       vertices=0 if cert.certificate is None
                       else len(cert.certificate.vertices))
    return cert


def _measure(job, fam):
    if "P" in job:
        return MarkovMeasure.from_transition(np.asarray(job["P"]))
    return PeriodicMeasure(PeriodicSequence(fam.size, tuple(job["period"])))


def _run_ergodic(job, tr) -> dict:
    fam = _family(job, tr)
    mu = _measure(job, fam)
    depth = job["depth"]
    if job["kind"].startswith("density"):
        xi = PeriodicSequence(fam.size, tuple(job["period"]))
        report = None
        try:
            with tr.span("ergodic.measure_to_finiteness") as s:
                report = measure_to_finiteness(
                    fam, mu, xi, depth, vertex_budget=job["vertex_budget"])
                s.attrs["success"] = report.success
        finally:
            if tr.traced:
                _replay(tr, "bounds.bounds_bracket", bounds_bracket, fam, depth,
                        nodes=lambda b: b.nodes_visited)
                if report is not None and any(
                        st.name == "polytope-certificate" for st in report.steps):
                    _certify(tr, fam, xi.period, job["vertex_budget"],
                             decomp=True)
        return {"family": fam, "report": report}
    mc = job.get("mc_samples", 0)
    n = job.get("exact_n")
    try:
        with tr.span("ergodic.extremality_verdict") as s:
            verdict = extremality_verdict(
                fam, mu, depth, exact_n=n, mc_samples=mc,
                mc_length=job.get("mc_length", 1000), seed=job["id"])
            s.attrs["verdict"] = verdict.verdict
    finally:
        if tr.traced:
            _replay(tr, "bounds.bounds_bracket", bounds_bracket, fam, depth,
                    nodes=lambda b: b.nodes_visited)
            if isinstance(mu, MarkovMeasure):
                words = _replay(tr, "symbolic.support_words", support_words,
                                mu, n, words=len)
                _replay(tr, "ergodic.lyapunov_exact_finite",
                        lyapunov_exact_finite, fam, mu, n,
                        words=lambda _: len(words))
                if mc:
                    _replay(tr, "ergodic.lyapunov_monte_carlo",
                            lyapunov_monte_carlo, fam, mu, mc,
                            job["mc_length"], job["id"],
                            steps=lambda _: mc * job["mc_length"])
    return {"family": fam, "verdict": verdict}


def _run_reduce(job, tr) -> dict:
    fam = _family(job, tr)
    try:
        with tr.span("reduction.block_triangularize") as s:
            red = block_triangularize(fam)
            s.attrs["blocks"] = red.block_count
    finally:
        if tr.traced:
            _replay(tr, "reduction.is_irreducible", is_irreducible, fam)
    with tr.span("reduction.dominant_blocks"):
        report = dominant_blocks(red, job["depth"])
    return {"family": fam, "reduction": red, "report": report}


_RUNNERS = {"bracket": _run_bracket, "certify": _run_certify,
            "ergodic": _run_ergodic, "reduce": _run_reduce}


def execute(workload: str, job: dict, tr) -> dict:
    """Run one job; documented library errors propagate to the caller."""
    return _RUNNERS[workload](job, tr)


# ---------------------------------------------------------------------------
# answer checks
# ---------------------------------------------------------------------------

def width_digits(bracket) -> float:
    """Correct leading digits of a bracket: -log10(width / upper), in [0, 16]."""
    if bracket.upper <= 0.0:
        return 16.0
    rel = max(bracket.width / bracket.upper, 1e-16)
    return min(16.0, max(0.0, -math.log10(rel)))


def check_bracket(fam, b, rho: float | None = None) -> None:
    """Soundness checks any bracket must pass."""
    _require(b.lower <= b.upper * (1 + REL_TOL),
             f"lower {b.lower!r} exceeds upper {b.upper!r}")
    recomputed = averaged_spectral_value(fam, b.best_word)
    _require(abs(recomputed - b.lower) <= REL_TOL * max(1.0, b.lower),
             f"lower {b.lower!r} is not attained by its word "
             f"{b.best_word} (recomputed {recomputed!r})")
    letters = max(averaged_spectral_value(fam, (k,))
                  for k in range(1, fam.size + 1))
    _require(b.upper >= letters * (1 - REL_TOL),
             f"upper {b.upper!r} below a generator's spectral radius {letters!r}")
    if rho is not None:
        _require(b.lower <= rho * (1 + REL_TOL) and rho <= b.upper * (1 + REL_TOL),
                 f"planted rho {rho!r} outside [{b.lower!r}, {b.upper!r}]")


def _check_bracket_job(job, out) -> Outcome:
    b = out["bracket"]
    check_bracket(out["family"], b, job.get("rho"))
    return _flagged([] if b.complete else ["bracket-incomplete"], width_digits(b))


def check_certificate(fam, cert, check, bracket=None, rho=None) -> None:
    """Check a ``certified`` answer.

    The value must be the word's averaged spectral value, inside the search
    bracket and equal to a planted rho, and check_extremal_norm (``check``,
    at rel_tol LP_REL_TOL) must confirm the polytope norm.  A polytope that
    does not span the space is no norm, so it proves nothing: a wrong
    answer, like any other failed check.
    """
    value = averaged_spectral_value(fam, cert.word)
    _require(abs(value - cert.value) <= REL_TOL * max(1.0, value),
             f"certified value {cert.value!r} is not the word's value {value!r}")
    if bracket is not None:
        _require(bracket.lower * (1 - REL_TOL) <= cert.value
                 <= bracket.upper * (1 + REL_TOL),
                 f"certified value {cert.value!r} outside the search bracket "
                 f"[{bracket.lower!r}, {bracket.upper!r}]")
    if rho is not None:
        _require(abs(cert.value - rho) <= REL_TOL * max(1.0, rho),
                 f"certified value {cert.value!r} differs from planted {rho!r}")
    _require(not isinstance(check, DegenerateNormError),
             f"certified polytope for {cert.word} does not span the space")
    ok, gap, _ = check
    _require(ok, f"certificate for {cert.word} fails check_extremal_norm "
                 f"(gap {gap!r})")


def _check_certify_job(job, out) -> Outcome:
    """Every flag on the answer counts: the search bracket may be open even
    when the certificate closes it."""
    b, cert = out["bracket"], out["cert"]
    check_bracket(out["family"], b, job.get("rho"))
    flags = [] if b.complete else ["bracket-incomplete"]
    if cert.verdict != "certified":
        flags.append("certify-inconclusive")
    else:
        check_certificate(out["family"], cert, out["check"], b, job.get("rho"))
    return _flagged(flags, width_digits(b))


def _flagged(flags: list[str], digits=None) -> Outcome:
    if flags:
        return Outcome("inconclusive", "+".join(flags), digits)
    return Outcome("ok", digits=digits)


def lyapunov_slack(fam, bracket, length: int, depth: int) -> float:
    """How far a length-n Lyapunov average may sit above log(upper).

    upper = N_m for some m <= depth, where N_m is the largest averaged
    norm at length m; a length-n product splits into blocks of length m
    plus fewer than m letters of norm at most N_1 = max_k ||S_k||.
    """
    log_n1 = math.log(max(operator_norm(m) for m in fam.mats))
    excess = max(0.0, log_n1 - math.log(bracket.upper))
    return min(length, depth - 1) / length * excess + 1e-12


def _check_ergodic_job(job, out) -> Outcome:
    fam = out["family"]
    if "report" in out:
        report = out["report"]
        if report.success:
            cert = report.certificate
            check_certificate(fam, cert, _check_norm(fam, cert), rho=job["rho"])
            return Outcome("ok")
        step = report.failing_step()
        detail = next(s.detail for s in report.steps if s.name == step)
        _require(not (step == "extremality" and "not-extremal" in detail),
                 f"planted extremal measure judged not extremal: {detail}")
        return Outcome("inconclusive", f"main-theorem-{step}")
    v = out["verdict"]
    b = v.jsr_bracket
    check_bracket(fam, b, job.get("rho"))
    lyap = v.lyapunov.value
    if v.lyapunov.method == "periodic-exact":
        period = tuple(job["period"])
        expect = math.log(averaged_spectral_value(fam, period))
        _require(abs(lyap - expect) <= 1e-9 * max(1.0, abs(expect)),
                 f"periodic Lyapunov {lyap!r} differs from {expect!r}")
        slack = 1e-12
    elif v.lyapunov.method == "monte-carlo":
        slack = lyapunov_slack(fam, b, job["mc_length"], job["depth"])
    else:
        slack = lyapunov_slack(fam, b, v.lyapunov.n_or_samples, job["depth"])
    _require(lyap <= math.log(b.upper) + slack,
             f"Lyapunov {lyap!r} above log(upper) {math.log(b.upper)!r} + {slack:.3g}")
    if v.verdict == "extremal":
        _require(math.log(b.upper) - math.log(b.lower) <= v.tol + 1e-9,
                 "extremal verdict with an open bracket")
    undetermined = v.verdict == "undetermined"
    return _flagged(["verdict-undetermined"] if undetermined else [], width_digits(b))


def _check_reduce_job(job, out) -> Outcome:
    fam, red, report = out["family"], out["reduction"], out["report"]
    residual = red.reconstruction_residual()
    _require(residual <= 1e-8, f"reconstruction residual {residual:.3g} > 1e-8")
    p = red.transform
    drift = float(np.max(np.abs(p.conj().T @ p - np.eye(fam.dim))))
    _require(drift <= 1e-10, f"transform is not unitary (drift {drift:.3g})")
    _require(sum(red.block_sizes) == fam.dim, "block sizes do not cover the space")
    for blk, b in zip(red.blocks, report.block_brackets):
        check_bracket(blk, b)
    planted = job["rhos"] if job["kind"] == "planted" else []
    if planted:
        _require(sorted(red.block_sizes) == sorted(job["sizes"]),
                 f"blocks {red.block_sizes} differ from planted {job['sizes']}")
        for rho in planted:
            _require(any(b.lower <= rho * (1 + REL_TOL)
                         and rho <= b.upper * (1 + REL_TOL)
                         for b in report.block_brackets),
                     f"planted block rho {rho!r} inside no block bracket")
    check_bracket(fam, report.family_bracket, max(planted) if planted else None)
    return Outcome("ok", digits=width_digits(report.family_bracket))


_CHECKS = {"bracket": _check_bracket_job, "certify": _check_certify_job,
           "ergodic": _check_ergodic_job, "reduce": _check_reduce_job}


def check(workload: str, job: dict, out: dict) -> Outcome:
    """Judge one answer; a wrong answer becomes a ``failed`` outcome."""
    try:
        return _CHECKS[workload](job, out)
    except WrongAnswer as exc:
        return Outcome("failed", f"wrong answer: {exc}")
