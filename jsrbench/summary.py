"""Turning latencies, outcomes and spans into the reported metrics."""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict

MIN_BEYOND = 10


def tail_percentile(samples) -> tuple[float, float, int]:
    """(percentile, value, n): the highest nearest-rank percentile that
    leaves at least ten samples ranked above it, i.e. rank n - 10 of n.

    With ten samples or fewer no percentile qualifies and the maximum is
    returned as the 100th percentile.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n <= MIN_BEYOND:
        return 100.0, xs[-1], n
    rank = n - MIN_BEYOND  # 1-based
    return 100.0 * rank / n, xs[rank - 1], n


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics from the spans of a traced run.

    Calls and busy time include decomposition replays: they exist to give
    a composite call's parts their own measured time.
    """
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def busy(name):
        return sum(s.duration for s in by_name[name])

    def total(name, key):
        return sum(s.attrs.get(key, 0) for s in by_name[name])

    out: dict[str, float] = {}
    for name in ("bounds.bounds_bracket", "bounds.pruned_search"):
        out[f"{name}.calls"] = len(by_name[name])
        out[f"{name}.busy_s"] = busy(name)
        out[f"{name}.nodes"] = total(name, "nodes")
        out[f"{name}.nodes_per_s"] = _frac(out[f"{name}.nodes"], out[f"{name}.busy_s"])
    pruned = by_name["bounds.pruned_search"]
    out["bounds.pruned_search.complete_frac"] = _frac(
        sum(bool(s.attrs.get("complete")) for s in pruned), len(pruned))
    out["bounds.pruned_search.depth_p50"] = (
        statistics.median(s.attrs["depth"] for s in pruned) if pruned else 0.0)

    name = "extremal.certify_finiteness"
    cert = by_name[name]
    certified = [s for s in cert if s.attrs.get("verdict") == "certified"]
    out[f"{name}.calls"] = len(cert)
    out[f"{name}.busy_s"] = busy(name)
    out[f"{name}.vertices"] = sum(s.attrs["vertices"] for s in certified)
    out["extremal.lp_solves"] = sum(s.attrs["vertices"] * s.attrs["K"]
                                    for s in certified)
    out["extremal.lp_solves_per_s"] = _frac(
        out["extremal.lp_solves"], sum(s.duration for s in certified))
    out["extremal.certified_frac"] = _frac(len(certified), len(cert))
    out["extremal.check_extremal_norm.busy_s"] = busy("extremal.check_extremal_norm")

    name = "ergodic.extremality_verdict"
    verdicts = by_name[name]
    out[f"{name}.calls"] = len(verdicts)
    out[f"{name}.busy_s"] = busy(name)
    out[f"{name}.undetermined_frac"] = _frac(
        sum(s.attrs.get("verdict") == "undetermined" for s in verdicts),
        len(verdicts))
    name = "ergodic.lyapunov_exact_finite"
    out[f"{name}.busy_s"] = busy(name)
    out[f"{name}.words"] = total(name, "words")
    out[f"{name}.words_per_s"] = _frac(out[f"{name}.words"], out[f"{name}.busy_s"])
    name = "ergodic.lyapunov_monte_carlo"
    out[f"{name}.busy_s"] = busy(name)
    out[f"{name}.steps_per_s"] = _frac(total(name, "steps"), out[f"{name}.busy_s"])
    name = "ergodic.measure_to_finiteness"
    m2f = by_name[name]
    out[f"{name}.busy_s"] = busy(name)
    out[f"{name}.success_frac"] = _frac(
        sum(bool(s.attrs.get("success")) for s in m2f), len(m2f))
    out["symbolic.support_words.busy_s"] = busy("symbolic.support_words")
    out["symbolic.support_words.words"] = total("symbolic.support_words", "words")

    name = "reduction.block_triangularize"
    splits = by_name[name]
    out[f"{name}.calls"] = len(splits)
    out[f"{name}.busy_s"] = busy(name)
    out[f"{name}.blocks"] = total(name, "blocks")
    out["reduction.is_irreducible.busy_s"] = busy("reduction.is_irreducible")
    out["reduction.dominant_blocks.busy_s"] = busy("reduction.dominant_blocks")
    out["reduction.tolerance_conflict_frac"] = _frac(
        sum(s.attrs.get("raised") == "ToleranceConflictError" for s in splits),
        len(splits))
    out["io.family_from_dict.busy_s"] = busy("io.family_from_dict")
    return out


def outcome_counts(outcomes) -> tuple[Counter, Counter]:
    """(status counts, counts of each flag on inconclusive outcomes)."""
    status = Counter(o.status for o in outcomes)
    flags = Counter(f for o in outcomes if o.status == "inconclusive"
                    for f in o.reason.split("+"))
    return status, flags
