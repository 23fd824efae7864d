"""Every metric and workload of the benchmark, in one place.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 jsrbench/run.py --write-benchmark-json``); the extra fields
here (``layer``, ``feeds``, ``note``) document which layer a metric
measures and which end-to-end metric it should move, on which workload.
"""

from __future__ import annotations

import json
from pathlib import Path

COMMAND = ["python3", "jsrbench/run.py"]
PATHS = ["jsrbench"]
RUN_SECONDS = 35

# the workloads BENCHMARK.json lists; run.py runs these and ``certify``
WORKLOADS = [
    {"name": "bracket",
     "why": "bounds_bracket word-tree scans (about 1e4 nodes) on real and "
            "complex families: the _kernels scan does nearly all the work"},
    {"name": "ergodic",
     "why": "extremality verdicts for Markov (full and sparse support, some "
            "Monte Carlo) and periodic measures, plus planted density points "
            "through measure_to_finiteness"},
    {"name": "reduce",
     "why": "block_triangularize and dominant_blocks on planted "
            "block-triangular families under a random unitary: the "
            "algebra-closure path no other workload reaches"},
]

# Runnable, but left out of BENCHMARK.json, whose workloads must run
# without a failed answer.
LEFT_OUT = {
    "certify": "certify_finiteness answers 'certified' with a polytope that "
               "spans only an invariant subspace on some planted "
               "conjugated-triangular families; check_extremal_norm then "
               "raises DegenerateNormError, a failed answer, in most runs",
}

# bound: share of the parent's median by which the metric may worsen.
# The timing metrics get the largest bound allowed: on a 2-core cloud VM
# the machine itself runs the same code up to 1.4x slower or faster for
# spells of ten seconds to minutes.  Job latencies are scaled to a
# reference speed (reference.py), which takes most of that out; set-up
# time is not scaled.
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25,
     "note": "fresh process to first timed job (imports, input generation, "
             "warm-up); median of five child processes spread "
             "over the run"},
    {"name": "jobs_per_s", "unit": "1/s", "better": "higher", "bound": 0.25,
     "note": "jobs completed over the wall time spent inside them, scaled "
             "to the reference speed (reference.py); one closed-loop client; "
             "every job is a fresh input"},
    {"name": "job_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25,
     "note": "median latency over every job of the run, scaled to the "
             "reference speed"},
    {"name": "job_tail_ms", "unit": "ms", "better": "lower", "bound": 0.25,
     "note": "latency at the highest nearest-rank percentile with 10 jobs "
             "above it, scaled to the reference speed; the percentile and "
             "job count are printed"},
    {"name": "inconclusive_frac", "unit": "frac", "better": "lower", "bound": 0.2,
     "note": "jobs whose answer is honestly flagged, over jobs attempted"},
    {"name": "width_digits_p50", "unit": "digits", "better": "higher", "bound": 0.2,
     "note": "median of -log10(bracket width / upper) over jobs that "
             "return a bracket, clamped to [0, 16]"},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1,
     "note": "peak resident memory of the benchmark process"},
]


def _layer(name, unit, better, feeds, note=""):
    return {"name": name, "unit": unit, "better": better,
            "layer": name.split(".")[0], "feeds": feeds, "note": note}


_BRACKET = "jobs_per_s, job_p50_ms on bracket (small on ergodic, reduce)"
_PRUNED = "job_tail_ms, jobs_per_s on certify (left out, see LEFT_OUT)"
_CERT = ("jobs_per_s, inconclusive_frac on certify (left out, see LEFT_OUT); "
         "a little on ergodic")
_ERG = "jobs_per_s, job_tail_ms on ergodic"
_RED = "jobs_per_s, job_tail_ms, inconclusive_frac on reduce"

# Work counts are totals over the traced window, so they rise with speed.
PER_LAYER = [
    _layer("bounds.bounds_bracket.calls", "count", "higher", _BRACKET),
    _layer("bounds.bounds_bracket.busy_s", "s", "lower", _BRACKET),
    _layer("bounds.bounds_bracket.nodes", "count", "higher", _BRACKET),
    _layer("bounds.bounds_bracket.nodes_per_s", "1/s", "higher", _BRACKET),
    _layer("bounds.pruned_search.calls", "count", "higher", _PRUNED),
    _layer("bounds.pruned_search.busy_s", "s", "lower", _PRUNED),
    _layer("bounds.pruned_search.nodes", "count", "higher", _PRUNED),
    _layer("bounds.pruned_search.nodes_per_s", "1/s", "higher", _PRUNED),
    _layer("bounds.pruned_search.complete_frac", "frac", "higher",
           "width_digits_p50 on certify"),
    _layer("bounds.pruned_search.depth_p50", "levels", "lower", _PRUNED),
    _layer("extremal.certify_finiteness.calls", "count", "higher", _CERT),
    _layer("extremal.certify_finiteness.busy_s", "s", "lower", _CERT),
    _layer("extremal.certify_finiteness.vertices", "count", "higher", _CERT,
           "polytope vertices of certified runs"),
    _layer("extremal.lp_solves", "count", "higher", _CERT,
           "computed, not counted: vertices x K summed over certified runs"),
    _layer("extremal.lp_solves_per_s", "1/s", "higher", _CERT,
           "computed lp_solves over the busy time of certified runs"),
    _layer("extremal.certified_frac", "frac", "higher", _CERT),
    _layer("extremal.check_extremal_norm.busy_s", "s", "lower",
           "jobs_per_s on certify (left out, see LEFT_OUT)"),
    _layer("ergodic.extremality_verdict.calls", "count", "higher", _ERG),
    _layer("ergodic.extremality_verdict.busy_s", "s", "lower", _ERG),
    _layer("ergodic.extremality_verdict.undetermined_frac", "frac", "lower",
           "inconclusive_frac on ergodic"),
    _layer("ergodic.lyapunov_exact_finite.busy_s", "s", "lower", _ERG),
    _layer("ergodic.lyapunov_exact_finite.words", "count", "higher", _ERG),
    _layer("ergodic.lyapunov_exact_finite.words_per_s", "1/s", "higher", _ERG),
    _layer("ergodic.lyapunov_monte_carlo.busy_s", "s", "lower", _ERG),
    _layer("ergodic.lyapunov_monte_carlo.steps_per_s", "1/s", "higher", _ERG),
    _layer("ergodic.measure_to_finiteness.busy_s", "s", "lower", _ERG),
    _layer("ergodic.measure_to_finiteness.success_frac", "frac", "higher",
           "inconclusive_frac on ergodic"),
    _layer("symbolic.support_words.busy_s", "s", "lower", _ERG),
    _layer("symbolic.support_words.words", "count", "higher", _ERG),
    _layer("reduction.block_triangularize.calls", "count", "higher", _RED),
    _layer("reduction.block_triangularize.busy_s", "s", "lower", _RED),
    _layer("reduction.block_triangularize.blocks", "count", "higher", _RED),
    _layer("reduction.is_irreducible.busy_s", "s", "lower", _RED),
    _layer("reduction.dominant_blocks.busy_s", "s", "lower", _RED),
    _layer("reduction.tolerance_conflict_frac", "frac", "lower",
           "inconclusive_frac on reduce"),
    _layer("io.family_from_dict.busy_s", "s", "lower",
           "nothing measurable on any workload"),
    _layer("trace.overhead_frac", "frac", "lower", "none",
           "1 - traced/untraced jobs_per_s, replayed parts excluded"),
    _layer("trace.unattributed_frac", "frac", "lower", "none",
           "share of traced job time outside every top-level span"),
]


def benchmark_json() -> dict:
    """The BENCHMARK.json document, restricted to the keys it may hold."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w["name"], "why": w["why"]} for w in WORKLOADS],
        "end_to_end": [{k: m[k] for k in ("name", "unit", "better", "bound")}
                       for m in END_TO_END],
        "per_layer": [{k: m[k] for k in ("name", "unit", "better")}
                      for m in PER_LAYER],
    }


def write_benchmark_json(path: Path) -> None:
    path.write_text(json.dumps(benchmark_json(), indent=2) + "\n")
