#!/usr/bin/env python3
"""jsrkit benchmark: seeded query jobs, closed loop, checked answers.

    python3 jsrbench/run.py --workload bracket --seed 1 --seconds 35 --trace 0
    python3 jsrbench/run.py --workload all --seed 1      # BENCHMARK.json's workloads
    python3 jsrbench/run.py --write-benchmark-json       # regenerate BENCHMARK.json

One process, one client, no worker pool.  The workload's jobs (see
``generate.py``) run one after another, fresh cells of the seed's job
stream until about ``--seconds`` have passed; every answer is checked
(``jobs.py``).  With ``--trace 0`` the last line holds the end-to-end
metrics, with ``--trace 1`` the per-layer ones (see ``spec.py``).  The
exit code is 1 on any wrong answer, 2 when the library cannot be imported
from ``src/`` next to this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
READY = "jsrbench-ready"
BLAS_THREADS = 1


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _limit_blas_threads() -> None:
    """BLAS_THREADS threads whatever the caller's environment says, so that
    runs from different shells compare.  Must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _import_library():
    sys.path.insert(0, str(SRC))
    try:
        import jsrkit
    except ImportError as exc:
        print(f"jsrbench: cannot import jsrkit from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if SRC not in Path(jsrkit.__file__).resolve().parents:
        print(f"jsrbench: jsrkit was imported from {jsrkit.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        sys.exit(2)
    return jsrkit


def _git_commit() -> str:
    # the ceiling keeps git from reading a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             env=env, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown (not a git checkout)"


def _run_job(jobs_mod, workload, job, tracer):
    """(latency in s, outcome) of one job; the answer check is not timed."""
    tracer.job = job["id"]
    out = outcome = None
    t0 = time.perf_counter()
    try:
        out = jobs_mod.execute(workload, job, tracer)
    except jobs_mod.DOCUMENTED_ERRORS as exc:
        outcome = jobs_mod.Outcome("inconclusive", type(exc).__name__)
    except Exception as exc:  # an undocumented error is a failed job, not a crash
        outcome = jobs_mod.Outcome("failed", f"{type(exc).__name__}: {exc}")
    latency = time.perf_counter() - t0
    if outcome is None:
        outcome = jobs_mod.check(workload, job, out)
    return latency, outcome


def _warm_up(generate, jobs_mod, spans_mod, workload, seed) -> None:
    """Generate a cell of the warm-up stream and run one job of each kind
    from it, so lazy imports and caches are settled before timing and no
    timed input has been seen before."""
    import reference
    seen = set()
    for job in generate.make_cell(workload, seed, 0, generate.WARM_UP):
        if job["kind"] not in seen:
            seen.add(job["kind"])
            _run_job(jobs_mod, workload, job, spans_mod.NullTracer())
    reference.measure()


def _setup_probe_s(args) -> float:
    """Seconds from spawning a fresh benchmark process to it being ready to
    time its first job."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        ready = None
        for line in proc.stdout:
            if line.strip() == READY and ready is None:
                ready = time.perf_counter() - t0
        proc.wait(timeout=120)
    if proc.returncode != 0 or ready is None:
        print(f"jsrbench: set-up probe failed (exit {proc.returncode})", file=sys.stderr)
        sys.exit(2)
    return ready


@dataclass
class Measured:
    runs: dict          # {traced: (latencies, outcomes)}
    tracer: object
    cells: int
    elapsed: float      # wall seconds, set-up probes excluded
    marks: list         # (jobs run, reference loop seconds), see reference.py
    setup: list         # seconds of each set-up probe


def _measure(generate, jobs_mod, spans_mod, workload, seed, seconds, trace,
             probe, probes):
    """Run cells 0, 1, 2, ... of the seed's job stream while one more cell
    is expected to end within ``seconds``; every job runs once.  About
    every ``reference.INTERVAL_S`` of job time the reference loop is
    timed (first and last included).  Between cells, ``probes`` calls of
    ``probe`` (a set-up measurement) are spread evenly over the run, so
    that they see the machine at the same moments as the jobs; their time
    is not counted in the run's ``seconds``.  A traced run runs every job
    twice back to back, untraced and traced, alternating which goes first
    so that neither side is favoured."""
    import reference
    runs = {False: ([], []), True: ([], [])}
    tracer, untraced = spans_mod.Tracer(), spans_mod.NullTracer()
    order = ((False, True), (True, False)) if trace else ((False,),)
    setup, paused = [], 0.0

    def probe_until(due: int) -> None:
        nonlocal paused
        while len(setup) < due:
            t0 = time.perf_counter()
            setup.append(probe())
            paused += time.perf_counter() - t0

    start, cells = time.perf_counter(), 0
    marks, since = [(0, reference.measure())], 0.0
    while True:
        elapsed = time.perf_counter() - start - paused
        probe_until(min(probes, 1 + int(probes * elapsed / seconds)))
        for i, job in enumerate(generate.make_cell(workload, seed, cells)):
            for traced in order[i % len(order)]:
                t, o = _run_job(jobs_mod, workload, job,
                                tracer if traced else untraced)
                runs[traced][0].append(t)
                runs[traced][1].append(o)
                since += t
            if since >= reference.INTERVAL_S:
                marks.append((len(runs[False][0]), reference.measure()))
                since = 0.0
        cells += 1
        elapsed = time.perf_counter() - start - paused
        if elapsed * (1 + 1 / cells) > seconds:
            if marks[-1][0] < len(runs[False][0]):
                marks.append((len(runs[False][0]), reference.measure()))
            probe_until(probes)
            return Measured(runs, tracer, cells, elapsed, marks, setup)


def _info(label: str, value) -> None:
    print(f"# {label}: {value}")


def _end_to_end(summary, runs, marks, setup_samples, rss_mb):
    """Rate, median and tail over every job of the run, each latency
    scaled to the reference speed (see ``reference.py``)."""
    import reference
    raw, outcomes = runs[False]
    scales = reference.job_scales(marks, len(raw))
    latencies = [t * f for t, f in zip(raw, scales)]
    pct, tail, n = summary.tail_percentile(latencies)
    _info("job latency samples", f"{n} jobs; tail percentile p{pct:g}")
    speed = [reference.REFERENCE_S / s for _, s in marks]
    _info("machine speed / reference, min / median / max over "
          f"{len(marks)} measurements",
          f"{min(speed):.4f} / {statistics.median(speed):.4f} / {max(speed):.4f}")
    _info("unscaled jobs_per_s / job_p50_ms / job_tail_ms",
          f"{n / sum(raw):.6g} / {1e3 * statistics.median(raw):.6g} / "
          f"{1e3 * summary.tail_percentile(raw)[1]:.6g}")
    digits = [o.digits for o in outcomes if o.digits is not None]
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "jobs_per_s": (n / sum(latencies), "1/s"),
        "job_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "job_tail_ms": (1e3 * tail, "ms"),
        "inconclusive_frac": (
            sum(o.status == "inconclusive" for o in outcomes) / len(outcomes), "frac"),
        "width_digits_p50": (statistics.median(digits), "digits"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def _per_layer(summary, runs, tracer):
    t_untraced = sum(runs[False][0])
    t_traced = sum(runs[True][0])
    n = len(runs[True][0])
    top = [s for s in tracer.spans if s.parent is None]
    t_top = sum(s.duration for s in top)
    t_replay = sum(s.duration for s in top if s.decomp)
    jps_untraced = n / t_untraced
    jps_traced = n / (t_traced - t_replay)
    _info("jobs_per_s untraced / traced (replays excluded)",
          f"{jps_untraced:.6g} / {jps_traced:.6g}")
    _info("traced job time / top-level spans / replays (s)",
          f"{t_traced:.6g} / {t_top:.6g} / {t_replay:.6g}")
    _info("extremal.lp_solves", "computed as vertices x K over certified runs")
    values = summary.layer_metrics(tracer.spans)
    values["trace.overhead_frac"] = 1.0 - jps_traced / jps_untraced
    values["trace.unattributed_frac"] = (t_traced - t_top) / t_traced
    return values


def run_workload(args) -> int:
    _limit_blas_threads()
    jsrkit = _import_library()
    import numpy
    import scipy

    import generate
    import jobs as jobs_mod
    import spans as spans_mod
    import spec
    import summary

    t_own = time.perf_counter()
    _warm_up(generate, jobs_mod, spans_mod, args.workload, args.seed)
    if args.setup_probe:
        print(READY, flush=True)
        return 0

    from jsrkit import _kernels
    _info("jsrbench workload", f"{args.workload}  seed {args.seed}  "
          f"seconds {args.seconds}  trace {args.trace}")
    _info("kernel path", "numba" if _kernels.USE_NUMBA else "numpy "
          "(jsrkit._kernels.USE_NUMBA is False)")
    _info("versions", f"jsrkit {jsrkit.__version__}  numpy {numpy.__version__}  "
          f"scipy {scipy.__version__}  python {sys.version.split()[0]}")
    _info("nproc / BLAS threads", f"{_nproc()} / {BLAS_THREADS} "
          "(OPENBLAS_NUM_THREADS, OMP_NUM_THREADS, MKL_NUM_THREADS)")
    _info("git commit", _git_commit())
    _info("load", "closed loop, 1 client, fresh cells of "
          f"{len(generate.make_cell(args.workload, args.seed, 0))} jobs")
    _info("own set-up after imports (s)", f"{time.perf_counter() - t_own:.4f}")

    m = _measure(generate, jobs_mod, spans_mod, args.workload, args.seed,
                 args.seconds, args.trace, lambda: _setup_probe_s(args),
                 0 if args.trace else SETUP_PROBES)
    runs, tracer = m.runs, m.tracer
    in_jobs = sum(runs[False][0]) + sum(runs[True][0])
    _info("measured (s)", f"{m.elapsed:.3f} over {m.cells} cells, {in_jobs:.3f} "
          "inside jobs (the rest generates inputs and checks answers)")
    outcomes = runs[False][1] + runs[True][1]
    if args.trace:
        values = _per_layer(summary, runs, tracer)
        path = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(path)
        _info("spans written", f"{len(tracer.spans)} to {path.relative_to(ROOT)}")
        metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in spec.PER_LAYER}
    else:
        _info("set-up probes (s)", " ".join(f"{s:.4f}" for s in m.setup))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = _end_to_end(summary, runs, m.marks, m.setup, rss_mb)

    status, reasons = summary.outcome_counts(outcomes)
    attempted, failed = len(outcomes), status["failed"]
    _info("outcomes", f"{attempted} attempted, {status['ok']} ok, "
          f"{status['inconclusive']} inconclusive, {failed} failed "
          f"(failed_frac {failed / attempted:.6g})")
    for flag, count in sorted(reasons.items()):
        _info(f"  {count:6d} x", flag)
    for o in outcomes:
        if o.status == "failed":
            _info("  failed", o.reason)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload BENCHMARK.json lists in its own process, one after
    another."""
    sys.path.insert(0, str(HERE))
    import spec

    results, code = {}, 0
    for workload in (w["name"] for w in spec.WORKLOADS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               workload, "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        code = max(code, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        results[workload] = json.loads(lines[-1]) if proc.returncode in (0, 1) else None
    print(json.dumps({"correct": code == 0, "workloads": results}))
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=["bracket", "certify", "ergodic", "reduce", "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--write-benchmark-json", action="store_true",
                    help="write BENCHMARK.json from spec.py and exit")
    args = ap.parse_args(argv)
    if args.write_benchmark_json:
        sys.path.insert(0, str(HERE))
        import spec
        spec.write_benchmark_json(ROOT / "BENCHMARK.json")
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
