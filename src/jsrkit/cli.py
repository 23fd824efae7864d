"""Command-line front end.

One subcommand per capability: bounds, finiteness, reduce, norm-check,
ergodic, main-theorem, corollaries, sweep.  Each takes only the flags its
handler reads.  Every run prints its effective configuration, writes a
human-readable summary to stdout, and optionally a JSON run report to
--out, whose results are the library's records through ``io.to_json``.
Exit codes: 0 success, 1 error, 2 inconclusive.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import ergodic, extremal, io, reduction
from .config import (DEFAULT_DEPTH, DEFAULT_NODE_BUDGET, DEFAULT_SEED,
                     DEFAULT_TOL, VERTEX_BUDGET)
from .matrix_core import MatrixFamily
from .symbolic import PeriodicMeasure

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2


def _version() -> str:
    try:
        return metadata.version("jsrkit")
    except metadata.PackageNotFoundError:  # pragma: no cover
        return "unknown"


# the shared settings a subcommand may take; the run report's config
# lists those it has
_SETTINGS = {
    "depth": dict(type=int, default=DEFAULT_DEPTH),
    "tol": dict(type=float, default=DEFAULT_TOL),
    "budget": dict(type=int, default=DEFAULT_NODE_BUDGET,
                   help="node budget for word-tree searches"),
    "seed": dict(type=int, default=DEFAULT_SEED),
}


def _add_common(p: argparse.ArgumentParser, *settings: str) -> None:
    p.add_argument("family", help="family JSON file")
    for name in settings:
        p.add_argument(f"--{name}", **_SETTINGS[name])
    p.add_argument("--transpose", action="store_true",
                   help="use the column-vector convention (transposes the family)")
    p.add_argument("--out", help="write the JSON run report here")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="jsr",
        description="Joint spectral radius bounds, finiteness certification, "
                    "and extremal-measure verification")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("bounds", help="certified JSR bracket")
    _add_common(p, "depth", "tol", "budget")
    p.add_argument("--prune", action="store_true",
                   help="branch-and-bound to width --tol instead of exhaustive depth")
    p.add_argument("--table", action="store_true",
                   help="also print the per-depth lower/upper table")

    p = sub.add_parser("finiteness", help="certify a spectrum-maximizing word")
    _add_common(p, "depth")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--word", help="candidate word, e.g. 1,2")
    g.add_argument("--search", action="store_true",
                   help="certify the depth-DEPTH bracket's witness word")
    p.add_argument("--vertex-budget", type=int, default=VERTEX_BUDGET)

    p = sub.add_parser("reduce", help="block triangularization into irreducible blocks")
    _add_common(p, "depth", "budget", "seed")

    p = sub.add_parser("norm-check", help="is a candidate norm extremal?")
    _add_common(p, "depth", "budget")
    p.add_argument("--certificate", help="norm certificate JSON (default: Euclidean)")

    p = sub.add_parser("ergodic", help="Lyapunov exponent and extremality verdict")
    _add_common(p, "depth", "budget", "seed")
    p.add_argument("--tol", type=float,
                   help="verdict tolerance (default: 1e-6 for exact methods, "
                        "3 standard errors for Monte Carlo)")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--markov", help="Markov measure JSON file")
    g.add_argument("--periodic", help="periodic sequence (file or inline word)")
    p.add_argument("--n", type=int, help="exact finite-n average length")
    p.add_argument("--mc-samples", type=int, default=0)
    p.add_argument("--mc-length", type=int, default=1000)

    p = sub.add_parser("main-theorem",
                       help="measure + periodic density point -> finiteness certificate")
    _add_common(p, "depth", "budget")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--markov")
    g.add_argument("--periodic")
    p.add_argument("--xi", required=True, help="periodic density point, e.g. 1,2")
    p.add_argument("--vertex-budget", type=int, default=VERTEX_BUDGET)

    p = sub.add_parser("corollaries",
                       help="extremal Markov measure reports (finiteness certificate, stability scan)")
    _add_common(p, "depth", "budget")
    p.add_argument("--markov", required=True)

    p = sub.add_parser("sweep", help="parameter sweep, e.g. the alpha family")
    _add_common(p, "depth", "budget")
    p.add_argument("--param", default="alpha",
                   help="parameter name (recorded in rows)")
    p.add_argument("--from", dest="start", type=float, required=True)
    p.add_argument("--to", dest="stop", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--scale-matrix", type=int, default=1,
                   help="1-based index of the generator multiplied by the parameter")
    p.add_argument("--csv", help="write sweep rows as CSV here")
    return ap


def _print_config(args) -> dict:
    cfg = {k: getattr(args, k) for k in _SETTINGS if hasattr(args, k)}
    cfg.update(transpose=args.transpose, version=_version())
    print("config: " + " ".join(f"{k}={v}" for k, v in cfg.items()))
    return cfg


def _load_family(args) -> MatrixFamily:
    family = io.parse_family(args.family)
    if args.transpose:
        family = family.transposed()
    return family


def _cmd_bounds(args, family):
    # one scan gives the exhaustive bracket and the per-depth table
    scan = (bounds_mod._scan(family, args.depth, args.budget)
            if args.table or not args.prune else None)
    if args.prune:
        bracket = bounds_mod.pruned_search(family, args.tol, args.budget)
    else:
        bracket = bounds_mod._bracket(scan, family.scale)
    # a complete scan that stopped short of the depth closed its bracket
    closed = (not args.prune and bracket.complete
              and bracket.depth_explored < args.depth)
    lines = [
        f"lower  {bracket.lower:.12g}  (word {','.join(map(str, bracket.best_word))})",
        f"upper  {bracket.upper:.12g}",
        f"width  {bracket.width:.3e}   depth {bracket.depth_explored}   "
        f"nodes {bracket.nodes_visited}   complete {bracket.complete}"
        + (f"   closed at depth {bracket.depth_explored}" if closed else ""),
    ]
    results = {"bracket": bracket}
    if args.table:
        rows = bounds_mod._table(scan, args.budget)
        results["berger_wang"] = rows
        lines.append(f"{'n':>4} {'lower':>16} {'upper':>16}")
        for r in rows:
            lines.append(f"{r['n']:>4} {r['lower']:>16.10f} {r['upper']:>16.10f}")
    code = EXIT_OK if bracket.complete else EXIT_INCONCLUSIVE
    return results, lines, code


def _cmd_finiteness(args, family):
    word = (io.parse_word(args.word) if args.word else
            bounds_mod.bounds_bracket(family, args.depth).best_word)
    cert = extremal.certify_finiteness(family, word, args.vertex_budget)
    lines = [f"word    {','.join(map(str, cert.word))}",
             f"value   {cert.value:.12g}",
             f"verdict {cert.verdict}" + (f"  ({cert.reason})" if cert.reason else "")]
    if cert.certificate is not None:
        lines.append(f"polytope vertices: {cert.certificate.vertices.shape[0]}, "
                     f"margin {cert.certificate.margin:.3e}")
    code = EXIT_OK if cert.verdict == "certified" else EXIT_INCONCLUSIVE
    return {"finiteness": cert}, lines, code


def _cmd_reduce(args, family):
    result = reduction.block_triangularize(family, seed=args.seed)
    report = reduction.dominant_blocks(result, args.depth, args.budget)
    lines = [f"blocks  {result.block_count}  sizes {list(result.block_sizes)}",
             f"reconstruction residual {result.reconstruction_residual():.3e}",
             f"dominant blocks {list(report.dominant)}"
             + ("  (ambiguous)" if report.ambiguous else "")]
    results = {"reduction": result, "dominant_blocks": report.dominant,
               "ambiguous": report.ambiguous,
               "block_brackets": report.block_brackets}
    return results, lines, EXIT_OK


def _cmd_norm_check(args, family):
    if args.certificate:
        doc = json.loads(Path(args.certificate).read_text())
        cert = io.certificate_from_json(doc)
    else:
        cert = extremal.euclidean_certificate(family.dim)
    bracket = bounds_mod.bounds_bracket(family, args.depth, args.budget)
    ok, gap, attained = extremal.check_extremal_norm(family, cert, bracket.lower)
    lines = [f"attained max norm {attained:.12g}",
             f"JSR estimate      {bracket.lower:.12g}  (bracket width {bracket.width:.3e})",
             f"extremal: {ok}   gap {gap:.3e}"]
    results = {"extremal": ok, "gap": gap, "attained": attained,
               "bracket": bracket}
    return results, lines, EXIT_OK


def _parse_measure(args, family):
    if getattr(args, "markov", None):
        return io.parse_markov(args.markov)
    xi = io.parse_periodic(args.periodic, family.size)
    return PeriodicMeasure(xi)


def _cmd_ergodic(args, family):
    mu = _parse_measure(args, family)
    verdict = ergodic.extremality_verdict(
        family, mu, args.depth, tol=args.tol, node_budget=args.budget,
        exact_n=args.n, mc_samples=args.mc_samples, mc_length=args.mc_length,
        seed=args.seed)
    lines = [f"lyapunov {verdict.lyapunov.value:.12g}  "
             f"({verdict.lyapunov.method}, n/samples {verdict.lyapunov.n_or_samples}, "
             f"stderr {verdict.lyapunov.stderr:.3e})",
             f"bracket  [{verdict.jsr_bracket.lower:.12g}, {verdict.jsr_bracket.upper:.12g}]",
             f"verdict  {verdict.verdict}   gap {verdict.gap:.3e}   tol {verdict.tol:.3e}"]
    code = EXIT_INCONCLUSIVE if verdict.verdict == "undetermined" else EXIT_OK
    return {"verdict": verdict}, lines, code


def _cmd_main_theorem(args, family):
    mu = _parse_measure(args, family)
    xi = io.parse_periodic(args.xi, family.size)
    report = ergodic.measure_to_finiteness(
        family, mu, xi, args.depth, args.budget, args.vertex_budget)
    lines = []
    for step in report.steps:
        mark = "pass" if step.passed else "FAIL"
        lines.append(f"[{mark}] {step.name}: {step.detail}")
    lines.append(f"success: {report.success}")
    code = EXIT_OK if report.decided else EXIT_INCONCLUSIVE
    return {"main_theorem": report}, lines, code


def _cmd_corollaries(args, family):
    mu = io.parse_markov(args.markov)
    report = ergodic.corollary_reports(family, mu, args.depth, args.budget)
    lines = [f"extremality: {report.extremality.verdict} "
             f"(gap {report.extremality.gap:.3e})",
             f"scan max (periodic stability): {report.scan_max:.12g}",
             f"upper bound: {report.upper_bound:.12g}",
             f"conclusion: {report.stability_conclusion}"]
    if report.finiteness is not None:
        lines.insert(1, f"finiteness: {report.finiteness.verdict} via word "
                        f"{','.join(map(str, report.finiteness.word))}")
    code = (EXIT_INCONCLUSIVE
            if report.extremality.verdict == "undetermined" else EXIT_OK)
    return {"corollaries": report}, lines, code


def _cmd_sweep(args, family):
    if args.steps < 1:
        raise ValueError("--steps must be >= 1")
    if not 1 <= args.scale_matrix <= family.size:
        raise ValueError("--scale-matrix out of range")
    values = np.linspace(args.start, args.stop, args.steps)
    rows = []
    for val in values:
        mats = family.mats.copy()
        mats[args.scale_matrix - 1] = mats[args.scale_matrix - 1] * val
        fam = MatrixFamily(mats)
        bracket = bounds_mod.bounds_bracket(fam, args.depth, args.budget)
        rows.append({
            args.param: float(val),
            "lower": bracket.lower,
            "upper": bracket.upper,
            "width": bracket.width,
            "best_word": ",".join(map(str, bracket.best_word)),
            "complete": bracket.complete,
        })
    lines = [f"{args.param:>8} {'lower':>16} {'upper':>16} {'width':>12}  best_word"]
    for r in rows:
        lines.append(f"{r[args.param]:>8.4f} {r['lower']:>16.10f} "
                     f"{r['upper']:>16.10f} {r['width']:>12.3e}  {r['best_word']}")
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
    code = EXIT_OK if all(r["complete"] for r in rows) else EXIT_INCONCLUSIVE
    return {"sweep": rows}, lines, code


_HANDLERS = {
    "bounds": _cmd_bounds,
    "finiteness": _cmd_finiteness,
    "reduce": _cmd_reduce,
    "norm-check": _cmd_norm_check,
    "ergodic": _cmd_ergodic,
    "main-theorem": _cmd_main_theorem,
    "corollaries": _cmd_corollaries,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        config = _print_config(args)
        family = _load_family(args)
        results, lines, code = _HANDLERS[args.subcommand](args, family)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    for line in lines:
        print(line)
    if args.out:
        report = {
            "subcommand": args.subcommand,
            "inputs": {"family": str(args.family),
                       "argv": argv if argv is not None else sys.argv[1:]},
            "config": config,
            "results": io.to_json(results),
            "wall_time_s": time.perf_counter() - started,
            "version": _version(),
            "exit_code": code,
        }
        if "seed" in config:
            report["seed"] = args.seed
        Path(args.out).write_text(json.dumps(report, indent=2))
    return code


if __name__ == "__main__":
    sys.exit(main())
