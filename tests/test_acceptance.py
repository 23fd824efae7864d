"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single PASS/FAIL
line (bypassing pytest capture) before asserting, so the run log always
shows the per-criterion outcome.
"""

import csv
import json
import math
import sys
import time

import numpy as np
import pytest

from jsrkit import (MarkovMeasure, MatrixFamily, PeriodicMeasure,
                    PeriodicSequence, block_triangularize, bounds_bracket,
                    check_extremal_norm, cli, corollary_reports,
                    cylinder_probability, euclidean_certificate,
                    extremal_subspace, finiteness_to_measure, io,
                    is_irreducible, lyapunov_exact_finite,
                    lyapunov_monte_carlo, measure_to_finiteness)

from conftest import PHI
from test_reduction import conjugated_block_family

LOG_PHI = math.log(PHI)


_CAPSYS = None


@pytest.fixture(autouse=True)
def _capture_handle(capsys):
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def report(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] acceptance {criterion}"
    if detail:
        line += f"  ({detail})"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line, flush=True)
    else:  # pragma: no cover
        print(line, file=sys.__stdout__, flush=True)
    assert ok, line


@pytest.fixture(scope="module", autouse=True)
def warm_kernels(request):
    """Trigger kernel JIT compilation outside the timed criteria."""
    fam = MatrixFamily.from_matrices([[[0.5, 0], [0, 0.5]]])
    bounds_bracket(fam, 2)
    mu = MarkovMeasure(np.array([1.0]), np.array([[1.0]]))
    lyapunov_monte_carlo(fam, mu, 2, 40, seed=0)


@pytest.fixture
def golden_path(tmp_path, golden_pair):
    path = tmp_path / "golden.json"
    io.serialize_family(golden_pair, path)
    return str(path)


def test_criterion_01_golden_pair_regression(golden_path, tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "bounds.json"
    code = cli.main(["bounds", golden_path, "--depth", "12", "--out", str(out)])
    bracket = json.loads(out.read_text())["results"]["bracket"]
    lower_ok = code == 0 and abs(bracket["lower"] - PHI) <= 1e-9
    word = tuple(bracket["best_word"])
    word_ok = word in ((1, 2), (2, 1))

    out2 = tmp_path / "fin.json"
    code2 = cli.main(["finiteness", golden_path, "--word", "1,2",
                      "--out", str(out2)])
    fin = json.loads(out2.read_text())["results"]["finiteness"]
    fin_ok = (code2 == 0 and fin["verdict"] == "certified"
              and abs(fin["value"] - PHI) <= 1e-9)
    elapsed = time.perf_counter() - t0
    report("01 golden-pair regression",
           lower_ok and word_ok and fin_ok and elapsed < 5.0,
           f"lower {bracket['lower']:.12f}, word {word}, "
           f"finiteness {fin['verdict']}, {elapsed:.2f}s")


def test_criterion_02_forward_pipeline(golden_pair):
    t0 = time.perf_counter()
    mu12, v12 = finiteness_to_measure(golden_pair, (1, 2))
    ok12 = (isinstance(mu12, PeriodicMeasure) and mu12.base.period == (1, 2)
            and v12.verdict == "extremal" and abs(v12.gap) <= 1e-6)
    mu1, v1 = finiteness_to_measure(golden_pair, (1,))
    ok1 = (v1.verdict == "not-extremal"
           and abs(v1.lyapunov.value - 0.0) <= 1e-9
           and abs(v1.jsr_bracket.lower - PHI) <= 1e-9)
    elapsed = time.perf_counter() - t0
    report("02 forward pipeline (word -> measure)",
           ok12 and ok1 and elapsed < 5.0,
           f"(1,2): {v12.verdict} gap {v12.gap:.2e}; "
           f"(1): {v1.verdict} lyap {v1.lyapunov.value:.2e}; {elapsed:.2f}s")


def test_criterion_03_reverse_pipeline(golden_pair):
    t0 = time.perf_counter()
    xi = PeriodicSequence(2, (1, 2))
    good = measure_to_finiteness(golden_pair, PeriodicMeasure(xi), xi)
    ok_good = (good.success and good.certificate is not None
               and good.certificate.word == (1, 2))
    mu = PeriodicMeasure(xi)
    bad = measure_to_finiteness(golden_pair, mu, PeriodicSequence(2, (1,)))
    ok_bad = (not bad.success and bad.failing_step() == "density-point"
              and all(s.name and isinstance(s.passed, bool) for s in bad.steps))
    elapsed = time.perf_counter() - t0
    report("03 reverse pipeline (measure -> certificate)",
           ok_good and ok_bad and elapsed < 5.0,
           f"witness {good.certificate.word if good.success else None}, "
           f"bad run fails at {bad.failing_step()}; {elapsed:.2f}s")


def test_criterion_04_shear_counterexample(shear):
    t0 = time.perf_counter()
    irr_ok = not is_irreducible(shear)
    red = block_triangularize(shear)
    blocks_ok = red.block_sizes == (1, 1)
    ok, gap, attained = check_extremal_norm(shear, euclidean_certificate(2), 1.0)
    norm_ok = (not ok) and abs(attained - PHI) <= 1e-9
    sub = extremal_subspace(shear, depth=8)
    sub_ok = (sub.status == "ok" and sub.dim == 1
              and np.allclose(sub.restricted_family.mats, [[[1.0]]], atol=1e-9)
              and abs(sub.rho_estimate - 1.0) <= 1e-9)
    elapsed = time.perf_counter() - t0
    report("04 shear counterexample",
           irr_ok and blocks_ok and norm_ok and sub_ok and elapsed < 2.0,
           f"blocks {red.block_sizes}, euclidean attains {attained:.9f} vs 1, "
           f"E dim {sub.dim}; {elapsed:.2f}s")


def test_criterion_05_measure_axioms():
    measures = {
        "uniform": MarkovMeasure(np.array([0.5, 0.5]), np.full((2, 2), 0.5)),
        "asymmetric": MarkovMeasure(np.array([1 / 3, 2 / 3]),
                                    np.array([[0.0, 1.0], [0.5, 0.5]])),
        "periodic(1,2)": PeriodicMeasure(PeriodicSequence(2, (1, 2))),
    }
    import itertools
    worst = 0.0
    ok = True
    for mu in measures.values():
        for n in range(1, 9):
            words = [tuple(w) for w in itertools.product((1, 2), repeat=n)]
            total = sum(cylinder_probability(mu, w) for w in words)
            worst = max(worst, abs(total - 1.0))
            for w in words:
                pw = cylinder_probability(mu, w)
                ext = sum(cylinder_probability(mu, w + (k,)) for k in (1, 2))
                pre = sum(cylinder_probability(mu, (k,) + w) for k in (1, 2))
                worst = max(worst, abs(ext - pw), abs(pre - pw))
    ok = worst <= 1e-12
    report("05 measure axioms (mass, consistency, shift-invariance)",
           ok, f"worst residual {worst:.2e} over n <= 8")


def test_criterion_06_kingman_monotonicity():
    uniform = MarkovMeasure(np.array([0.5, 0.5]), np.full((2, 2), 0.5))
    worst_mono = -math.inf
    worst_dom = -math.inf
    for seed in range(20):
        rng = np.random.default_rng(seed)
        fam = MatrixFamily(rng.standard_normal((2, 2, 2)).astype(np.complex128))
        vals = [lyapunov_exact_finite(fam, uniform, n).value for n in (1, 2, 4, 8)]
        for a, b in zip(vals, vals[1:]):
            worst_mono = max(worst_mono, b - a)
        for n, v in zip((1, 2, 4, 8), vals):
            b = bounds_bracket(fam, n)
            assert b.complete
            worst_dom = max(worst_dom, v - math.log(b.upper))
    ok = worst_mono <= 1e-12 and worst_dom <= 1e-12
    report("06 Kingman monotonicity (20 seeded families)",
           ok, f"worst increase {worst_mono:.2e}, "
               f"worst excess over upper bound {worst_dom:.2e}")


def test_criterion_07_monte_carlo_consistency(golden_pair):
    t0 = time.perf_counter()
    alternating = MarkovMeasure(np.array([0.5, 0.5]),
                                np.array([[0.0, 1.0], [1.0, 0.0]]))
    est = lyapunov_monte_carlo(golden_pair, alternating, 500, 2000, seed=0)
    # the estimator is deterministic here, so its stderr underruns float
    # rounding; 1e-12 absolute slack covers representation error
    mc_ok = abs(est.value - LOG_PHI) <= 3.0 * est.stderr + 1e-12

    a = np.array([[1.0, 1.0], [0.0, 0.9]])
    single = MatrixFamily.from_matrices([a])
    mu1 = MarkovMeasure(np.array([1.0]), np.array([[1.0]]))
    est1 = lyapunov_monte_carlo(single, mu1, 16, 400, seed=0)
    expected = math.log(np.linalg.norm(np.linalg.matrix_power(a, 400), 2)) / 400
    single_ok = abs(est1.value - expected) <= 1e-9 and est1.stderr <= 1e-9
    elapsed = time.perf_counter() - t0
    report("07 monte-carlo consistency",
           mc_ok and single_ok and elapsed < 30.0,
           f"alternating dev {est.value - LOG_PHI:.2e} "
           f"(stderr {est.stderr:.1e}), single dev "
           f"{est1.value - expected:.2e}; {elapsed:.2f}s")


def test_criterion_08_reduction_conservation():
    worst_gap = -math.inf
    worst_residual = 0.0
    for seed in range(10):
        fam, _ = conjugated_block_family(seed, sizes=(1, 2))
        red = block_triangularize(fam, seed=seed)
        worst_residual = max(worst_residual, red.reconstruction_residual())
        fam_b = bounds_bracket(fam, 8)
        block_bs = [bounds_bracket(b, 8) for b in red.blocks]
        best = max(block_bs, key=lambda b: b.lower)
        slack = fam_b.width + sum(b.width for b in block_bs)
        worst_gap = max(worst_gap, abs(best.lower - fam_b.lower) - slack)
    ok = worst_gap <= 1e-9 and worst_residual <= 1e-8
    report("08 reduction conservation (10 seeded 3x3 families)",
           ok, f"worst bracket disagreement beyond slack {worst_gap:.2e}, "
               f"worst residual {worst_residual:.2e}")


def test_criterion_09_alpha_sweep(tmp_path):
    t0 = time.perf_counter()
    from importlib import resources
    alpha_path = str(resources.files("jsrkit") / "data" / "alpha_family.json")

    def run(depth):
        csv_path = tmp_path / f"sweep_{depth}.csv"
        code = cli.main(["sweep", alpha_path, "--from", "0.60", "--to", "0.90",
                         "--steps", "31", "--depth", str(depth),
                         "--csv", str(csv_path)])
        assert code == 0
        with open(csv_path) as fh:
            return list(csv.DictReader(fh))

    rows6 = run(6)
    rows10 = run(10)
    ordered = all(float(r["lower"]) <= float(r["upper"]) + 1e-12 for r in rows10)
    has_words = all(r["best_word"] for r in rows10)
    narrower = all(float(r10["width"]) <= float(r6["width"]) + 1e-12
                   for r6, r10 in zip(rows6, rows10))
    elapsed = time.perf_counter() - t0
    report("09 alpha sweep 0.60..0.90 at depth 10",
           ordered and has_words and narrower and len(rows10) == 31
           and elapsed < 600.0,
           f"31 rows, widths narrow from depth 6 to 10; {elapsed:.1f}s")


def test_criterion_10_stability_corollary():
    t0 = time.perf_counter()
    fam = MatrixFamily.from_matrices([np.diag([0.5, 0.25]), np.diag([0.25, 0.5])])
    uniform = MarkovMeasure(np.array([0.5, 0.5]), np.full((2, 2), 0.5))
    rep = corollary_reports(fam, uniform, depth=6)
    ok = (abs(rep.scan_max - 0.5) <= 1e-12
          and rep.upper_bound <= 0.5 + 1e-9
          and "stable" in rep.stability_conclusion)
    elapsed = time.perf_counter() - t0
    report("10 stability corollary (diagonal contraction pair)",
           ok and elapsed < 2.0,
           f"scan max {rep.scan_max}, upper {rep.upper_bound}; {elapsed:.2f}s")
