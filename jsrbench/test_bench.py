"""Tests of the benchmark itself: run with ``python3 -m pytest jsrbench``."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import generate
import jobs
import reference
import spec
import summary
from jsrkit import check_extremal_norm
from jsrkit.io import family_from_dict
from spans import NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", generate.WORKLOADS)
def test_same_seed_same_jobs_other_seed_other_jobs(workload):
    def jobs_of(seed):
        return [j for cell in (0, 1) for j in generate.make_cell(workload, seed, cell)]
    a = jobs_of(7)
    assert json.dumps(a) == json.dumps(jobs_of(7))
    b = jobs_of(8)
    assert [j["kind"] for j in a] == [j["kind"] for j in b]
    assert [j["family"] for j in a] != [j["family"] for j in b]
    assert len({j["id"] for j in a}) == len(a)


@pytest.mark.parametrize("workload", generate.WORKLOADS)
def test_cells_and_warm_up_never_repeat_an_input(workload):
    cells = [generate.make_cell(workload, 7, c) for c in range(3)]
    cells.append(generate.make_cell(workload, 7, 0, generate.WARM_UP))
    families = [j["family"] for cell in cells for j in cell]
    assert len(set(families)) == len(families)


@pytest.mark.parametrize("workload", generate.WORKLOADS)
def test_jobs_decode_through_the_io_layer(workload):
    for job in generate.make_cell(workload, 3, 0)[:12]:
        fam = family_from_dict(json.loads(job["family"]))
        assert fam.size >= 2 and fam.dim >= 2


def _golden_job():
    mats, rho = generate._golden(np.random.default_rng(0))
    return {"id": 0, "kind": "golden", "family": generate.family_doc(mats),
            "depth": 8, "rho": rho, "tol": 1e-6, "node_budget": 5_000,
            "vertex_budget": 100}


def test_bracket_check_passes_a_true_bracket():
    job = _golden_job()
    out = jobs.execute("bracket", job, NullTracer())
    assert jobs.check("bracket", job, out).status == "ok"


@pytest.mark.parametrize("field, factor", [("lower", 1.01), ("upper", 0.99)])
def test_bracket_check_catches_a_corrupted_bracket(field, factor):
    job = _golden_job()
    out = jobs.execute("bracket", job, NullTracer())
    b = out["bracket"]
    out["bracket"] = dataclasses.replace(b, **{field: getattr(b, field) * factor})
    outcome = jobs.check("bracket", job, out)
    assert outcome.status == "failed", outcome


def test_certificate_check_catches_a_corrupted_certificate():
    job = _golden_job()
    out = jobs.execute("certify", job, NullTracer())
    assert jobs.check("certify", job, out).status == "ok"

    wrong_value = dict(out, cert=dataclasses.replace(
        out["cert"], value=out["cert"].value * 1.001))
    assert jobs.check("certify", job, wrong_value).status == "failed"

    fam = out["family"]
    cert = out["cert"].certificate
    swapped = dataclasses.replace(cert, vertices=np.eye(fam.dim))  # l1 ball
    failing = check_extremal_norm(fam, swapped, out["cert"].value)
    assert not failing[0]
    bad_norm = dict(out, cert=dataclasses.replace(out["cert"], certificate=swapped),
                    check=failing)
    assert jobs.check("certify", job, bad_norm).status == "failed"


def test_certificate_spanning_a_subspace_fails():
    job = _golden_job()
    out = jobs.execute("certify", job, NullTracer())
    flat = dataclasses.replace(out["cert"].certificate, vertices=np.eye(2)[:1])
    cert = dataclasses.replace(out["cert"], certificate=flat)
    degenerate = dict(out, cert=cert, check=jobs._check_norm(out["family"], cert))
    outcome = jobs.check("certify", job, degenerate)
    assert outcome.status == "failed", outcome
    assert "does not span" in outcome.reason


def test_planted_rho_outside_bracket_fails():
    job = dict(_golden_job(), rho=_golden_job()["rho"] * 1.01)
    out = jobs.execute("bracket", job, NullTracer())
    assert jobs.check("bracket", job, out).status == "failed"


@pytest.mark.parametrize("n, pct", [(10, 100.0), (11, 100 / 11), (50, 80.0),
                                    (55, 4500 / 55), (100, 90.0), (1000, 99.0)])
def test_tail_percentile_keeps_ten_samples_beyond(n, pct):
    samples = list(np.random.default_rng(n).permutation(n) + 1.0)
    got_pct, value, count = summary.tail_percentile(samples)
    assert count == n
    assert got_pct == pytest.approx(pct)
    beyond = sum(s > value for s in samples)
    if n > summary.MIN_BEYOND:
        assert beyond == summary.MIN_BEYOND  # any higher rank leaves fewer
    else:
        assert value == max(samples)


def test_job_scales_use_the_loop_times_around_each_job(monkeypatch):
    ref = reference.REFERENCE_S
    marks = [(0, 2 * ref), (3, 2 * ref), (5, 2 * ref)]
    assert reference.job_scales(marks, 5) == pytest.approx([0.5] * 5)
    monkeypatch.setattr(reference, "SMOOTH", 2)
    marks = [(0, ref), (1, ref), (2, 3 * ref), (4, 3 * ref)]
    assert reference.job_scales(marks, 4) == pytest.approx([1.0, 0.5, 1 / 3, 1 / 3])
    with pytest.raises(ValueError):
        reference.job_scales(marks, 5)


def test_layer_metrics_cover_every_per_layer_metric():
    tr = Tracer()
    job = _golden_job()
    tr.job = 0
    jobs.execute("certify", job, tr)
    values = summary.layer_metrics(tr.spans)
    names = {m["name"] for m in spec.PER_LAYER} - {"trace.overhead_frac",
                                                     "trace.unattributed_frac"}
    assert names == set(values)
    assert values["bounds.pruned_search.calls"] == 1
    assert values["extremal.lp_solves"] == values["extremal.certify_finiteness.vertices"] * 2


def test_benchmark_json_matches_spec():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc == spec.benchmark_json()
    listed = [w["name"] for w in spec.WORKLOADS]
    assert sorted(listed + list(spec.LEFT_OUT)) == sorted(generate.WORKLOADS)
    names = [m["name"] for m in spec.END_TO_END + spec.PER_LAYER]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in spec.END_TO_END)
    assert max(spec.END_TO_END, key=lambda m: m["bound"])["name"] == "setup_s"
    assert all(len(w["why"]) <= 200 for w in spec.WORKLOADS)
