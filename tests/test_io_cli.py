import dataclasses
import json
from importlib import resources

import numpy as np
import pytest

from jsrkit import (MatrixFamily, PeriodicMeasure, PeriodicSequence,
                    block_triangularize, boundedness_probe, bounds_bracket,
                    certify_finiteness, cli, corollary_reports,
                    dominant_blocks, euclidean_certificate,
                    extremality_verdict, io, lyapunov_periodic,
                    measure_to_finiteness)

from conftest import PHI

DATA = resources.files("jsrkit") / "data"


def data_path(name):
    return str(DATA / name)


def write_family(tmp_path, mats, name="fam.json"):
    fam = MatrixFamily.from_matrices(mats)
    path = tmp_path / name
    io.serialize_family(fam, path)
    return str(path)


class TestFamilyFiles:
    def test_round_trip_real(self, tmp_path, golden_pair):
        path = tmp_path / "g.json"
        io.serialize_family(golden_pair, path)
        back = io.parse_family(path)
        assert np.array_equal(back.mats, golden_pair.mats)

    def test_round_trip_complex(self, tmp_path):
        fam = MatrixFamily.from_matrices([[[1j, 2], [0, 1 - 0.5j]]])
        path = tmp_path / "c.json"
        io.serialize_family(fam, path)
        assert np.array_equal(io.parse_family(path).mats, fam.mats)

    def test_bundled_golden_pair(self, golden_pair):
        fam = io.parse_family(data_path("golden_pair.json"))
        assert np.array_equal(fam.mats, golden_pair.mats)

    def test_bundled_files_all_parse(self):
        for name in ("golden_pair.json", "shear.json", "alpha_family.json"):
            fam = io.parse_family(data_path(name))
            assert fam.dim == 2

    def test_invalid_json_diagnostic(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(io.FamilyFileError, match="invalid JSON"):
            io.parse_family(p)

    def test_missing_schema_version(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"matrices": [[[1]]]}))
        with pytest.raises(io.FamilyFileError, match="schema_version"):
            io.parse_family(p)

    def test_ragged_row_diagnostic(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"schema_version": "1",
                                 "matrices": [[[1, 2], [3]]]}))
        with pytest.raises(io.FamilyFileError, match="matrix 1 row 2"):
            io.parse_family(p)

    def test_bad_entry_diagnostic(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"schema_version": "1",
                                 "matrices": [[[1, "x"], [0, 1]]]}))
        with pytest.raises(io.FamilyFileError, match="row 1 col 2"):
            io.parse_family(p)


class TestMeasureParsing:
    def test_markov_with_p(self):
        mu = io.parse_markov(data_path("asymmetric_markov.json"))
        assert mu.p == pytest.approx([1 / 3, 2 / 3], abs=1e-9)

    def test_markov_from_transition_only(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"P": [[0.0, 1.0], [0.5, 0.5]]}))
        mu = io.parse_markov(p)
        assert mu.p == pytest.approx([1 / 3, 2 / 3], abs=1e-9)

    def test_periodic_inline_and_file(self, tmp_path):
        assert io.parse_periodic("1,2", 2).period == (1, 2)
        p = tmp_path / "p.json"
        p.write_text(json.dumps({"period": [2, 1]}))
        assert io.parse_periodic(str(p), 2).period == (2, 1)

    def test_parse_word(self):
        assert io.parse_word("1,2,1") == (1, 2, 1)
        with pytest.raises(io.FamilyFileError):
            io.parse_word("a,b")


def _assert_encodes(record, doc):
    """doc is record after io.to_json and a JSON round trip."""
    if isinstance(record, MatrixFamily):
        record = record.mats
    if dataclasses.is_dataclass(record):
        names = [f.name for f in dataclasses.fields(record)
                 if f.metadata.get("report", True)]
        assert list(doc) == names
        for name in names:
            _assert_encodes(getattr(record, name), doc[name])
    elif isinstance(record, tuple):
        assert isinstance(doc, list) and len(doc) == len(record)
        for item, item_doc in zip(record, doc):
            _assert_encodes(item, item_doc)
    elif isinstance(record, np.ndarray):
        got = np.asarray(doc, dtype=float)
        if np.iscomplexobj(record):
            got = got[..., 0] + 1j * got[..., 1]
        np.testing.assert_array_equal(got, record)
    else:
        assert doc == record


_XI = PeriodicSequence(2, (1, 2))
_UNIFORM = io.parse_markov(data_path("uniform_markov.json"))
RECORDS = {
    "BoundsBracket": lambda fam: bounds_bracket(fam, 6),
    "NormCertificate": lambda fam: certify_finiteness(fam, (1, 2)).certificate,
    "ProbeResult": lambda fam: boundedness_probe(fam.scaled(2.0), 30),
    "FinitenessCertificate": lambda fam: certify_finiteness(fam, (1, 2)),
    "LyapunovEstimate": lambda fam: lyapunov_periodic(fam, _XI),
    "ExtremalityVerdict": lambda fam: extremality_verdict(
        fam, PeriodicMeasure(_XI), 6),
    "PipelineStep": lambda fam: measure_to_finiteness(
        fam, PeriodicMeasure(_XI), _XI).steps[0],
    "MainTheoremReport": lambda fam: measure_to_finiteness(
        fam, PeriodicMeasure(_XI), _XI),
    "CorollaryReport": lambda fam: corollary_reports(fam, _UNIFORM, 6),
    "ReductionResult": lambda fam: block_triangularize(fam),
    "DominanceReport": lambda fam: dominant_blocks(block_triangularize(fam), 6),
}


class TestToJson:
    @pytest.mark.parametrize("kind", RECORDS)
    def test_record_round_trips(self, kind, golden_pair):
        record = RECORDS[kind](golden_pair)
        assert type(record).__name__ == kind
        _assert_encodes(record, json.loads(json.dumps(io.to_json(record))))

    def test_complex_transform_certificate(self):
        cert = euclidean_certificate(2, [[1, 1j], [0, 1]])
        doc = json.loads(json.dumps(io.to_json(cert)))
        assert doc["transform"] == [[[1, 0], [0, 1]], [[0, 0], [1, 0]]]
        assert doc["vertices"] is None

    def test_reduction_leaves_family_out(self, shear):
        result = block_triangularize(shear)
        doc = json.loads(json.dumps(io.to_json(result)))
        assert set(doc) == {"transform", "block_sizes", "blocks", "structure"}
        assert doc["block_sizes"] == [1, 1]
        # every entry is an [re, im] pair, real ones too
        assert doc["transform"] == [[[x.real, x.imag] for x in row]
                                    for row in result.transform]
        assert doc["blocks"] == [[[[[x.real, x.imag] for x in row]
                                   for row in m] for m in block.mats]
                                 for block in result.blocks]

    def test_numpy_scalars_and_tuples(self):
        doc = io.to_json({"a": (np.float64(0.5), np.int64(3), np.bool_(True)),
                          "z": np.complex128(1 - 2j), "inf": -np.inf})
        assert doc == {"a": [0.5, 3, True], "z": [1.0, -2.0], "inf": -np.inf}
        assert [type(x) for x in doc["a"]] == [float, int, bool]


class TestCliBounds:
    def test_golden_pair(self, capsys):
        code = cli.main(["bounds", data_path("golden_pair.json"), "--depth", "10"])
        out = capsys.readouterr().out
        assert code == 0
        assert "config:" in out
        assert f"{PHI:.9f}"[:10] in out

    def test_prune_and_report(self, tmp_path, capsys):
        report = tmp_path / "run.json"
        code = cli.main(["bounds", data_path("golden_pair.json"), "--prune",
                         "--tol", "1e-5", "--out", str(report)])
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["subcommand"] == "bounds"
        assert doc["exit_code"] == 0
        bracket = doc["results"]["bracket"]
        assert bracket["upper"] - bracket["lower"] <= 1e-5 + 1e-12

    def test_table(self, capsys):
        code = cli.main(["bounds", data_path("golden_pair.json"), "--depth",
                         "6", "--table"])
        out = capsys.readouterr().out
        assert code == 0
        assert "lower" in out and "upper" in out

    def test_budget_exhaustion_inconclusive(self, capsys):
        code = cli.main(["bounds", data_path("golden_pair.json"), "--depth",
                         "10", "--budget", "20"])
        assert code == 2

    def test_missing_file_is_error(self, capsys):
        code = cli.main(["bounds", "/nonexistent.json"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestCliFiniteness:
    def test_word(self, capsys):
        code = cli.main(["finiteness", data_path("golden_pair.json"),
                         "--word", "1,2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "certified" in out

    def test_search(self, capsys):
        code = cli.main(["finiteness", data_path("golden_pair.json"), "--search"])
        assert code == 0
        assert "certified" in capsys.readouterr().out

    def test_inconclusive_exit_code(self, capsys):
        code = cli.main(["finiteness", data_path("golden_pair.json"),
                         "--word", "1"])
        assert code == 2


class TestCliReduce:
    def test_shear(self, capsys):
        code = cli.main(["reduce", data_path("shear.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert "sizes [1, 1]" in out


class TestCliNormCheck:
    def test_euclidean_default(self, capsys):
        code = cli.main(["norm-check", data_path("shear.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert "extremal: False" in out

    def test_custom_certificate(self, tmp_path, capsys):
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps({"dim": 2, "kind": "polytope",
                                    "vertices": [[1, 0], [0, 1]]}))
        code = cli.main(["norm-check", data_path("shear.json"),
                         "--certificate", str(cert)])
        assert code == 0


class TestCliErgodic:
    def test_periodic_extremal(self, capsys):
        code = cli.main(["ergodic", data_path("golden_pair.json"),
                         "--periodic", "1,2", "--depth", "10"])
        out = capsys.readouterr().out
        assert code == 0
        assert "extremal" in out

    def test_markov(self, capsys):
        code = cli.main(["ergodic", data_path("golden_pair.json"),
                         "--markov", data_path("uniform_markov.json")])
        assert code == 0
        assert "not-extremal" in capsys.readouterr().out

    def test_undetermined_exit_code(self, capsys):
        code = cli.main(["ergodic", data_path("golden_pair.json"),
                         "--periodic", "1,2", "--depth", "1", "--tol", "1e-9"])
        assert code == 2

    def test_tol_is_the_verdict_tolerance(self, tmp_path, capsys):
        report = tmp_path / "run.json"
        code = cli.main(["ergodic", data_path("golden_pair.json"),
                         "--periodic", "1,2", "--depth", "10", "--tol", "1e-9",
                         "--out", str(report)])
        doc = json.loads(report.read_text())
        assert doc["config"]["tol"] == 1e-9
        assert doc["results"]["verdict"]["tol"] == 1e-9
        assert code == 0 and doc["results"]["verdict"]["verdict"] == "extremal"

    def test_default_tol_is_the_library_default(self, tmp_path, capsys):
        # Monte Carlo keeps its 3 standard errors
        report = tmp_path / "run.json"
        cli.main(["ergodic", data_path("golden_pair.json"),
                  "--markov", data_path("asymmetric_markov.json"),
                  "--mc-samples", "20", "--mc-length", "200",
                  "--out", str(report)])
        verdict = json.loads(report.read_text())["results"]["verdict"]
        assert verdict["tol"] == 3.0 * verdict["lyapunov"]["stderr"] > 0


class TestCliMainTheorem:
    def test_success(self, capsys):
        code = cli.main(["main-theorem", data_path("golden_pair.json"),
                         "--periodic", "1,2", "--xi", "1,2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "success: True" in out

    def test_density_failure(self, capsys):
        code = cli.main(["main-theorem", data_path("golden_pair.json"),
                         "--periodic", "1,2", "--xi", "1"])
        out = capsys.readouterr().out
        assert "FAIL] density-point" in out
        assert "success: False" in out

    def test_inconclusive_certificate_exit_code(self, capsys):
        # the certificate step, not a word in its text, makes the run
        # inconclusive; a definite "no" (the density failure) exits 0
        code = cli.main(["main-theorem", data_path("golden_pair.json"),
                         "--periodic", "1,2", "--xi", "1,2",
                         "--vertex-budget", "1"])
        assert "[FAIL] polytope-certificate" in capsys.readouterr().out
        assert code == 2

    def test_undetermined_extremality_exit_code(self, capsys):
        code = cli.main(["main-theorem", data_path("golden_pair.json"),
                         "--periodic", "1,2", "--xi", "1,2", "--depth", "1"])
        assert "[FAIL] extremality: verdict: undetermined" in \
            capsys.readouterr().out
        assert code == 2


class TestCliCorollaries:
    def test_diagonal_pair(self, tmp_path, capsys):
        fam = write_family(tmp_path, [np.diag([0.5, 0.25]), np.diag([0.25, 0.5])])
        code = cli.main(["corollaries", fam,
                         "--markov", data_path("uniform_markov.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert "scan max" in out


class TestCliSweep:
    def test_rows_and_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "sweep.csv"
        code = cli.main(["sweep", data_path("alpha_family.json"),
                         "--from", "0.6", "--to", "0.7", "--steps", "3",
                         "--depth", "6", "--csv", str(csv_path)])
        out = capsys.readouterr().out
        assert code == 0
        rows = csv_path.read_text().strip().splitlines()
        assert len(rows) == 4  # header + 3 steps
        assert rows[0].startswith("alpha,")
        assert "0.6" in out

    def test_rejects_bad_args(self, capsys):
        code = cli.main(["sweep", data_path("alpha_family.json"),
                         "--from", "0.6", "--to", "0.7", "--steps", "0"])
        assert code == 1


class TestCliTranspose:
    def test_transpose_flag(self, tmp_path, capsys):
        # bounds are transpose-invariant, so both runs agree
        fam = write_family(tmp_path, [[[1, 1], [0, 1]], [[1, 0], [1, 1]]])
        r1 = tmp_path / "r1.json"
        r2 = tmp_path / "r2.json"
        assert cli.main(["bounds", fam, "--depth", "6", "--out", str(r1)]) == 0
        assert cli.main(["bounds", fam, "--depth", "6", "--transpose",
                         "--out", str(r2)]) == 0
        b1 = json.loads(r1.read_text())["results"]["bracket"]
        b2 = json.loads(r2.read_text())["results"]["bracket"]
        assert b1["lower"] == pytest.approx(b2["lower"], rel=1e-12)
        assert b1["upper"] == pytest.approx(b2["upper"], rel=1e-12)


_GOLDEN = data_path("golden_pair.json")
_MARKOV = data_path("uniform_markov.json")
# the arguments each subcommand needs, and the settings it reads
SUBCOMMANDS = {
    "bounds": ([], {"depth", "tol", "budget"}),
    "finiteness": (["--word", "1,2"], {"depth"}),
    "reduce": ([], {"depth", "budget", "seed"}),
    "norm-check": ([], {"depth", "budget"}),
    "ergodic": (["--periodic", "1,2"], {"depth", "tol", "budget", "seed"}),
    "main-theorem": (["--periodic", "1,2", "--xi", "1,2"], {"depth", "budget"}),
    "corollaries": (["--markov", _MARKOV], {"depth", "budget"}),
    "sweep": (["--from", "0.6", "--to", "0.7", "--steps", "2"],
              {"depth", "budget"}),
}


class TestCliFlags:
    @pytest.mark.parametrize("sub,flag", [
        (sub, flag) for sub, (_, read) in SUBCOMMANDS.items()
        for flag in ("depth", "tol", "budget", "seed") if flag not in read])
    def test_unread_flag_rejected(self, sub, flag, capsys):
        args, _ = SUBCOMMANDS[sub]
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args([sub, _GOLDEN, *args, f"--{flag}", "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: --{flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("sub", SUBCOMMANDS)
    def test_config_lists_the_read_flags(self, sub, tmp_path, capsys):
        args, read = SUBCOMMANDS[sub]
        report = tmp_path / "run.json"
        cli.main([sub, _GOLDEN, *args, "--depth", "4", "--out", str(report)])
        doc = json.loads(report.read_text())
        assert set(doc["config"]) == read | {"transpose", "version"}
        assert ("seed" in doc) == ("seed" in read)
        line = capsys.readouterr().out.splitlines()[0]
        assert line.startswith("config: depth=4 ")
        assert {kv.split("=")[0] for kv in line.split()[1:]} == set(doc["config"])
