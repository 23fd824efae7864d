import dataclasses
import json
from importlib import resources

import numpy as np
import pytest

from jsrkit import (MatrixFamily, PeriodicMeasure, PeriodicSequence,
                    block_triangularize, bounds_bracket, certify_finiteness,
                    _kernels, check_extremal_norm, cli, corollary_reports,
                    dominant_blocks, euclidean_certificate, extremal_subspace,
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
        for name in ("golden_pair.json", "shear.json", "alpha_family.json",
                     "complex_pair.json"):
            fam = io.parse_family(data_path(name))
            assert fam.dim == 2
            assert fam.is_real == (name != "complex_pair.json")

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

    @pytest.mark.parametrize("matrices, message", [
        ([[[1, 0], [0, 1]], [[1]]], r"share one dimension, got \[1, 2\]"),
        ([[[1]], [[float("nan")]]], "matrix 2 has NaN/inf"),
        ([[[1]], [[[0, float("inf")]]]], "matrix 2 has NaN/inf"),
        ([[]], "at least 1x1"),
    ])
    def test_family_diagnostics(self, matrices, message):
        with pytest.raises(io.FamilyFileError, match=message):
            io.family_from_dict({"schema_version": "1", "matrices": matrices})

    @pytest.mark.parametrize("entry, dtype", [(2, np.float64),
                                              ([2, 0], np.float64),
                                              ([2, -0.0], np.float64),
                                              ([2, 1e-18], np.complex128)])
    def test_stored_dtype(self, entry, dtype):
        # the file's family is stored by the one realness rule
        fam = io.family_from_dict({"schema_version": "1",
                                   "matrices": [[[1, entry], [0, 1]]]})
        assert fam.mats.dtype == dtype
        assert fam.mats[0, 0, 1] == complex(*np.atleast_1d(entry))


def entrywise(doc):
    """The family of the entry-by-entry decode, the reference for the
    one-call path."""
    return MatrixFamily(io._entrywise_stack(doc["matrices"], doc.get("dim"),
                                            "<dict>"))


# documents the one-call path takes
UNIFORM_DOCS = {
    "floats": [[[0.1, -2.5], [1e-300, 3.0]], [[-0.0, 1e300], [2.0, 0.5]]],
    "ints": [[[1, -2], [3, 4]], [[0, 7], [-5, 0]]],
    "bools": [[[True, False], [False, True]]],
    "bools-ints-floats": [[[True, 2], [0.5, -1]]],
    "ints-above-2**53": [[[2 ** 53 + 1, -(2 ** 60) - 3], [2 ** 62 + 1, 1]]],
    "ints-above-2**63": [[[2 ** 63 + 1025, 2 ** 64 - 1], [1, 0]]],
    "ints-above-2**63-signed": [[[2 ** 63 + 1025, -1], [2 ** 53 + 3, 0]]],
    "pairs": [[[[1, 0.5], [-0.0, 0]], [[2 ** 53 + 1, -1], [0.25, -0.0]]],
              [[[0, 1], [3, 0]], [[True, 0], [-2, 1e-310]]]],
    "real-pairs": [[[[1, 0], [2, 0]], [[3, 0], [-0.0, 0]]]],
    "1x1": [[[2.5]], [[-1]]],
    "1x1-pair": [[[[0, 1]]]],
}


class TestFamilyDecode:
    @pytest.mark.parametrize("name", sorted(UNIFORM_DOCS))
    def test_one_call_path_is_the_entrywise_family(self, name):
        doc = {"schema_version": "1", "matrices": UNIFORM_DOCS[name]}
        assert io._uniform_stack(doc["matrices"], None) is not None
        got, want = io.family_from_dict(doc), entrywise(doc)
        assert got.mats.dtype == want.mats.dtype
        assert got.mats.shape == want.mats.shape
        assert got.mats.tobytes() == want.mats.tobytes()

    def test_mixed_entries_decode_entry_by_entry(self):
        doc = {"schema_version": "1", "dim": 2,
               "matrices": [[[1, [0, 1]], [0.5, 2]], [[[2, 0], 0], [0, 1]]]}
        assert io._uniform_stack(doc["matrices"], 2) is None
        fam = io.family_from_dict(doc)
        assert fam.mats.tolist() == [[[1, 1j], [0.5, 2]], [[2, 0], [0, 1]]]
        assert io.parse_family(data_path("mixed_entries.json")).dim == 3

    @pytest.mark.parametrize("text, message", [
        ('[[[1, "2"], [0, 1]]]',
         "<dict>: matrix 1 row 1 col 2: entry must be a number or a "
         "[re, im] pair, got '2'"),
        ('[[[1, [1, 2, 3]], [0, 1]]]',
         "<dict>: matrix 1 row 1 col 2: entry must be a number or a "
         "[re, im] pair, got [1, 2, 3]"),
        ('[[[1, 0], [0, 1]], [[NaN, 0], [0, 1]]]',
         "<dict>: matrix 2 has NaN/inf entries"),
        ('[[[1, Infinity], [0, 1]]]', "<dict>: matrix 1 has NaN/inf entries"),
        ('[[[[0, -Infinity], 0], [0, 1]]]', "<dict>: matrix 1 has NaN/inf entries"),
        ('[[[1, 2], [3]]]', "<dict>: matrix 1 row 2 has length 1, expected 2"),
        ('[[[1, 2, 3], [4, 5, 6]]]', "<dict>: matrix 1 row 1 has length 3, expected 2"),
        ('[[[1, 2], 3]]', "<dict>: matrix 1 row 2 has length n/a, expected 2"),
        ('[[[1, 0], [0, 1]], [[1]]]',
         "<dict>: all members must share one dimension, got [1, 2]"),
    ])
    def test_diagnostics_word_for_word(self, text, message):
        doc = {"schema_version": "1", "matrices": json.loads(text)}
        with pytest.raises(io.FamilyFileError) as exc:
            io.family_from_dict(doc)
        assert str(exc.value) == message

    @pytest.mark.parametrize("matrices, where", [
        ([[[10 ** 400]]], "row 1 col 1"),
        ([[[1, 0.5], [10 ** 400, [0, 1]]]], "row 2 col 1"),
        ([[[[0, -(10 ** 400)]]]], "row 1 col 1"),
        ([[[1, [2, 0]], [0, [10 ** 400, 0]]]], "row 2 col 2"),
    ], ids=["number", "number-mixed", "pair", "pair-mixed"])
    def test_integer_beyond_float_range(self, matrices, where):
        doc = {"schema_version": "1", "matrices": matrices}
        with pytest.raises(io.FamilyFileError) as exc:
            io.family_from_dict(doc)
        assert str(exc.value) == (f"<dict>: matrix 1 {where}: integer entry "
                                  "is beyond the float range")

    def test_wrong_dim_word_for_word(self):
        doc = {"schema_version": "1", "dim": 3, "matrices": [[[1, 0], [0, 1]]]}
        with pytest.raises(io.FamilyFileError) as exc:
            io.family_from_dict(doc)
        assert str(exc.value) == "<dict>: matrix 1 has 2 rows, expected dim 3"


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
    "ExtremalSubspace": lambda fam: extremal_subspace(fam, 6),
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
        assert set(doc) == {"transform", "block_sizes", "blocks", "structure",
                            "closures"}
        assert doc["block_sizes"] == [1, 1]
        # a real family reduces in float64: its report holds plain numbers
        assert doc["transform"] == result.transform.tolist()
        assert doc["blocks"] == [block.mats.tolist() for block in result.blocks]
        assert all(type(x) is float for row in doc["transform"] for x in row)

    def test_complex_reduction_gives_pairs(self):
        result = block_triangularize(
            MatrixFamily.from_matrices([[[1j, 1], [0, 2j]]]))
        assert result.block_sizes == (1, 1)
        doc = json.loads(json.dumps(io.to_json(result)))
        # every entry of a complex array is an [re, im] pair, real ones too
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

    def test_prune_keeps_to_the_depth(self, tmp_path, capsys):
        # the pruned search of mixed_entries.json runs to depth 64 unless
        # --depth stops it: the report's config and its search agree
        report = tmp_path / "run.json"
        code = cli.main(["bounds", data_path("mixed_entries.json"), "--depth",
                         "3", "--prune", "--tol", "1e-9", "--out",
                         str(report)])
        assert code == 2
        assert "config: depth=3 " in capsys.readouterr().out
        doc = json.loads(report.read_text())
        assert doc["config"]["depth"] == 3
        assert doc["results"]["bracket"]["depth_explored"] <= 3

    def test_table(self, capsys):
        code = cli.main(["bounds", data_path("golden_pair.json"), "--depth",
                         "6", "--table"])
        out = capsys.readouterr().out
        assert code == 0
        assert "lower" in out and "upper" in out

    def test_closed_table_takes_one_scan(self, tmp_path, capsys, monkeypatch):
        # the golden pair's bracket closes at depth 2: the bracket and its
        # table come from one scan, and the table ends where it closed
        scans = []
        scan_words = _kernels.scan_words
        monkeypatch.setattr(_kernels, "scan_words",
                            lambda *a, **k: scans.append(a[1]) or scan_words(*a, **k))
        report = tmp_path / "run.json"
        code = cli.main(["bounds", data_path("golden_pair.json"), "--depth",
                         "10", "--table", "--out", str(report)])
        out = capsys.readouterr().out
        assert code == 0 and scans == [10]
        assert "closed at depth 2" in out
        rows = json.loads(report.read_text())["results"]["berger_wang"]
        assert [r["n"] for r in rows] == [1, 2]
        assert rows[-1]["lower"] == pytest.approx(PHI, rel=1e-12)
        assert rows[-1]["upper"] == pytest.approx(PHI, rel=1e-12)

    def test_open_bracket_is_not_closed(self, capsys):
        code = cli.main(["bounds", data_path("mixed_entries.json"), "--depth", "6"])
        assert code == 0 and "closed" not in capsys.readouterr().out

    def test_budget_exhaustion_inconclusive(self, capsys):
        code = cli.main(["bounds", data_path("mixed_entries.json"), "--depth",
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
        # the depth-8 bracket's witness is (1, 2), at the golden ratio
        code = cli.main(["finiteness", data_path("golden_pair.json"), "--search"])
        out = capsys.readouterr().out
        assert code == 0
        assert "word    1,2\n" in out and "verdict certified" in out

    def test_inconclusive_exit_code(self, capsys):
        code = cli.main(["finiteness", data_path("golden_pair.json"),
                         "--word", "1"])
        assert code == 2

    def test_huge_entries(self, capsys):
        # the golden pair times 1e170: its raw word products overflow
        code = cli.main(["finiteness", data_path("golden_huge.json"),
                         "--word", "1,2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "value   1.61803398875e+170\n" in out
        assert "verdict certified" in out


class TestCliReduce:
    def test_shear(self, capsys):
        code = cli.main(["reduce", data_path("shear.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert "sizes [1, 1]" in out


    def test_three_blocks(self, tmp_path, capsys):
        # the (1, 2, 2) layout: the orbit test splits it and proves every
        # block irreducible, so no closure runs
        out = tmp_path / "three_blocks.json"
        code = cli.main(["reduce", data_path("three_blocks.json"), "--out", str(out)])
        assert code == 0
        assert "sizes [1, 2, 2]" in capsys.readouterr().out
        report = json.loads(out.read_text())
        assert report["results"]["reduction"]["block_sizes"] == [1, 2, 2]
        assert report["results"]["reduction"]["closures"] == 0

    def test_complex_type_blocks(self, tmp_path, capsys):
        # two isomorphic blocks of complex type: the closure of the whole
        # family finds the split, and the orbit test proves both blocks
        out = tmp_path / "complex_type_blocks.json"
        code = cli.main(["reduce", data_path("complex_type_blocks.json"),
                         "--out", str(out)])
        assert code == 0
        assert "sizes [4, 4]" in capsys.readouterr().out
        reduction = json.loads(out.read_text())["results"]["reduction"]
        assert reduction["block_sizes"] == [4, 4]
        assert reduction["closures"] == 1


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

    def _read_back(self, tmp_path, cert, family):
        """norm-check's results on the certificate as to_json wrote it."""
        path, report = tmp_path / "cert.json", tmp_path / "run.json"
        path.write_text(json.dumps(io.to_json(cert)))
        code = cli.main(["norm-check", data_path(family), "--certificate",
                         str(path), "--out", str(report)])
        assert code == 0
        back = io.certificate_from_json(json.loads(path.read_text()))
        assert io.to_json(back) == io.to_json(cert)
        return json.loads(report.read_text())["results"]

    def test_complex_transform_certificate_reads_back(self, tmp_path,
                                                      golden_pair):
        cert = euclidean_certificate(2, [[1, 1j], [0, 1]])
        results = self._read_back(tmp_path, cert, "golden_pair.json")
        lower = results["bracket"]["lower"]
        _, gap, attained = check_extremal_norm(golden_pair, cert, lower)
        assert results["attained"] == pytest.approx(attained, rel=1e-12)
        assert results["gap"] == pytest.approx(gap, abs=1e-12)

    def test_polytope_certificate_reads_back(self, tmp_path, golden_pair):
        cert = certify_finiteness(golden_pair, (1, 2)).certificate
        results = self._read_back(tmp_path, cert, "golden_pair.json")
        assert results["extremal"] is True
        assert results["attained"] == pytest.approx(PHI, rel=1e-12)


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

    def test_huge_entries(self, capsys):
        code = cli.main(["main-theorem", data_path("golden_huge.json"),
                         "--periodic", "1,2", "--xi", "1,2"])
        assert code == 0
        assert "success: True" in capsys.readouterr().out

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

    def test_orbit_measure_certifies_the_witness(self, capsys):
        # the measure on the orbit of 1, 2 is extremal for the golden pair,
        # so the command reaches the certification of the word 1, 2
        code = cli.main(["corollaries", data_path("golden_pair.json"),
                         "--markov", data_path("orbit12_markov.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert "extremality: extremal" in out
        assert "finiteness: certified via word 1,2" in out


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
