import csv
import errno
import json
import math
import os
import re
import signal

import numpy as np
import pytest

from pcout import dataio
from pcout.baselines import sign2_detect
from pcout.cli import EXIT_CONFIG, EXIT_INPUT, EXIT_NUMERIC, EXIT_OK, main
from pcout.dataio import (
    DataMatrix,
    InputDataError,
    detection_result_document,
    load_csv,
    weight_report_document,
)
from pcout.evalsim import SimSpec, generate_contaminated
from pcout.prcmpout import detect


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


@pytest.fixture
def normal_csv(tmp_path):
    X, _ = generate_contaminated(SimSpec(n=60, p=6, seed=9))
    X[:4] += 5.0
    path = tmp_path / "data.csv"
    _write_csv(path, [f"c{j}" for j in range(6)], X.tolist())
    return path


class TestLoadCsv:
    def test_plain_numeric_matrix(self, tmp_path):
        path = tmp_path / "m.csv"
        _write_csv(path, ["a", "b"], [[1, 2], [3, 4], [5, 6]])
        dm = load_csv(path)
        assert dm.values.shape == (3, 2)
        assert dm.column_names == ("a", "b")
        assert dm.row_ids == ("1", "2", "3")

    def test_id_column_detected(self, tmp_path):
        path = tmp_path / "m.csv"
        _write_csv(path, ["compound", "a", "b"], [["mol-1", 1, 2], ["mol-2", 3, 4]])
        dm = load_csv(path)
        assert dm.row_ids == ("mol-1", "mol-2")
        assert dm.column_names == ("a", "b")
        assert dm.values.shape == (2, 2)

    def test_scientific_notation_accepted(self, tmp_path):
        path = tmp_path / "m.csv"
        _write_csv(path, ["a"], [["1e3"], ["-2.5E-2"]])
        assert load_csv(path).values[:, 0] == pytest.approx([1000.0, -0.025])

    def test_na_cell_names_the_location(self, tmp_path):
        path = tmp_path / "m.csv"
        _write_csv(path, ["a", "b"], [[1, 2], [3, "NA"]])
        with pytest.raises(InputDataError, match=r"row 3.*'b'"):
            load_csv(path)

    def test_nan_token_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        _write_csv(path, ["a", "b"], [[1, 2], [3, "nan"]])
        with pytest.raises(InputDataError):
            load_csv(path)

    def test_ragged_row_errors(self, tmp_path):
        path = tmp_path / "m.csv"
        with open(path, "w") as fh:
            fh.write("a,b\n1,2\n3\n")
        with pytest.raises(InputDataError, match="row 3"):
            load_csv(path)

    def test_header_only_errors(self, tmp_path):
        path = tmp_path / "m.csv"
        with open(path, "w") as fh:
            fh.write("a,b\n")
        with pytest.raises(InputDataError, match="no data rows"):
            load_csv(path)

    def test_missing_file_errors(self, tmp_path):
        with pytest.raises(InputDataError):
            load_csv(tmp_path / "absent.csv")

    def test_a_ragged_row_anywhere_wins_over_a_bad_cell(self, tmp_path):
        path = tmp_path / "m.csv"
        with open(path, "w") as fh:
            fh.write("a,b\n1,x\n" + "1,2\n" * 6 + "3\n")
        with pytest.raises(InputDataError, match="row 9 has 1 fields"):
            load_csv(path)

    def test_the_first_bad_cell_is_named_whether_non_finite_or_non_numeric(self, tmp_path):
        path = tmp_path / "m.csv"
        _write_csv(path, ["a", "b"], [[1, 2], [1, "inf"], [1, 2], [1, "NA"]])
        with pytest.raises(InputDataError, match=r"'inf' at row 3, column 'b'"):
            load_csv(path)

    def test_a_non_numeric_first_cell_in_the_last_row_makes_an_id_column(self, tmp_path):
        path = tmp_path / "m.csv"
        _write_csv(path, ["a", "b"], [[1, 2], [3, 4], ["z", 5]])
        dm = load_csv(path)
        assert dm.row_ids == ("1", "3", "z")
        assert dm.column_names == ("b",)
        assert dm.values[:, 0].tolist() == [2.0, 4.0, 5.0]

    def test_a_lone_column_is_data_not_ids(self, tmp_path):
        path = tmp_path / "m.csv"
        _write_csv(path, ["a"], [[1], ["x"], [2]])
        with pytest.raises(InputDataError, match=r"non-numeric value 'x' at row 3, column 'a'"):
            load_csv(path)

    @pytest.mark.parametrize(
        "token",
        [
            "1_000", " 1.5 ", "\xa02\xa0", "nan", "NaN", "+nan", "iNf", "Infinity", "1e400",
            "1.5e-400", "-0", "１２３", "١٢٣", "0x10", "1e", "", "1__0", "_1", "1,5",
        ],
    )
    def test_cells_parse_as_float_does(self, tmp_path, token):
        path = tmp_path / "m.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows([["a", "b"], ["1", token]])
        try:
            expected = float(token)
        except ValueError:
            expected = None
        if expected is None or not math.isfinite(expected):
            with pytest.raises(InputDataError, match=rf"value {re.escape(repr(token))} at row 2"):
                load_csv(path)
            return
        got = load_csv(path).values[0, 1]
        assert np.array(got).view(np.int64) == np.array(expected).view(np.int64)

    @pytest.mark.parametrize(
        "content",
        [b"a,b\n1,2\n3,\xff\n", b"a,b\n1," + b"1" * 140_000 + b"\n"],
        ids=["undecodable", "field-over-the-csv-limit"],
    )
    def test_unreadable_csv_is_an_input_error(self, tmp_path, capsys, content):
        path = tmp_path / "m.csv"
        path.write_bytes(content)
        assert main(["detect", "--input", str(path), "--method", "prcmpout"]) == EXIT_INPUT
        assert f"cannot read {path}" in capsys.readouterr().err

    @staticmethod
    def _force_ranges(monkeypatch, cores):
        """Lift the size floor and claim ``cores`` cores, so that load_csv cuts
        any unquoted file with line breaks in its body; returns a list that
        grows by one per fork."""
        made, real_fork = [], os.fork

        def fork():
            made.append(1)
            return real_fork()

        monkeypatch.setattr(dataio, "_PARALLEL_FLOOR", 0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
        monkeypatch.setattr(os, "fork", fork)
        return made

    @staticmethod
    def _rows(n, seed=4):
        rng = np.random.default_rng(seed)
        return [[repr(float(v)) for v in row] for row in rng.standard_normal((n, 4)) * 1e3]

    @pytest.mark.parametrize(
        "ids, newline",
        [(True, "\n"), (False, "\r\n"), (False, "\n"), ("last", "\n")],
        ids=["id-column", "crlf", "lone-cr", "id-in-the-last-range"],
    )
    def test_ranges_join_to_the_one_range_parse(self, tmp_path, monkeypatch, ids, newline):
        rows = self._rows(30)
        if ids is True:
            rows = [[f"mol-{i}", *row[1:]] for i, row in enumerate(rows)]
        if ids == "last":
            rows[-1][0] = "z"
        lines = [",".join(f"c{j}" for j in range(4))] + [",".join(row) for row in rows]
        ends = [newline] * len(lines)
        if newline == "\n":  # lone "\r" line ends inside the ranges
            ends[3] = ends[17] = ends[25] = "\r"
        path = tmp_path / "m.csv"
        path.write_bytes("".join(line + end for line, end in zip(lines, ends)).encode())
        expected = load_csv(path)
        made = self._force_ranges(monkeypatch, 3)
        got = load_csv(path)
        assert len(made) == 2
        assert (got.values.view(np.int64) == expected.values.view(np.int64)).all()
        assert got.values.shape == expected.values.shape == (30, 4 - (ids is not False))
        assert got.row_ids == expected.row_ids
        assert got.column_names == expected.column_names

    def _two_ranges(self, tmp_path, monkeypatch, edits):
        # 20 rows of about equal length: the cut falls between file rows 11
        # and 14, whatever the edits; returns the file and the fork count
        made = self._force_ranges(monkeypatch, 2)
        rows = [["1.25", "2.5"] for _ in range(20)]
        for (i, j), token in edits.items():
            rows[i - 2][j] = token
        path = tmp_path / "m.csv"
        path.write_text("a,b\n" + "".join(",".join(row) + "\n" for row in rows))
        return path, made

    def test_a_ragged_row_in_range_2_beats_a_bad_cell_in_range_1(self, tmp_path, monkeypatch):
        path, made = self._two_ranges(tmp_path, monkeypatch, {(3, 1): "x"})
        with open(path, "a") as fh:
            fh.write("3\n" + "1.25,2.5\n" * 3)
        with pytest.raises(InputDataError, match=r"row 22 has 1 fields, header has 2"):
            load_csv(path)
        assert len(made) == 1

    @pytest.mark.parametrize(
        "edits, named",
        [({(3, 1): "x", (19, 1): "NA"}, "'x' at row 3, column 'b'"),
         ({(19, 1): "NA", (20, 1): "inf"}, "'NA' at row 19, column 'b'")],
        ids=["both-ranges", "range-2-only"],
    )
    def test_the_first_bad_cell_in_file_order_is_named(self, tmp_path, monkeypatch, edits, named):
        path, made = self._two_ranges(tmp_path, monkeypatch, edits)
        with pytest.raises(InputDataError, match=re.escape(f"non-numeric value {named}")):
            load_csv(path)
        assert len(made) == 1

    def test_an_undecodable_byte_in_range_2_exits_2(self, tmp_path, monkeypatch, capsys):
        path, made = self._two_ranges(tmp_path, monkeypatch, {})
        path.write_bytes(path.read_bytes()[:-4] + b"\xff\n")
        assert main(["detect", "--input", str(path), "--method", "prcmpout"]) == EXIT_INPUT
        assert "cannot read" in capsys.readouterr().err
        assert len(made) == 1

    @pytest.mark.parametrize("quoted", [True, False], ids=["quoted", "below-the-floor"])
    def test_one_range_files_never_fork(self, tmp_path, monkeypatch, quoted):
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        monkeypatch.setattr(os, "fork", no_fork)
        if quoted:
            monkeypatch.setattr(dataio, "_PARALLEL_FLOOR", 0)
        rows = [['"1.5"' if quoted and i == 5 else "1.5", "2"] for i in range(20)]
        path = tmp_path / "m.csv"
        path.write_text("a,b\n" + "".join(",".join(row) + "\n" for row in rows))
        assert load_csv(path).values.shape == (20, 2)

    def test_a_child_that_dies_raises_and_is_reaped(self, tmp_path, monkeypatch):
        parent, parse = os.getpid(), dataio._parse_rows

        def dying_parse(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return parse(*args)

        def timeout(signum, frame):
            raise TimeoutError("load_csv hung on a dead child")

        path, _ = self._two_ranges(tmp_path, monkeypatch, {})
        monkeypatch.setattr(dataio, "_parse_rows", dying_parse)
        previous = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(30)
        try:
            with pytest.raises(ChildProcessError, match="did not finish"):
                load_csv(path)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        with pytest.raises(ChildProcessError):  # no child left, not even a zombie
            os.waitpid(-1, os.WNOHANG)


class TestReportDocuments:
    @pytest.mark.parametrize(
        "build, run",
        [(weight_report_document, detect), (detection_result_document, lambda X: sign2_detect(X, 0.05))],
        ids=["prcmpout", "sign2"],
    )
    def test_one_row_id_short_raises(self, build, run):
        X, _ = generate_contaminated(SimSpec(n=30, p=4, seed=5))
        dm = DataMatrix(X, tuple(str(i + 1) for i in range(29)), ("a", "b", "c", "d"))
        with pytest.raises(ValueError):
            build(dm, run(X), {})


class TestDetectCommand:
    def test_prcmpout_json_report(self, normal_csv, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            ["detect", "--input", str(normal_csv), "--method", "prcmpout", "--output", str(out)]
        )
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        header = doc["header"]
        assert header["method"] == "prcmpout"
        assert header["n"] == 60 and header["p"] == 6
        assert 1 <= header["p_star"] <= 6
        # config echo carries every tuning constant, so the run is repeatable
        for key in (
            "variance_threshold",
            "scale_const_s",
            "outlier_cut",
            "stage1_full_weight_fraction",
            "stage1_c_mad_multiplier",
            "stage2_m_quantile",
            "stage2_c_quantile",
        ):
            assert key in header["config"]
        assert len(doc["records"]) == 60
        first = doc["records"][0]
        assert set(first) == {
            "row_id", "w1", "w2", "w_final", "stage1_distance", "stage2_distance", "flag",
        }
        assert [rec["row_id"] for rec in doc["records"]] == [str(i) for i in range(1, 61)]
        err = capsys.readouterr().err
        assert "flagged" in err

    def test_reports_are_byte_identical_across_runs(self, normal_csv, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for out in (out1, out2):
            assert main(
                ["detect", "--input", str(normal_csv), "--method", "prcmpout", "--output", str(out)]
            ) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_csv_and_json_reports_hold_identical_values(self, normal_csv, tmp_path):
        j, c = tmp_path / "r.json", tmp_path / "r.csv"
        main(["detect", "--input", str(normal_csv), "--method", "prcmpout", "--output", str(j)])
        main(
            ["detect", "--input", str(normal_csv), "--method", "prcmpout",
             "--format", "csv", "--output", str(c)]
        )
        records = json.loads(j.read_text())["records"]
        with open(c) as fh:
            csv_rows = list(csv.DictReader(fh))
        assert len(csv_rows) == len(records)
        for rec, row in zip(records, csv_rows):
            assert float(row["w_final"]) == rec["w_final"]
            assert float(row["stage1_distance"]) == rec["stage1_distance"]
            assert (row["flag"] == "true") == rec["flag"]

    def test_classical_run_carries_the_cutoff(self, normal_csv, tmp_path):
        out = tmp_path / "r.json"
        code = main(
            ["detect", "--input", str(normal_csv), "--method", "classical",
             "--alpha", "0.05", "--output", str(out)]
        )
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["header"]["cutoff"] > 0
        assert set(doc["records"][0]) == {"row_id", "distance", "cutoff", "flag"}

    def test_classical_on_wide_data_exits_3_and_recommends_prcmpout(self, tmp_path, capsys):
        X, _ = generate_contaminated(SimSpec(n=5, p=8, seed=1))
        path = tmp_path / "wide.csv"
        _write_csv(path, [f"c{j}" for j in range(8)], X.tolist())
        code = main(["detect", "--input", str(path), "--method", "classical", "--alpha", "0.05"])
        assert code == EXIT_NUMERIC
        assert "prcmpout" in capsys.readouterr().err

    def test_alpha_with_prcmpout_is_a_config_error(self, normal_csv, capsys):
        code = main(
            ["detect", "--input", str(normal_csv), "--method", "prcmpout", "--alpha", "0.05"]
        )
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize(
        "flag",
        [
            "variance-threshold",
            "scale-const-s",
            "outlier-cut",
            "stage1-full-weight-fraction",
            "stage1-c-mad-multiplier",
            "stage2-m-quantile",
            "stage2-c-quantile",
            "beta",
        ],
    )
    def test_tuning_flags_do_not_exist(self, normal_csv, flag, capsys):
        # every method runs at its published constants, which the header echoes
        method = "ogk" if flag == "beta" else "prcmpout"
        code = main(["detect", "--input", str(normal_csv), "--method", method, f"--{flag}", "0.5"])
        assert code == EXIT_CONFIG
        assert f"unrecognized arguments: --{flag} 0.5" in capsys.readouterr().err

    def test_detector_override_with_classical_is_a_config_error(self, normal_csv):
        code = main(
            ["detect", "--input", str(normal_csv), "--method", "classical",
             "--alpha", "0.05", "--outlier-cut", "0.3"]
        )
        assert code == EXIT_CONFIG

    def test_missing_input_exits_2(self, tmp_path):
        code = main(["detect", "--input", str(tmp_path / "nope.csv"), "--method", "prcmpout"])
        assert code == EXIT_INPUT

    def test_duplicated_rows_name_the_cause_of_zero_mad(self, tmp_path, capsys):
        X, _ = generate_contaminated(SimSpec(n=50, p=4, seed=3))
        X[:30] = X[0]  # 30 copies of one row: every column's median value is that row's
        path = tmp_path / "dup.csv"
        _write_csv(path, [f"c{j}" for j in range(4)], X.tolist())
        assert main(["detect", "--input", str(path), "--method", "prcmpout"]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "sphering failed: all columns have zero MAD; nothing to analyze" in err
        assert "at least half its values are equal, for example duplicated rows" in err

    def test_alpha_out_of_range_is_a_config_error(self, normal_csv):
        code = main(
            ["detect", "--input", str(normal_csv), "--method", "classical", "--alpha", "1.5"]
        )
        assert code == EXIT_CONFIG


class TestPlotData:
    def test_weight_panels_schema(self, normal_csv, tmp_path):
        report = tmp_path / "r.json"
        main(["detect", "--input", str(normal_csv), "--method", "prcmpout", "--output", str(report)])
        out = tmp_path / "panels.csv"
        code = main(["plotdata", "--report", str(report), "--kind", "weight_panels",
                     "--output", str(out)])
        assert code == EXIT_OK
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        panels = {row["panel"] for row in rows}
        assert panels == {
            "stage1_distance", "stage1_weight", "stage2_distance",
            "stage2_weight", "combined_weight", "flag01",
        }
        for panel in panels:
            data_rows = [r for r in rows if r["panel"] == panel and int(r["x"]) >= 1]
            assert len(data_rows) == 60
        boundaries = [r for r in rows if r["flag"] == "boundary"]
        assert len(boundaries) == 5  # M1, c1, M2, c2 and the 0.25 cut

    def test_distance_index_schema(self, normal_csv, tmp_path):
        report = tmp_path / "r.json"
        main(["detect", "--input", str(normal_csv), "--method", "sign2",
              "--alpha", "0.05", "--output", str(report)])
        out = tmp_path / "dist.csv"
        assert main(["plotdata", "--report", str(report), "--kind", "distance_index",
                     "--output", str(out)]) == EXIT_OK
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len([r for r in rows if r["flag"] != "boundary"]) == 60
        boundary = [r for r in rows if r["flag"] == "boundary"]
        assert len(boundary) == 1
        assert float(boundary[0]["y"]) == json.loads(report.read_text())["header"]["cutoff"]

    def test_kind_mismatch_exits_2(self, normal_csv, tmp_path):
        report = tmp_path / "r.json"
        main(["detect", "--input", str(normal_csv), "--method", "prcmpout", "--output", str(report)])
        code = main(["plotdata", "--report", str(report), "--kind", "sweep_curves"])
        assert code == EXIT_INPUT


class TestSweepCommand:
    def test_csv_output_with_the_documented_header(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--method", "prcmpout", "--p-values", "5,10", "--replications", "2",
             "--n", "40", "--outlier-indices", "1,2,3,4", "--shift", "4.0",
             "--seed", "3", "--output", str(out)]
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "p,alpha,detector,mean_fn,mean_fp,replications,seed"
        assert len(lines) == 3
        assert "mean FN" in capsys.readouterr().err

    def test_sweep_is_deterministic(self, tmp_path):
        args = ["sweep", "--method", "prcmpout", "--p-values", "5", "--replications", "2",
                "--n", "30", "--outlier-indices", "1,2", "--shift", "5.0", "--seed", "8"]
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        main(args + ["--output", str(out1)])
        main(args + ["--output", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_sweep_feeds_sweep_curves(self, tmp_path):
        sweep_json = tmp_path / "sweep.json"
        main(["sweep", "--method", "prcmpout", "--p-values", "5,10", "--replications", "2",
              "--n", "40", "--outlier-indices", "1,2,3", "--shift", "5.0",
              "--format", "json", "--output", str(sweep_json)])
        doc = json.loads(sweep_json.read_text())
        assert doc["spec"]["n"] == 40
        out = tmp_path / "curves.csv"
        assert main(["plotdata", "--report", str(sweep_json), "--kind", "sweep_curves",
                     "--output", str(out)]) == EXIT_OK
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert {(r["panel"], r["x"]) for r in rows} == {
            ("fn", "5"), ("fp", "5"), ("fn", "10"), ("fp", "10"),
        }

    def test_failed_replications_are_counted_on_stderr(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--method", "classical", "--p-values", "10,150",
                     "--replications", "3", "--output", str(out)])
        assert code == EXIT_OK
        assert out.read_text().splitlines()[2] == "150,0.05,classical,,,3,42"
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("p=10: mean FN ") and "failed" not in err[0]
        assert err[1] == (
            "p=150: mean FN n/a, mean FP n/a; 3 of 3 replications failed, first: p=150 rep=0: "
            "classical detection needs n > p (got n=100, p=150); "
            "use the prcmpout method, which handles wide matrices"
        )

    def test_alpha_with_prcmpout_rejected(self):
        assert main(["sweep", "--method", "prcmpout", "--alpha", "0.05"]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "flags",
        [
            ["--method", "ogk", "--alpha", "2"],
            ["--replications", "0"],
            ["--shift", "nan"],
            ["--shift", "inf"],
            ["--scatter-factor", "nan"],
            ["--scatter-factor", "inf"],
        ],
    )
    def test_bad_alpha_or_replications_is_a_config_error(self, flags, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", *flags, "--p-values", "10", "--output", str(out)]) == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_p_values_rejected(self):
        assert main(["sweep", "--p-values", "ten"]) == EXIT_CONFIG
        assert main(["sweep", "--p-values", "0,10"]) == EXIT_CONFIG


class TestBenchCommand:
    def test_reports_positive_medians(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = main(["bench", "--methods", "prcmpout,sign2", "--n", "40", "--p", "12",
                     "--repeats", "3", "--output", str(out)])
        assert code == EXIT_OK
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["detector"] for r in rows] == ["prcmpout", "sign2"]
        assert all(float(r["median_seconds"]) > 0 for r in rows)

    def test_a_failing_detector_is_recorded(self, tmp_path, capsys):
        out_csv, out_json = tmp_path / "bench.csv", tmp_path / "bench.json"
        for fmt, out in (("csv", out_csv), ("json", out_json)):
            assert main(["bench", "--methods", "prcmpout,classical", "--n", "40", "--p", "60",
                         "--repeats", "3", "--format", fmt, "--output", str(out)]) == EXIT_OK
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "detector,median_seconds,repeats"
        assert float(lines[1].split(",")[1]) > 0
        assert lines[2] == "classical,,3"
        rows = json.loads(out_json.read_text())["rows"]
        assert rows[0]["failures"] == []
        assert rows[1]["median_seconds"] is None
        assert rows[1]["failures"][0].startswith("classical detection needs n > p")
        err = capsys.readouterr().err
        assert "classical: failed: classical detection needs n > p (got n=40, p=60)" in err

    def test_unknown_method_rejected(self):
        assert main(["bench", "--methods", "mcd"]) == EXIT_CONFIG

    @pytest.mark.parametrize("flags", [["--alpha", "2"], ["--methods", "prcmpout", "--alpha", "0"],
                                       ["--repeats", "2"], ["--methods", "prcmpout", "--alpha", "0.1"]])
    def test_bad_alpha_or_repeats_is_a_config_error(self, flags, capsys):
        assert main(["bench", *flags, "--p", "20"]) == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err


def test_usage_error_exits_4(capsys):
    assert main(["detect", "--method", "prcmpout"]) == EXIT_CONFIG  # --input missing
    assert "the following arguments are required: --input" in capsys.readouterr().err
    with pytest.raises(SystemExit) as excinfo:  # help is not an error
        main(["--help"])
    assert excinfo.value.code == EXIT_OK


def _small_run(command, csv_path, report_path):
    """A quick run of one subcommand, without --output."""
    return {
        "detect": ["detect", "--input", str(csv_path), "--method", "prcmpout"],
        "sweep": ["sweep", "--p-values", "5", "--replications", "2", "--n", "40",
                  "--outlier-indices", "1,2,3"],
        "bench": ["bench", "--methods", "prcmpout", "--p", "20", "--repeats", "3"],
        "plotdata": ["plotdata", "--report", str(report_path), "--kind", "weight_panels"],
    }[command]


@pytest.mark.parametrize("command", ["detect", "sweep"])
def test_plot_data_flag_is_gone(command, normal_csv, tmp_path, capsys):
    # figure data comes from `pcout plotdata` on a saved JSON report or sweep
    argv = _small_run(command, normal_csv, None)
    code = main([*argv, "--output", str(tmp_path / "out"), "--plot-data", str(tmp_path / "x")])
    assert code == EXIT_CONFIG
    assert "unrecognized arguments: --plot-data" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["detect", "sweep", "bench", "plotdata"])
def test_an_unwritable_output_exits_2_and_names_the_path(command, normal_csv, tmp_path, capsys):
    report = tmp_path / "r.json"
    assert main(["detect", "--input", str(normal_csv), "--method", "prcmpout",
                 "--output", str(report)]) == EXIT_OK
    argv = _small_run(command, normal_csv, report)
    out = tmp_path / "missing" / "out.csv"
    capsys.readouterr()
    assert main([*argv, "--output", str(out)]) == EXIT_INPUT
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == f"pcout: cannot write {out}: {os.strerror(errno.ENOENT)}"
    assert not out.parent.exists()
