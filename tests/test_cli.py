import csv
import json

import numpy as np
import pytest

from pcout.cli import EXIT_CONFIG, EXIT_INPUT, EXIT_NUMERIC, EXIT_OK, main
from pcout.dataio import InputDataError, load_csv
from pcout.evalsim import SimSpec, generate_contaminated


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

    def test_detector_override_with_classical_is_a_config_error(self, normal_csv):
        code = main(
            ["detect", "--input", str(normal_csv), "--method", "classical",
             "--alpha", "0.05", "--outlier-cut", "0.3"]
        )
        assert code == EXIT_CONFIG

    def test_beta_only_applies_to_ogk(self, normal_csv):
        code = main(
            ["detect", "--input", str(normal_csv), "--method", "sign2",
             "--alpha", "0.05", "--beta", "0.9"]
        )
        assert code == EXIT_CONFIG

    def test_missing_input_exits_2(self, tmp_path):
        code = main(["detect", "--input", str(tmp_path / "nope.csv"), "--method", "prcmpout"])
        assert code == EXIT_INPUT

    def test_alpha_out_of_range_is_a_config_error(self, normal_csv):
        code = main(
            ["detect", "--input", str(normal_csv), "--method", "classical", "--alpha", "1.5"]
        )
        assert code == EXIT_CONFIG

    def test_override_changes_the_outcome(self, normal_csv, tmp_path):
        out = tmp_path / "r.json"
        main(
            ["detect", "--input", str(normal_csv), "--method", "prcmpout",
             "--outlier-cut", "0.9", "--output", str(out)]
        )
        doc = json.loads(out.read_text())
        assert doc["header"]["config"]["outlier_cut"] == 0.9


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

    def test_detect_can_emit_plot_data_directly(self, normal_csv, tmp_path):
        out = tmp_path / "panels.csv"
        main(["detect", "--input", str(normal_csv), "--method", "prcmpout",
              "--output", str(tmp_path / "r.json"), "--plot-data", str(out)])
        assert out.exists()


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

    def test_plot_data_equals_plotdata_on_the_json(self, tmp_path):
        sweep_json, direct, replot = (tmp_path / f for f in ("s.json", "direct.csv", "replot.csv"))
        assert main(["sweep", "--method", "sign2", "--p-values", "5,10", "--replications", "2",
                     "--n", "40", "--outlier-indices", "1,2,3", "--shift", "5.0",
                     "--format", "json", "--output", str(sweep_json),
                     "--plot-data", str(direct)]) == EXIT_OK
        assert main(["plotdata", "--report", str(sweep_json), "--kind", "sweep_curves",
                     "--output", str(replot)]) == EXIT_OK
        assert direct.read_bytes() == replot.read_bytes()

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
        "flags", [["--method", "ogk", "--alpha", "2"], ["--replications", "0"]]
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

    def test_unknown_method_rejected(self):
        assert main(["bench", "--methods", "mcd"]) == EXIT_CONFIG

    @pytest.mark.parametrize("flags", [["--alpha", "2"], ["--methods", "prcmpout", "--alpha", "0"],
                                       ["--repeats", "2"]])
    def test_bad_alpha_or_repeats_is_a_config_error(self, flags, capsys):
        assert main(["bench", *flags, "--p", "20"]) == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err


def test_usage_error_exits_4(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["detect", "--method", "prcmpout"])  # --input missing
    assert excinfo.value.code == EXIT_CONFIG
