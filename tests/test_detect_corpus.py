"""Regression corpus for the detector and the comparison baselines.

Three inputs built from fixed simulation seeds cover the Gram route (p > n),
the covariance route (n > p) and a zero-MAD column that sphering drops. The
expected values in ``data/detect_corpus.json`` were recorded from an earlier
version of the code: flags, p* and dropped columns must match exactly, final
weights to 1e-12. A hand check ties the report header's thresholds block to
the chi-square quantiles and to the boundary rows of the weight panels.

The classical, ogk and sign2 detectors (alpha = 0.05) are pinned on the same
inputs: flags and cutoffs exactly, distances to 1e-12, and where a method
rejects an input, the ValueError's message prefix. The Gram input also runs
OGK's wide branch (p >= n), which scores in the eigenvector space.
"""

import csv
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from pcout.baselines import classical_detect, ogk_detect, sign2_detect
from pcout.chisq import chi2_quantile
from pcout.cli import EXIT_INPUT, main
from pcout.dataio import (
    DataMatrix,
    document_csv_chunks,
    document_to_json,
    plot_document,
    weight_report_document,
)
from pcout.evalsim import SimSpec, generate_contaminated
from pcout.prcmpout import DetectorConfig, detect

EXPECTED = json.loads((Path(__file__).parent / "data" / "detect_corpus.json").read_text())


def _corpus_input(name: str) -> np.ndarray:
    if name == "gram":
        spec = SimSpec(n=40, p=120, outlier_indices={3, 11, 27}, location_shift=3.0, seed=101)
        return generate_contaminated(spec)[0]
    if name == "covariance":
        spec = SimSpec(
            n=120, p=8, outlier_indices={5, 17, 60, 99}, location_shift=2.5,
            scatter_factor=4.0, seed=202,
        )
        return generate_contaminated(spec)[0]
    spec = SimSpec(n=50, p=12, outlier_indices={2, 40}, location_shift=3.0, seed=303)
    X = generate_contaminated(spec)[0]
    X[:, 4] = 2.5  # constant column
    X[:30, 9] = 0.0  # a majority of ties: zero MAD without being constant
    return X


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_detect_matches_the_recorded_values(name):
    want = EXPECTED[name]
    X = _corpus_input(name)
    assert list(X.shape) == want["shape"]
    report = detect(X)
    assert np.flatnonzero(report.flags).tolist() == want["flags"]
    assert report.p_star == want["p_star"]
    assert sorted(report.dropped_columns) == want["dropped_columns"]
    assert np.abs(report.w_final - np.array(want["w_final"])).max() <= 1e-12


BASELINES = {"classical": classical_detect, "ogk": ogk_detect, "sign2": sign2_detect}


@pytest.mark.parametrize("method", sorted(BASELINES))
@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_baselines_match_the_recorded_values(name, method):
    want = EXPECTED[name]["baselines"][method]
    X = _corpus_input(name)
    if "error" in want:
        with pytest.raises(ValueError) as info:
            BASELINES[method](X, 0.05)
        assert str(info.value).startswith(want["error"])
        return
    result = BASELINES[method](X, 0.05)
    assert result.method == method
    assert result.cutoff == want["cutoff"]
    assert np.flatnonzero(result.flags).tolist() == want["flags"]
    assert np.abs(result.distances - np.array(want["distances"])).max() <= 1e-12


def _document(name: str) -> dict:
    """The report of ``name`` as ``pcout plotdata`` reads it back from JSON."""
    X = _corpus_input(name)
    cfg = DetectorConfig()
    n, p = X.shape
    dm = DataMatrix(X, tuple(str(i + 1) for i in range(n)), tuple(f"x{j + 1}" for j in range(p)))
    doc = weight_report_document(dm, detect(X, cfg), {"outlier_cut": cfg.outlier_cut})
    return json.loads(document_to_json(doc))


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_header_thresholds_match_the_published_bounds(name):
    doc = _document(name)
    bounds = doc["header"]["thresholds"]
    p_star = doc["header"]["p_star"]
    assert bounds["stage2"]["M"] == math.sqrt(chi2_quantile(0.25, p_star))
    assert bounds["stage2"]["c"] == math.sqrt(chi2_quantile(0.99, p_star))

    d1 = np.array([rec["stage1_distance"] for rec in doc["records"]])
    med = np.median(d1)
    assert bounds["stage1"]["M"] == pytest.approx(np.quantile(d1, 1.0 / 3.0), rel=1e-15)
    assert bounds["stage1"]["c"] == pytest.approx(
        med + 2.5 * 1.4826 * np.median(np.abs(d1 - med)), rel=1e-15
    )


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_weight_panel_boundaries_are_the_header_thresholds(name):
    doc = _document(name)
    rows = list(csv.DictReader(io.StringIO("".join(document_csv_chunks(plot_document(doc))))))
    boundary = {}
    for row in rows:
        if row["flag"] == "boundary":
            boundary.setdefault(row["panel"], []).append(float(row["y"]))
    bounds = doc["header"]["thresholds"]
    assert boundary == {
        "stage1_distance": [bounds["stage1"]["M"], bounds["stage1"]["c"]],
        "stage2_distance": [bounds["stage2"]["M"], bounds["stage2"]["c"]],
        "combined_weight": [0.25],
    }


def test_weight_panels_of_a_report_without_thresholds_exit_2(tmp_path, capsys):
    doc = _document("covariance")
    del doc["header"]["thresholds"]
    path = tmp_path / "old-report.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["plotdata", "--report", str(path)]) == EXIT_INPUT
    assert "thresholds" in capsys.readouterr().err
