"""Regression corpus for ``pcout sweep``: documents and stderr, byte for byte.

``data/sweep_corpus.json`` holds the JSON document and the stderr summary that
``pcout sweep`` wrote for each of four detectors on five argument sets: the
benchmark's reference sweep (p = 10, 20, 30, 40; n = 100; shift 1.5; the
reference rows; seed 1; 2 replications), the same with the dimensions given
out of order, n = 60 with p = 5, 60, 150 (where classical records its n <= p
failures), scatter factor 3, and no planted rows. Each case reruns the CLI
and compares both texts exactly.

Record the file from the tree on ``PYTHONPATH`` with

    PYTHONPATH=src python tests/test_sweep_corpus.py > tests/data/sweep_corpus.json
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from pcout.cli import EXIT_OK, main
from pcout.evalsim import REFERENCE_OUTLIER_ROWS

CORPUS = Path(__file__).parent / "data" / "sweep_corpus.json"
METHODS = ("prcmpout", "classical", "ogk", "sign2")
_REFERENCE = ["--p-values", "10,20,30,40", "--n", "100"]
_ROWS = sorted(REFERENCE_OUTLIER_ROWS)
ARGUMENT_SETS = {
    "reference": _REFERENCE,
    "p-out-of-order": ["--p-values", "40,10,30,20", "--n", "100"],
    "n-60": ["--p-values", "5,60,150", "--n", "60",
             "--outlier-indices", ",".join(str(i) for i in _ROWS if i <= 60)],
    "scatter-3": [*_REFERENCE, "--scatter-factor", "3"],
    "no-planted-rows": [*_REFERENCE, "--outlier-indices", ""],
}


def _argv(method: str, extra: list[str]) -> list[str]:
    argv = ["sweep", "--method", method, *extra]
    if "--outlier-indices" not in extra:
        argv += ["--outlier-indices", ",".join(map(str, _ROWS))]
    argv += ["--shift", "1.5", "--seed", "1", "--replications", "2", "--format", "json"]
    return argv if method == "prcmpout" else argv + ["--alpha", "0.05"]


CASES = {
    f"{name}/{method}": _argv(method, extra)
    for name, extra in ARGUMENT_SETS.items()
    for method in METHODS
}


def run_sweep(argv: list[str], out: Path) -> tuple[str, str]:
    """The document and the stderr text of ``pcout sweep argv --output out``."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([*argv, "--output", str(out)])
    assert code == EXIT_OK, err.getvalue()
    return out.read_text(encoding="utf-8"), err.getvalue()


def _expected() -> dict:
    # read when a test runs, not at import: recording truncates the file first
    return {case["name"]: case for case in json.loads(CORPUS.read_text(encoding="utf-8"))["cases"]}


def test_the_corpus_holds_every_case():
    assert {name: case["argv"] for name, case in _expected().items()} == CASES


@pytest.mark.parametrize("name", sorted(CASES))
def test_sweep_reproduces_the_recorded_document_and_stderr(name, tmp_path):
    want = _expected()[name]
    document, stderr = run_sweep(CASES[name], tmp_path / "sweep.json")
    assert document == want["document"]
    assert stderr == want["stderr"]


if __name__ == "__main__":
    cases = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in CASES.items():
            document, stderr = run_sweep(argv, Path(tmp) / "sweep.json")
            cases.append({"name": name, "argv": argv, "document": document, "stderr": stderr})
    json.dump({"cases": cases}, sys.stdout, indent=1)
    sys.stdout.write("\n")
