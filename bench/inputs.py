"""Workloads and their seeded inputs.

Every input is a pure function of the workload and ``--seed``. Matrices come
from ``pcout.evalsim.generate_contaminated`` and are written as CSV in Python's
shortest round-trip float text, so ``pcout.dataio.load_csv`` returns the
generated matrix bit for bit. Writing a large CSV takes a second or two, so
files are cached per workload, shape and seed under ``bench/.cache``; a new
seed replaces the previous file of the same workload and shape.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from pcout import evalsim

from env import CACHE

METHODS = ("prcmpout", "classical", "ogk", "sign2")
# criterion 4 reference settings of the simulation sweep
P_VALUES = (10, 20, 30, 40)
SWEEP_N = 100
SWEEP_SHIFT = 1.5
ALPHA = 0.05
# replications per dimension in one timed sweep call: short calls (about 20 ms
# here, 40 for ogk), many of them, so that some fall in the machine's fast spells
SWEEP_REPS = {"prcmpout": 1, "classical": 6, "ogk": 1, "sign2": 3}
# replications per dimension behind the error-rate checks and the traced sweep;
# criterion 4 averages its error rates over 16
REFERENCE_REPS = 16
OUTLIER_SHARE = 20  # csv workloads plant n // 20 location outliers


@dataclass(frozen=True)
class Workload:
    """A CSV for ``pcout detect`` plus a fixed number of reference sweep calls per run.

    Every workload runs both, so every metric is defined on every workload;
    the shapes decide which layers dominate.
    """

    name: str
    n: int
    p: int
    id_column: bool
    shift: float
    # sweep calls per detector in one run, spread evenly over it; a fixed
    # number, so the fastest call is taken over the same sample whatever
    # pcout detect costs
    sweep_passes: int
    # what the shared layers (robust, spectral, chisq, prcmpout) are timed on in
    # the traced run; a "sweep" workload's CSV is replication 0 at p = 40
    subject: str = "csv"


WORKLOADS = {
    w.name: w
    for w in (
        # p > n, the paper's regime: Gram route, wide sphering, load_csv dominates
        Workload("csv-wide", n=500, p=3000, id_column=True, shift=0.5, sweep_passes=128),
        # n >> p: covariance route, long columns, a 10000-record report
        Workload("csv-tall", n=10000, p=100, id_column=False, shift=1.5, sweep_passes=128),
        # thousands of small detections; the CSV is replication 0 at p = 40
        Workload(
            "sweep", n=SWEEP_N, p=max(P_VALUES), id_column=False, shift=SWEEP_SHIFT,
            sweep_passes=200, subject="sweep",
        ),
    )
}

# toy sizes for the self-test
_TOY = {
    "csv-wide": dict(n=120, p=400, shift=1.0, sweep_passes=2),
    "csv-tall": dict(n=1000, p=20, shift=2.0, sweep_passes=2),
    "sweep": dict(sweep_passes=2),
}


def workload(name: str, toy: bool = False) -> Workload:
    w = WORKLOADS[name]
    return replace(w, **_TOY[name]) if toy else w


def input_seed(seed: int) -> int:
    """The nonnegative seed handed to the program's generator."""
    return seed % 2**32


@dataclass(frozen=True)
class Inputs:
    csv: Path
    X: np.ndarray
    truth: np.ndarray
    row_ids: tuple[str, ...]


def _outlier_rows(w: Workload, seed: int) -> frozenset[int]:
    if w.subject == "sweep":
        return evalsim.REFERENCE_OUTLIER_ROWS
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, 1])))
    picked = rng.choice(w.n, w.n // OUTLIER_SHARE, replace=False)
    return frozenset(int(i) + 1 for i in picked)


def sweep_spec(seed: int, p: int, rep: int = 0) -> evalsim.SimSpec:
    """The data set of replication ``rep`` at dimension ``p`` of the reference sweep."""
    return evalsim.SimSpec(
        n=SWEEP_N,
        p=p,
        outlier_indices=evalsim.REFERENCE_OUTLIER_ROWS,
        location_shift=SWEEP_SHIFT,
        seed=seed + rep,
    )


def sweep_argv(method: str, reps: int, seed: int, out) -> list[str]:
    """Arguments of ``pcout sweep`` for the reference sweep, written to ``out`` as JSON."""
    argv = [
        "sweep", "--method", method, "--p-values", ",".join(map(str, P_VALUES)),
        "--replications", str(reps), "--n", str(SWEEP_N), "--shift", repr(SWEEP_SHIFT),
        "--outlier-indices", ",".join(map(str, sorted(evalsim.REFERENCE_OUTLIER_ROWS))),
        "--seed", str(seed), "--format", "json", "--output", str(out),
    ]
    return argv if method == "prcmpout" else argv + ["--alpha", repr(ALPHA)]


def _write_csv(path: Path, X: np.ndarray, row_ids: tuple[str, ...] | None) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        header = [f"x{j + 1}" for j in range(X.shape[1])]
        fh.write(",".join((["id"] if row_ids else []) + header) + "\n")
        for i, row in enumerate(X.tolist()):
            text = ",".join(map(repr, row))
            fh.write((row_ids[i] + "," + text if row_ids else text) + "\n")
    os.replace(tmp, path)


def prepare(w: Workload, seed: int) -> Inputs:
    """Generate (or reuse) the workload's CSV for this seed."""
    seed = input_seed(seed)
    spec = evalsim.SimSpec(
        n=w.n, p=w.p, outlier_indices=_outlier_rows(w, seed), location_shift=w.shift, seed=seed
    )
    X, truth = evalsim.generate_contaminated(spec)
    row_ids = (
        tuple(f"r{i + 1:05d}" for i in range(w.n))
        if w.id_column
        else tuple(str(i + 1) for i in range(w.n))
    )
    stem = f"{w.name}-{w.n}x{w.p}-{'id' if w.id_column else 'noid'}-shift{w.shift}"
    path = CACHE / f"{stem}-seed{seed}.csv"
    if not path.exists():
        for stale in CACHE.glob(f"{stem}-seed*.csv"):
            stale.unlink()
        _write_csv(path, X, row_ids if w.id_column else None)
    return Inputs(csv=path, X=X, truth=truth, row_ids=row_ids)
