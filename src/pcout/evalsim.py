"""Contamination simulation, confusion-matrix scoring, dimension sweeps and
wall-clock comparisons.

The contamination model is deliberately simple and always reported with the
results: inliers are i.i.d. standard normal, planted outliers get a location
shift and an inflated identity covariance. Generation runs on a counter-based
generator (Philox) keyed by the spec seed, so streams reproduce across
platforms; replication r of a sweep uses seed + r.

Normals fill a matrix row by row, so a seed's n x p matrix is the first n * p
normals of any longer draw from it. A sweep loops over replications on the
outside and draws n * max(p) normals once per replication. Each dimension, in
ascending order, takes its prefix and contaminates a copy; the largest runs
last and contaminates the draw itself in place.

Results come back as data: ``document`` puts a sweep's or a timing run's rows,
as a plain dict of columns, next to the spec that generated them; the command
line writes that document as JSON or CSV.
"""

from __future__ import annotations

import math
import numbers
import operator
import time
from dataclasses import dataclass, field, fields
from typing import Callable, Mapping, Sequence

import numpy as np

from .robust import median

DetectorFn = Callable[[np.ndarray], np.ndarray]
"""A detector handle: maps an n x p matrix to a boolean flag vector."""

# the fixed outlier positions used throughout the benchmark experiments
REFERENCE_OUTLIER_ROWS = frozenset(
    {10, 16, 18, 22, 23, 25, 27, 29, 30, 47, 66, 70, 72, 80, 84, 90, 99, 100}
)

DEFAULT_SEED = 42


def _integer(name: str, value) -> int:
    """The gate of every count and index: value as an int, or a ValueError naming ``name``."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class SimSpec:
    """One contamination scenario: sizes, planted rows, shift, scatter, seed."""

    n: int
    p: int
    outlier_indices: frozenset[int] = frozenset()
    location_shift: float = 0.0
    scatter_factor: float = 1.0
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        for name in ("n", "p", "seed"):  # numpy integers too, stored as int
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.n < 1 or self.p < 1:
            raise ValueError(f"n and p must be positive, got n={self.n}, p={self.p}")
        for name in ("location_shift", "scatter_factor"):  # numpy floats too, stored as float
            value = getattr(self, name)
            if not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            object.__setattr__(self, name, float(value))
        if not math.isfinite(self.location_shift):
            raise ValueError(f"location_shift must be finite, got {self.location_shift}")
        if not (math.isfinite(self.scatter_factor) and self.scatter_factor > 0.0):
            raise ValueError(f"scatter_factor must be positive and finite, got {self.scatter_factor}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        idx = frozenset(_integer("each of outlier_indices", i) for i in self.outlier_indices)
        if idx and (min(idx) < 1 or max(idx) > self.n):
            raise ValueError(f"outlier indices must lie in 1..{self.n}")
        object.__setattr__(self, "outlier_indices", idx)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "p": self.p,
            "outlier_indices": sorted(self.outlier_indices),
            "location_shift": self.location_shift,
            "scatter_factor": self.scatter_factor,
            "seed": self.seed,
        }


def _normals(seed: int, size) -> np.ndarray:
    """Standard normals of the given size from the Philox stream keyed by ``seed``."""
    return np.random.Generator(np.random.Philox(seed)).standard_normal(size)


def _contaminate(X: np.ndarray, rows: np.ndarray, shift: float, scale: float) -> np.ndarray:
    """Scale by ``scale``, then shift by ``shift``, the given rows of X, in place."""
    X[rows] = shift + scale * X[rows]
    return X


def _truth(spec: SimSpec) -> np.ndarray:
    truth = np.zeros(spec.n, dtype=bool)
    truth[[i - 1 for i in spec.outlier_indices]] = True
    return truth


def generate_contaminated(spec: SimSpec) -> tuple[np.ndarray, np.ndarray]:
    """Draw one contaminated data set and its ground-truth outlier labels.

    Inlier rows are standard normal; rows listed in the spec (1-based) are
    scaled by sqrt(scatter_factor), then shifted by location_shift everywhere.
    Identical specs yield bit-identical matrices.
    """
    truth = _truth(spec)
    X = _normals(spec.seed, (spec.n, spec.p))
    return _contaminate(X, np.flatnonzero(truth), spec.location_shift, np.sqrt(spec.scatter_factor)), truth


@dataclass(frozen=True)
class ConfusionCounts:
    """The 2x2 outcome table: true outliers/inliers vs predicted."""

    a: int  # true outliers predicted outlier
    b: int  # true outliers predicted inlier (misses)
    c: int  # true inliers predicted outlier (false alarms)
    d: int  # true inliers predicted inlier

    @property
    def fn_rate(self) -> float | None:
        """Outlier error rate b / (a + b); None when there are no true outliers."""
        return self.b / (self.a + self.b) if self.a + self.b > 0 else None

    @property
    def fp_rate(self) -> float | None:
        """Inlier error rate c / (c + d); None when there are no true inliers."""
        return self.c / (self.c + self.d) if self.c + self.d > 0 else None


def confusion(truth, flags) -> ConfusionCounts:
    """Tally the 2x2 table of truth labels against detector flags."""
    truth = np.asarray(truth, dtype=bool)
    flags = np.asarray(flags, dtype=bool)
    if truth.shape != flags.shape:
        raise ValueError(f"label vectors differ in length: {truth.shape} vs {flags.shape}")
    a, outliers, flagged = (int(np.count_nonzero(v)) for v in (truth & flags, truth, flags))
    return ConfusionCounts(a=a, b=outliers - a, c=flagged - a, d=truth.size - outliers - flagged + a)


@dataclass(frozen=True)
class SweepRow:
    """Averaged error rates for one dimension of a sweep, fields in output order."""

    p: int
    alpha: float | None
    detector: str
    mean_fn: float | None
    mean_fp: float | None
    replications: int
    seed: int
    failures: tuple[str, ...] = field(default_factory=tuple)


def dimension_sweep(
    detector: DetectorFn,
    p_values: Sequence[int],
    replications: int,
    base_spec: SimSpec,
    detector_name: str = "detector",
    alpha: float | None = None,
) -> list[SweepRow]:
    """Average FN/FP of a detector over seeded replications at each dimension.

    Replication r uses seed = base seed + r; each cell's matrix is the one
    ``generate_contaminated`` draws for that p and seed. A detector failure in
    one replication is recorded on the row instead of aborting the sweep; the
    means cover the replications that succeeded.
    """
    replications = _integer("replications", replications)
    if replications < 1:
        raise ValueError(f"replications must be positive, got {replications}")
    p_values = [_integer("each of p_values", p) for p in p_values]
    if any(p < 1 for p in p_values) or len(set(p_values)) < len(p_values):
        raise ValueError(f"p values must be positive and distinct, got {p_values}")
    n, truth, top = base_spec.n, _truth(base_spec), max(p_values, default=0)
    rows, shift, scale = np.flatnonzero(truth), base_spec.location_shift, np.sqrt(base_spec.scatter_factor)
    cells = {p: ([], [], []) for p in p_values}  # fns, fps, failures
    for r in range(replications):
        X = stream = None  # release the previous replication's draw first
        stream = _normals(base_spec.seed + r, n * top)
        for p, (fns, fps, failures) in sorted(cells.items()):
            X = stream[: n * p].reshape(n, p)
            X = _contaminate(X if p == top else X.copy(), rows, shift, scale)
            try:
                counts = confusion(truth, detector(X))
            except Exception as exc:  # recorded per cell, not fatal
                failures.append(f"p={p} rep={r}: {exc}")
                continue
            if counts.fn_rate is not None:
                fns.append(counts.fn_rate)
            if counts.fp_rate is not None:
                fps.append(counts.fp_rate)
    return [
        SweepRow(
            p=p,
            detector=detector_name,
            mean_fn=float(np.mean(fns)) if fns else None,
            mean_fp=float(np.mean(fps)) if fps else None,
            replications=replications,
            seed=base_spec.seed,
            alpha=alpha,
            failures=tuple(failures),
        )
        for p, (fns, fps, failures) in cells.items()
    ]


@dataclass(frozen=True)
class TimingRow:
    """Median wall-clock seconds for one detector; None if it failed (see failures)."""

    detector: str
    median_seconds: float | None
    repeats: int
    failures: tuple[str, ...] = field(default_factory=tuple)


def time_detectors(
    detectors: Mapping[str, DetectorFn], spec: SimSpec, repeats: int = 5
) -> list[TimingRow]:
    """Median of `repeats` timed runs per detector on one shared data set.

    Data generation happens once, outside the timed region; the clock is
    monotonic and the median is reported to resist scheduler noise. A
    detector that fails is recorded on its row, as in dimension_sweep, and
    not timed further.
    """
    repeats = _integer("repeats", repeats)
    if repeats < 3:
        raise ValueError(f"need at least 3 repeats, got {repeats}")
    X, _ = generate_contaminated(spec)
    rows = []
    for name, fn in detectors.items():
        times, failures = [], ()
        try:
            for _ in range(repeats):
                start = time.perf_counter()
                fn(X)
                times.append(time.perf_counter() - start)
        except Exception as exc:  # recorded per detector, not fatal
            failures = (str(exc),)
        rows.append(TimingRow(name, None if failures else float(median(times)), repeats, failures))
    return rows


def document(spec: SimSpec, rows: Sequence[SweepRow] | Sequence[TimingRow]) -> dict:
    """A sweep's or a timing run's rows, as columns, beside the spec that
    generated them."""
    names = [f.name for f in fields(rows[0])] if rows else []
    return {"spec": spec.to_dict(), "rows": {name: [getattr(row, name) for row in rows] for name in names}}
