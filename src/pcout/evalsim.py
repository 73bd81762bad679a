"""Contamination simulation, confusion-matrix scoring, dimension sweeps and
wall-clock comparisons.

The contamination model is deliberately simple and always reported with the
results: inliers are i.i.d. standard normal, planted outliers get a location
shift and an inflated identity covariance. Generation runs on a counter-based
generator (Philox) keyed by the spec seed, so streams reproduce across
platforms; replication r of a sweep uses seed + r.

Results come back as data: ``document`` puts a sweep's or a timing run's rows
next to the spec that generated them, and ``dataio`` writes that document as
JSON or CSV.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, replace
from statistics import median as stat_median
from typing import Callable, Mapping, Sequence

import numpy as np

DetectorFn = Callable[[np.ndarray], np.ndarray]
"""A detector handle: maps an n x p matrix to a boolean flag vector."""

# the fixed outlier positions used throughout the benchmark experiments
REFERENCE_OUTLIER_ROWS = frozenset(
    {10, 16, 18, 22, 23, 25, 27, 29, 30, 47, 66, 70, 72, 80, 84, 90, 99, 100}
)

DEFAULT_SEED = 42


@dataclass(frozen=True)
class SimSpec:
    """One contamination scenario: sizes, planted rows, shift, scatter, seed."""

    n: int
    p: int
    outlier_indices: frozenset[int] = frozenset()
    location_shift: float | tuple[float, ...] = 0.0
    scatter_factor: float = 1.0
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.n < 1 or self.p < 1:
            raise ValueError(f"n and p must be positive, got n={self.n}, p={self.p}")
        if self.scatter_factor <= 0.0:
            raise ValueError(f"scatter_factor must be positive, got {self.scatter_factor}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        idx = frozenset(int(i) for i in self.outlier_indices)
        if idx and (min(idx) < 1 or max(idx) > self.n):
            raise ValueError(f"outlier indices must lie in 1..{self.n}")
        object.__setattr__(self, "outlier_indices", idx)
        if isinstance(self.location_shift, (tuple, list, np.ndarray)):
            shift = tuple(float(v) for v in self.location_shift)
            if len(shift) != self.p:
                raise ValueError(
                    f"location_shift has length {len(shift)}, expected p={self.p}"
                )
            object.__setattr__(self, "location_shift", shift)
        else:
            object.__setattr__(self, "location_shift", float(self.location_shift))

    def shift_vector(self) -> np.ndarray:
        if isinstance(self.location_shift, tuple):
            return np.array(self.location_shift, dtype=float)
        return np.full(self.p, self.location_shift, dtype=float)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "p": self.p,
            "outlier_indices": sorted(self.outlier_indices),
            "location_shift": list(self.location_shift)
            if isinstance(self.location_shift, tuple)
            else self.location_shift,
            "scatter_factor": self.scatter_factor,
            "seed": self.seed,
        }


def generate_contaminated(spec: SimSpec) -> tuple[np.ndarray, np.ndarray]:
    """Draw one contaminated data set and its ground-truth outlier labels.

    Inlier rows are standard normal; rows listed in the spec (1-based) are
    shifted by the location vector and scaled by sqrt(scatter_factor).
    Identical specs yield bit-identical matrices.
    """
    rng = np.random.Generator(np.random.Philox(spec.seed))
    X = rng.standard_normal((spec.n, spec.p))
    truth = np.zeros(spec.n, dtype=bool)
    if spec.outlier_indices:
        rows = np.array(sorted(spec.outlier_indices), dtype=int) - 1
        truth[rows] = True
        X[rows] = spec.shift_vector() + np.sqrt(spec.scatter_factor) * X[rows]
    return X, truth


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
    return ConfusionCounts(
        a=int(np.sum(truth & flags)),
        b=int(np.sum(truth & ~flags)),
        c=int(np.sum(~truth & flags)),
        d=int(np.sum(~truth & ~flags)),
    )


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

    Replication r uses seed = base seed + r. A detector failure in one
    replication is recorded on the row instead of aborting the sweep; the
    means cover the replications that succeeded.
    """
    if replications < 1:
        raise ValueError(f"replications must be positive, got {replications}")
    rows = []
    for p in p_values:
        spec_p = replace(base_spec, p=int(p))
        fns, fps, failures = [], [], []
        for r in range(replications):
            spec_r = replace(spec_p, seed=base_spec.seed + r)
            X, truth = generate_contaminated(spec_r)
            try:
                flags = detector(X)
            except Exception as exc:  # recorded per cell, not fatal
                failures.append(f"p={p} rep={r}: {exc}")
                continue
            counts = confusion(truth, flags)
            if counts.fn_rate is not None:
                fns.append(counts.fn_rate)
            if counts.fp_rate is not None:
                fps.append(counts.fp_rate)
        rows.append(
            SweepRow(
                p=int(p),
                detector=detector_name,
                mean_fn=float(np.mean(fns)) if fns else None,
                mean_fp=float(np.mean(fps)) if fps else None,
                replications=replications,
                seed=base_spec.seed,
                alpha=alpha,
                failures=tuple(failures),
            )
        )
    return rows


@dataclass(frozen=True)
class TimingRow:
    """Median wall-clock seconds for one detector."""

    detector: str
    median_seconds: float
    repeats: int


def time_detectors(
    detectors: Mapping[str, DetectorFn], spec: SimSpec, repeats: int = 5
) -> list[TimingRow]:
    """Median of `repeats` timed runs per detector on one shared data set.

    Data generation happens once, outside the timed region; the clock is
    monotonic and the median is reported to resist scheduler noise.
    """
    if repeats < 3:
        raise ValueError(f"need at least 3 repeats, got {repeats}")
    X, _ = generate_contaminated(spec)
    rows = []
    for name, fn in detectors.items():
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            fn(X)
            times.append(time.perf_counter() - start)
        rows.append(TimingRow(detector=name, median_seconds=stat_median(times), repeats=repeats))
    return rows


def document(spec: SimSpec, rows: Sequence[SweepRow] | Sequence[TimingRow]) -> dict:
    """A sweep's or a timing run's rows beside the spec that generated them."""
    return {"spec": spec.to_dict(), "rows": [asdict(row) for row in rows]}
