"""PrCmpOut: two-stage principal-component outlier detection.

Stage 1 hunts location outliers with kurtosis-weighted robust distances in a
median/MAD-sphered principal-component space; stage 2 hunts scatter outliers
with unweighted norms in the same space. Each stage turns distances into
weights through a translated biweight curve, and the two weights are combined
multiplicatively. Points whose combined weight falls below the cut 0.25 are
flagged.

The pipeline:

  1. sphere each column by median/MAD, dropping zero-MAD columns
  2. eigendecompose the sample covariance of the sphered data (Gram route
     when p > n), retaining components covering 99% of variance, at most n - 1
  3. project, then re-sphere every score column by median/MAD
  4. stage 1: kurtosis-weighted norms -> median-calibrated distances ->
     biweight with M at the 1/3 distance quantile (type 7) and c = med + 2.5 MAD
  5. stage 2: plain norms -> median-calibrated distances -> biweight with
     M, c at the chi-square 25th/99th percentile scale
  6. combine: w = (w1 + s)(w2 + s) / (1 + s)^2 with s = 0.25

Every median, MAD and quantile is taken by the one lane kernel in ``robust``,
and every row norm, stage 1's kurtosis-weighted ones included, by
``robust.row_norms``. Each stage orders its distances once: ``robust.calibrate``
takes the calibration median from one copy of them, scales that copy in place,
which keeps its order, and stage 1 reads its quantile, median and MAD from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chisq import chi2_quantile
from .robust import calibrate, robust_sphere, row_norms
from .spectral import pca_basis, project


@dataclass(frozen=True)
class DetectorConfig:
    """The published tuning constants of the detector.

    No field can be set, so every instance is equal; the class names the
    constants in one place and ``dataclasses.asdict`` echoes them in reports.
    """

    variance_threshold: float = field(default=0.99, init=False)
    scale_const_s: float = field(default=0.25, init=False)
    outlier_cut: float = field(default=0.25, init=False)
    stage1_full_weight_fraction: float = field(default=1.0 / 3.0, init=False)
    stage1_c_mad_multiplier: float = field(default=2.5, init=False)
    stage2_m_quantile: float = field(default=0.25, init=False)
    stage2_c_quantile: float = field(default=0.99, init=False)


@dataclass(frozen=True)
class DistanceSet:
    """Median-calibrated robust distances and the biweight bounds a stage
    applied to them: full weight up to m_cut, zero from c_cut."""

    transformed: np.ndarray
    m_cut: float
    c_cut: float


@dataclass(frozen=True)
class WeightReport:
    """Everything the detector computed, one entry per observation."""

    w1: np.ndarray
    w2: np.ndarray
    w_final: np.ndarray
    stage1_distances: DistanceSet
    stage2_distances: DistanceSet
    kurtosis_weights: np.ndarray
    flags: np.ndarray
    p_star: int
    dropped_columns: frozenset[int] = field(default_factory=frozenset)


def checked_matrix(X) -> np.ndarray:
    """The input gate of every detector: X as a float matrix with at least
    3 rows, at least 1 column and only finite values, or a ValueError naming
    what is wrong."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {X.shape}")
    if X.shape[0] < 3:
        raise ValueError(f"need at least 3 rows, got {X.shape[0]}")
    if X.shape[1] < 1:
        raise ValueError(f"need at least 1 column, got {X.shape[1]}")
    if not np.all(np.isfinite(X)):
        raise ValueError("non-finite values in data matrix")
    return X


def _chi_median_factor(df: int):
    """The calibration rule: median(raw) -> the factor sqrt(chi2_quantile(0.5, df)) / median(raw)."""

    def factor(med) -> float:
        med = float(med)
        if med <= 0.0:
            raise ValueError("median of distances is zero; distances are degenerate")
        return math.sqrt(chi2_quantile(0.5, df)) / med

    return factor


def transform_distances(raw, df: int) -> np.ndarray:
    """Rescale distances so their median matches the chi-square median.

    Each entry is multiplied by sqrt(chi2_quantile(0.5, df)) / median(raw),
    pulling the empirical distance distribution toward the chi-square the
    weights are calibrated against.
    """
    return calibrate(raw, _chi_median_factor(df))


def translated_biweight(d, M: float, c: float):
    """Weight curve: 1 inside M, 0 beyond c, smooth biweight bridge between.

    w(d) = (1 - ((d - M)/(c - M))^2)^2 on M < d < c. Returns an array shaped
    like d; requires c > M >= 0.
    """
    d = np.asarray(d, dtype=float)
    return (1.0 - np.minimum(np.maximum((d - M) / (c - M), 0.0), 1.0) ** 2) ** 2


def stage1_location(Zs, cfg: DetectorConfig = DetectorConfig()) -> tuple[np.ndarray, DistanceSet, np.ndarray]:
    """Location-outlier weights from kurtosis-weighted norms of sphered scores.

    Zs must already be median/MAD-sphered per column, so each column's
    weight is its absolute excess kurtosis |mean(z^4) - 3|, taken on the
    scores as given: near zero for normal scores, inflated by heavy and by
    light tails alike. The robust distance of a row is
    sqrt(sum_j r_j z_j^2), r the weights normalized to sum 1. The returned
    DistanceSet carries the biweight bounds: M at the full-weight distance
    quantile (type 7, numpy's default), c at median + multiplier * MAD.
    """
    Zs = np.asarray(Zs, dtype=float)
    n, p_star = Zs.shape
    with np.errstate(over="ignore"):  # a score past about 1e77 overflows z^4
        Z4 = Zs * Zs
        Z4 *= Z4
        kurt = np.abs(np.add.reduce(Z4, axis=0) / n - 3.0)
    del Z4  # row_norms takes its own squares: one n x p temporary at a time
    infinite = np.isinf(kurt)
    # infinite kurtoses share the weight evenly: the limit of kurt / total as they grow
    weight = infinite if infinite.any() else kurt
    total = np.add.reduce(weight)
    if total > 0.0:
        rel = weight / total
    else:
        rel = np.full(p_star, 1.0 / p_star)  # no kurtosis signal anywhere: weight evenly
    # the calibrated distances and their order statistics, from one ordering of the norms
    q = cfg.stage1_full_weight_fraction
    d, m_cut, med, mad = calibrate(row_norms(Zs, rel), _chi_median_factor(p_star), q)
    m_cut = float(m_cut)
    c_cut = float(med + cfg.stage1_c_mad_multiplier * mad)
    if c_cut > m_cut:
        w1 = translated_biweight(d, m_cut, c_cut)
    else:
        # all distances essentially equal: no evidence of location outliers
        w1 = (d <= m_cut).astype(float)
    return w1, DistanceSet(d, m_cut, c_cut), kurt


def stage2_scatter(Zs, cfg: DetectorConfig = DetectorConfig()) -> tuple[np.ndarray, DistanceSet]:
    """Scatter-outlier weights from plain Euclidean norms of sphered scores.

    The biweight bounds, sqrt of the chi-square quantiles at p*, are carried
    on the returned DistanceSet.
    """
    Zs = np.asarray(Zs, dtype=float)
    p_star = Zs.shape[1]
    d = transform_distances(row_norms(Zs), p_star)
    m_cut = math.sqrt(chi2_quantile(cfg.stage2_m_quantile, p_star))
    c_cut = math.sqrt(chi2_quantile(cfg.stage2_c_quantile, p_star))
    return translated_biweight(d, m_cut, c_cut), DistanceSet(d, m_cut, c_cut)


def combine_weights(w1, w2, s: float) -> np.ndarray:
    """Multiplicative combination (w1 + s)(w2 + s) / (1 + s)^2 of two weight
    vectors of one length, for s >= 0."""
    w1 = np.asarray(w1, dtype=float)
    w2 = np.asarray(w2, dtype=float)
    return (w1 + s) * (w2 + s) / (1.0 + s) ** 2


class _Step:
    """``with _Step(name):`` turns a failure of the step inside, on a degenerate
    input (ValueError) or by overflowing the float range on data near it
    (FloatingPointError), into the ValueError detect raises, naming the step."""

    def __init__(self, name: str):
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if isinstance(exc, FloatingPointError):
            raise ValueError(f"{self.name} failed: {exc} (the data come too near the float range)") from exc
        if isinstance(exc, ValueError):
            raise ValueError(f"{self.name} failed: {exc}") from exc


# a value pushed past the float range, by data near it, fails its step as an error
@np.errstate(over="raise")
def detect(X, cfg: DetectorConfig = DetectorConfig()) -> WeightReport:
    """Run the full two-stage detector on an n x p matrix.

    Returns a WeightReport holding per-row stage weights, distances, final
    weights and flags (final weight strictly below cfg.outlier_cut), plus the
    retained dimension and the dropped zero-MAD columns. A step that fails,
    on a degenerate input or by overflowing the float range on data near it,
    raises a ValueError naming the step.
    """
    X = checked_matrix(X)
    with _Step("sphering"):
        Xs, dropped = robust_sphere(X)
    with _Step("principal-component step"):
        basis = pca_basis(Xs, cfg.variance_threshold)
        Z = project(Xs, basis)
    del Xs, basis  # each n x p-sized buffer goes once it is consumed
    with _Step("score sphering"):
        Zs, _ = robust_sphere(Z)  # a zero-MAD score column is dropped here too
    del Z
    with _Step("stage 1 (location)"):
        w1, d1, kurt = stage1_location(Zs, cfg)
    with _Step("stage 2 (scatter)"):
        w2, d2 = stage2_scatter(Zs, cfg)

    w_final = combine_weights(w1, w2, cfg.scale_const_s)
    flags = w_final < cfg.outlier_cut
    return WeightReport(
        w1=w1,
        w2=w2,
        w_final=w_final,
        stage1_distances=d1,
        stage2_distances=d2,
        kurtosis_weights=kurt,
        flags=flags,
        p_star=Zs.shape[1],
        dropped_columns=dropped,
    )
