"""PrCmpOut: two-stage principal-component outlier detection.

Stage 1 hunts location outliers with kurtosis-weighted robust distances in a
median/MAD-sphered principal-component space; stage 2 hunts scatter outliers
with unweighted norms in the same space. Each stage turns distances into
weights through a translated biweight curve, and the two weights are combined
multiplicatively. Points whose combined weight falls below the cut (default
0.25) are flagged.

The pipeline:

  1. sphere each column by median/MAD, dropping zero-MAD columns
  2. eigendecompose the sample covariance of the sphered data (Gram route
     when p > n), retaining components covering 99% of variance, at most n - 1
  3. project, then re-sphere every score column by median/MAD
  4. stage 1: kurtosis-weighted norms -> median-calibrated distances ->
     biweight with M at the 1/3 distance quantile and c = med + 2.5 MAD
  5. stage 2: plain norms -> median-calibrated distances -> biweight with
     M, c at the chi-square 25th/99th percentile scale
  6. combine: w = (w1 + s)(w2 + s) / (1 + s)^2 with s = 0.25
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chisq import chi2_quantile
from .robust import median, median_mad, quantile, robust_sphere
from .spectral import pca_basis, project


@dataclass(frozen=True)
class DetectorConfig:
    """Tuning constants of the detector; defaults follow the published method."""

    variance_threshold: float = 0.99
    scale_const_s: float = 0.25
    outlier_cut: float = 0.25
    stage1_full_weight_fraction: float = 1.0 / 3.0
    stage1_c_mad_multiplier: float = 2.5
    stage2_m_quantile: float = 0.25
    stage2_c_quantile: float = 0.99

    def __post_init__(self):
        if not 0.0 < self.variance_threshold <= 1.0:
            raise ValueError(f"variance_threshold must be in (0, 1], got {self.variance_threshold}")
        if self.scale_const_s < 0.0:
            raise ValueError(f"scale_const_s must be nonnegative, got {self.scale_const_s}")
        if not 0.0 < self.outlier_cut < 1.0:
            raise ValueError(f"outlier_cut must be in (0, 1), got {self.outlier_cut}")
        if not 0.0 < self.stage1_full_weight_fraction < 1.0:
            raise ValueError(
                f"stage1_full_weight_fraction must be in (0, 1), got {self.stage1_full_weight_fraction}"
            )
        if self.stage1_c_mad_multiplier <= 0.0:
            raise ValueError(
                f"stage1_c_mad_multiplier must be positive, got {self.stage1_c_mad_multiplier}"
            )
        if not 0.0 < self.stage2_m_quantile < 1.0 or not 0.0 < self.stage2_c_quantile < 1.0:
            raise ValueError("stage-2 quantiles must be in (0, 1)")
        if self.stage2_m_quantile >= self.stage2_c_quantile:
            raise ValueError(
                f"stage2_m_quantile ({self.stage2_m_quantile}) must be below "
                f"stage2_c_quantile ({self.stage2_c_quantile})"
            )


@dataclass(frozen=True)
class DistanceSet:
    """Raw robust distances, their median-calibrated transforms, and the
    biweight bounds a stage applied to them: full weight up to m_cut, zero
    from c_cut."""

    raw: np.ndarray
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


def transform_distances(raw, df: int) -> np.ndarray:
    """Rescale distances so their median matches the chi-square median.

    Each entry is multiplied by sqrt(chi2_quantile(0.5, df)) / median(raw),
    pulling the empirical distance distribution toward the chi-square the
    weights are calibrated against.
    """
    raw = np.asarray(raw, dtype=float)
    med = median(raw)
    if med <= 0.0:
        raise ValueError("median of distances is zero; distances are degenerate")
    return raw * (math.sqrt(chi2_quantile(0.5, df)) / med)


def translated_biweight(d, M: float, c: float):
    """Weight curve: 1 inside M, 0 beyond c, smooth biweight bridge between.

    w(d) = (1 - ((d - M)/(c - M))^2)^2 on M < d < c. Accepts scalars or
    arrays; requires c > M >= 0.
    """
    if not c > M:
        raise ValueError(f"biweight needs c > M, got M={M}, c={c}")
    if M < 0.0:
        raise ValueError(f"biweight needs M >= 0, got M={M}")
    d = np.asarray(d, dtype=float)
    u = (d - M) / (c - M)
    w = np.where(d <= M, 1.0, np.where(d >= c, 0.0, (1.0 - np.clip(u, 0.0, 1.0) ** 2) ** 2))
    return float(w) if w.ndim == 0 else w


def stage1_location(Zs, cfg: DetectorConfig = DetectorConfig()) -> tuple[np.ndarray, DistanceSet, np.ndarray]:
    """Location-outlier weights from kurtosis-weighted norms of sphered scores.

    Zs must already be median/MAD-sphered per column, so each column's
    weight is its absolute excess kurtosis |mean(z^4) - 3|, taken on the
    scores as given: near zero for normal scores, inflated by heavy and by
    light tails alike. The robust distance of a row is
    sqrt(sum_j r_j z_j^2), r the weights normalized to sum 1. The returned
    DistanceSet carries the biweight bounds: M at the full-weight distance
    quantile, c at median + multiplier * MAD.
    """
    Zs = np.asarray(Zs, dtype=float)
    p_star = Zs.shape[1]
    Z2 = Zs * Zs
    kurt = np.abs(np.mean(Z2 * Z2, axis=0) - 3.0)
    total = kurt.sum()
    if total > 0.0:
        rel = kurt / total
    else:
        rel = np.full(p_star, 1.0 / p_star)  # no kurtosis signal anywhere: weight evenly
    raw = np.sqrt(Z2 @ rel)
    d = transform_distances(raw, p_star)
    m_cut = quantile(d, cfg.stage1_full_weight_fraction)
    med, spread = median_mad(d)
    c_cut = float(med + cfg.stage1_c_mad_multiplier * spread)
    if c_cut > m_cut:
        w1 = translated_biweight(d, m_cut, c_cut)
    else:
        # all distances essentially equal: no evidence of location outliers
        w1 = (d <= m_cut).astype(float)
    return w1, DistanceSet(raw, d, m_cut, c_cut), kurt


def stage2_scatter(Zs, cfg: DetectorConfig = DetectorConfig()) -> tuple[np.ndarray, DistanceSet]:
    """Scatter-outlier weights from plain Euclidean norms of sphered scores.

    The biweight bounds, sqrt of the chi-square quantiles at p*, are carried
    on the returned DistanceSet.
    """
    Zs = np.asarray(Zs, dtype=float)
    p_star = Zs.shape[1]
    raw = np.sqrt((Zs**2).sum(axis=1))
    d = transform_distances(raw, p_star)
    m_cut = math.sqrt(chi2_quantile(cfg.stage2_m_quantile, p_star))
    c_cut = math.sqrt(chi2_quantile(cfg.stage2_c_quantile, p_star))
    return translated_biweight(d, m_cut, c_cut), DistanceSet(raw, d, m_cut, c_cut)


def combine_weights(w1, w2, s: float) -> np.ndarray:
    """Multiplicative combination (w1 + s)(w2 + s) / (1 + s)^2."""
    w1 = np.asarray(w1, dtype=float)
    w2 = np.asarray(w2, dtype=float)
    if w1.shape != w2.shape:
        raise ValueError(f"weight vectors differ in length: {w1.shape} vs {w2.shape}")
    if s < 0.0:
        raise ValueError(f"scale constant must be nonnegative, got {s}")
    return (w1 + s) * (w2 + s) / (1.0 + s) ** 2


def detect(X, cfg: DetectorConfig = DetectorConfig()) -> WeightReport:
    """Run the full two-stage detector on an n x p matrix.

    Returns a WeightReport holding per-row stage weights, distances, final
    weights and flags (final weight strictly below cfg.outlier_cut), plus the
    retained dimension and the dropped zero-MAD columns.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {X.shape}")
    n = X.shape[0]
    if n < 3:
        raise ValueError(f"need at least 3 rows, got {n}")
    if not np.all(np.isfinite(X)):
        raise ValueError("non-finite values in data matrix")

    try:
        Xs, dropped = robust_sphere(X)
    except ValueError as exc:
        raise ValueError(f"sphering failed: {exc}") from exc

    try:
        basis = pca_basis(Xs, cfg.variance_threshold, max_components=n - 1)
        Z = project(Xs, basis)
    except ValueError as exc:
        raise ValueError(f"principal-component step failed: {exc}") from exc

    try:
        Zs, _ = robust_sphere(Z)  # a zero-MAD score column is dropped here too
    except ValueError as exc:
        raise ValueError(f"score sphering failed: {exc}") from exc

    try:
        w1, d1, kurt = stage1_location(Zs, cfg)
    except ValueError as exc:
        raise ValueError(f"stage 1 (location) failed: {exc}") from exc
    try:
        w2, d2 = stage2_scatter(Zs, cfg)
    except ValueError as exc:
        raise ValueError(f"stage 2 (scatter) failed: {exc}") from exc

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
