"""Order-statistics primitives: median, MAD, quantiles, the spatial (L1)
median, robust column sphering and a robust kurtosis measure.

Everything here is a pure function of its inputs. Scale estimation uses the
median absolute deviation multiplied by 1.4826, which makes it consistent for
the standard deviation at the normal distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Consistency factor for the MAD at the normal distribution.
MAD_SCALE = 1.4826


def _as_sample(values) -> np.ndarray:
    x = np.asarray(values, dtype=float)
    if x.ndim != 1:
        x = x.ravel()
    if x.size == 0:
        raise ValueError("empty sample")
    return x


def median(values) -> float:
    """Sample median; for even n, the mean of the two central order statistics."""
    return float(np.median(_as_sample(values)))


def median_mad(X, axis=None):
    """Median and scaled MAD (median absolute deviation times 1.4826).

    With ``axis=None`` both come from the flattened input; with ``axis=0``
    they are per-column arrays.
    """
    med = np.median(X, axis=axis)
    return med, MAD_SCALE * np.median(np.abs(X - med), axis=axis)


def mad(values) -> float:
    """Median absolute deviation about the median, scaled by 1.4826."""
    return float(median_mad(_as_sample(values))[1])


def quantile(values, prob: float) -> float:
    """Empirical quantile with linear interpolation between order statistics.

    The interpolation rule is fixed project-wide: with sorted values
    x_(1) <= ... <= x_(n), the quantile at probability q is taken at fractional
    index h = (n - 1) * q, interpolating linearly between the two bracketing
    order statistics. quantile(x, 0.5) coincides with median(x).
    """
    if not 0.0 <= prob <= 1.0:
        raise ValueError(f"quantile probability must be in [0, 1], got {prob}")
    return float(np.quantile(_as_sample(values), prob, method="linear"))


def l1_median(X, tol: float = 1e-10, max_iter: int = 500) -> np.ndarray:
    """Spatial median: the point minimizing the sum of Euclidean distances.

    Iteratively reweighted least squares (Weiszfeld iteration) with the
    standard modified step when the current iterate coincides with a data
    point. Stops when the step norm falls below `tol` or after `max_iter`
    iterations. Orthogonally equivariant up to the convergence tolerance.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.size == 0:
        raise ValueError("empty data matrix")
    if not np.all(np.isfinite(X)):
        raise ValueError("non-finite values in data matrix")
    n = X.shape[0]
    if n == 1:
        return X[0].copy()

    y = np.median(X, axis=0)
    for _ in range(max_iter):
        diff = X - y
        dist = np.sqrt((diff**2).sum(axis=1))
        coincident = dist < 1e-300
        eta = int(coincident.sum())
        inv = np.zeros(n)
        inv[~coincident] = 1.0 / dist[~coincident]
        wsum = inv.sum()
        if wsum == 0.0:
            return y  # all points coincide with the iterate
        t_tilde = (inv @ X) / wsum
        if eta == 0:
            y_new = t_tilde
        else:
            # Vardi-Zhang step: pull back toward the coincident data point
            r = np.linalg.norm(inv @ diff)
            if r == 0.0:
                return y
            gamma = min(1.0, eta / r)
            y_new = (1.0 - gamma) * t_tilde + gamma * y
        step = np.linalg.norm(y_new - y)
        y = y_new
        if step < tol:
            break
    return y


@dataclass(frozen=True)
class ScaleParams:
    """Per-column medians and MADs plus the set of dropped (MAD = 0) columns."""

    medians: np.ndarray
    mads: np.ndarray
    dropped_columns: frozenset[int]

    @property
    def kept_columns(self) -> np.ndarray:
        p = self.medians.shape[0]
        return np.array([j for j in range(p) if j not in self.dropped_columns], dtype=int)


def robust_sphere(X) -> tuple[np.ndarray, ScaleParams]:
    """Standardize each column to median 0 and MAD 1; drop MAD-zero columns.

    Returns the transformed matrix restricted to the retained columns and the
    ScaleParams recording medians, MADs, and which columns were dropped.
    Raises if fewer than two rows are given or every column has zero MAD.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {X.shape}")
    if X.shape[0] < 2:
        raise ValueError("sphering needs at least 2 rows")
    medians, mads = median_mad(X, axis=0)
    keep = mads > 0.0
    if not keep.any():
        raise ValueError("all columns have zero MAD; nothing to analyze")
    dropped = frozenset(int(j) for j in np.flatnonzero(~keep))
    Xs = (X[:, keep] - medians[keep]) / mads[keep]
    return Xs, ScaleParams(medians=medians, mads=mads, dropped_columns=dropped)


def robust_kurtosis_weight(values) -> float:
    """Absolute robust excess kurtosis: |mean((z - med)^4) / MAD^4 - 3|.

    Near zero for normal samples; inflated by both heavy and clipped tails,
    which is why the absolute value is taken.
    """
    z = _as_sample(values)
    med, scale = median_mad(z)
    if scale == 0.0:
        raise ValueError("zero MAD; kurtosis weight undefined")
    return float(abs(np.mean(((z - med) / scale) ** 4) - 3.0))
