"""Comparison detectors: classical Mahalanobis with a chi-square cutoff, the
orthogonalized pairwise-robust (OGK) location/scatter estimator, and a
spatial-sign PCA detector. When n > p, OGK detection always refines its
estimate by hard rejection at OGK_BETA = 0.9; when p >= n it scores the row
norms of the robustly sphered eigenvector scores instead.

All three turn distances into flags the same way (``_chi2_cut``): flagged
beyond sqrt(chi2(df, 1 - alpha)). OGK and sign2 first median-calibrate their
distances with ``prcmpout.transform_distances``, the rule PrCmpOut applies, and
OGK's wide branch spheres its scores with ``robust.robust_sphere``. Every
distance, and sign2's signs, comes from ``robust.row_norms``.

Classical and OGK's n > p distances go through ``robust_distances``: one
Cholesky factor L of the scatter, and the row norms of the centred rows times
L^-T. A fit centres its rows once: its mean, its ``spectral.covariance`` and,
for classical, its distances all come from the same centred rows.
The product trace(C) ||L^-1||_F^2 bounds the condition number from above;
only when it fails to certify the scatter is the scatter eigendecomposed and
refused as singular when its smallest eigenvalue is at most _SINGULAR_RTOL
times its largest.

OGK's p(p - 1)/2 pairwise scales are taken block by block: each block writes
the sums and differences of consecutive pairs of columns into one buffer and
takes their MADs with one call of robust's lane kernel, which sorts n <= 256.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chisq import chi2_quantile
from .prcmpout import checked_matrix, transform_distances
from .robust import _lane_median_mad, median, median_mad, robust_sphere, row_norms
from .spectral import covariance, pca_basis, project, sym_eigen

_SINGULAR_RTOL = 1e-12
# trace(C) trace(C^-1) below this certifies C passes the singular test
_CERTIFIED = 0.1 / _SINGULAR_RTOL

# Hard-rejection level of the OGK reweighting step.
OGK_BETA = 0.9

# Cell budget (float64 samples, 2 MiB) of a block in OGK's pairwise step: a
# block holds at most max(p - 1, _OGK_BLOCK_CELLS // n) lanes of n samples.
_OGK_BLOCK_CELLS = 2**18


@dataclass(frozen=True)
class LocationScatter:
    """A location vector and a symmetric positive-semidefinite scatter matrix."""

    location: np.ndarray
    scatter: np.ndarray


@dataclass(frozen=True)
class DetectionResult:
    """Distances, the cutoff they were compared against, and the flags."""

    distances: np.ndarray
    cutoff: float
    flags: np.ndarray
    method: str


def robust_distances(D, C) -> np.ndarray:
    """Mahalanobis distances under the scatter C of the centred rows D = X - location.

    C is factored once, C = L L' (``np.linalg.cholesky``, which reads its lower
    triangle), and the distances are the row norms of D @ L^-T. Since
    trace(C) ||L^-1||_F^2 = trace(C) trace(C^-1) is at least lambda_max /
    lambda_min, a product below _CERTIFIED shows that the singular test
    (smallest eigenvalue at most _SINGULAR_RTOL times the largest) cannot fire,
    with a factor of ten to spare for rounding, and no eigendecomposition is
    made. A NaN or infinite product fails that check. Only then, or when the
    factor or its inverse cannot be formed, is C eigendecomposed and the test
    applied; a C that passes it without a factor is whitened by its eigenpairs
    instead. A non-finite C never gets a result.
    """
    try:
        Linv = np.linalg.inv(np.linalg.cholesky(C))
    except np.linalg.LinAlgError:
        Linv = None
    else:
        with np.errstate(over="ignore"):  # an overflowed trace reads inf, which fails the check
            bound = float(C.trace()) * float(np.vdot(Linv, Linv))
    if Linv is None or not bound < _CERTIFIED:
        if not np.isfinite(C).all():
            raise ValueError("scatter matrix is not finite (the data come too near the float range)")
        evals, evecs = sym_eigen(C)
        if evals[-1] <= _SINGULAR_RTOL * max(evals[0], 1e-300):
            raise ValueError(
                f"scatter matrix is singular: smallest eigenvalue {evals[-1]:.3e} "
                f"against largest {evals[0]:.3e}"
            )
        if Linv is None:  # Linv' Linv = C^-1 from the eigenpairs
            Linv = (evecs / np.sqrt(evals)).T
    return row_norms(D @ Linv.T)


def check_alpha(alpha: float):
    """The cutoff level every comparison detector takes: 1 - alpha in (0, 1)."""
    if not 0.0 < 1.0 - alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1) with 1 - alpha below 1, got {alpha}")


def _chi2_cut(dist: np.ndarray, df: int, alpha: float, method: str) -> DetectionResult:
    """Flag the distances beyond sqrt(chi2(df, 1 - alpha))."""
    cutoff = math.sqrt(chi2_quantile(1.0 - alpha, df))
    return DetectionResult(distances=dist, cutoff=cutoff, flags=dist > cutoff, method=method)


def classical_detect(X, alpha: float) -> DetectionResult:
    """Sample mean/covariance distances flagged beyond sqrt(chi2(p, 1 - alpha)).

    Requires n > p; for wider matrices use the principal-component detector.
    """
    X = checked_matrix(X)
    check_alpha(alpha)
    n, p = X.shape
    if n <= p:
        raise ValueError(
            f"classical detection needs n > p (got n={n}, p={p}); "
            "use the prcmpout method, which handles wide matrices"
        )
    Xc = X - np.add.reduce(X, axis=0) / n  # X.mean(axis=0) bit for bit
    return _chi2_cut(robust_distances(Xc, covariance(Xc)), p, alpha, "classical")


def _quarter_difference(plus, minus):
    """The OGK covariance from the scales of x + y and x - y:
    (scale(x + y)^2 - scale(x - y)^2) / 4. With the classical standard
    deviation as the scale this is exactly the sample covariance."""
    return 0.25 * (plus**2 - minus**2)


def _ogk_pairwise(Yt) -> np.ndarray:
    """The pairwise covariances of the rows of Yt (p lanes of n samples), for
    the pairs i < j in row-major order.

    The pairs are taken in blocks of consecutive pairs: a block writes its
    sums and then its differences into one C-ordered buffer, reused from
    block to block, and takes all their MADs with one call of robust's lane
    kernel, which sorts lanes of n <= 256 samples whole (robust._select). A
    block holds at most max(p - 1, _OGK_BLOCK_CELLS // n) lanes (and at least
    one pair): the whole triangle at the sweep's sizes, else several short rows
    of it or part of a long one. So the buffer is no larger than the (p - 1) x n
    sums of one row that a row-at-a-time loop holds, unless that is smaller than
    the budget."""
    p, n = Yt.shape
    cov = np.empty(p * (p - 1) // 2)
    pairs = max(1, max(p - 1, _OGK_BLOCK_CELLS // n) // 2)
    buf = np.empty(2 * min(pairs, cov.size) * n)
    i, j = 0, 1  # the next pair
    for start in range(0, cov.size, pairs):
        m = min(pairs, cov.size - start)
        lanes = buf[: 2 * m * n].reshape(2 * m, n)
        filled = 0
        while filled < m:
            k = min(p - j, m - filled)
            np.add(Yt[i], Yt[j : j + k], out=lanes[filled : filled + k])
            np.subtract(Yt[i], Yt[j : j + k], out=lanes[m + filled : m + filled + k])
            filled += k
            j += k
            if j == p:
                i, j = i + 1, i + 2
        scales = _lane_median_mad(lanes)[1]
        cov[start : start + m] = _quarter_difference(scales[:m], scales[m:])
    return cov


def _ogk_scores(X) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shared OGK pipeline: MAD column scales, eigenvectors of the pairwise
    matrix, and the data expressed in eigenvector coordinates. The scaled
    columns are laid out once, as rows (lanes): ``_ogk_pairwise`` builds its
    sums and differences from them block by block, and their transpose is scored."""
    X = np.asarray(X, dtype=float)
    p = X.shape[1]
    _, d = median_mad(X, axis=0)
    if np.any(d == 0.0):
        raise ValueError(f"columns with zero MAD: {np.flatnonzero(d == 0.0).tolist()}")
    Yt = np.divide(X.T, d[:, None], order="C")

    U = np.eye(p)
    upper = np.triu(np.ones((p, p), dtype=bool), 1)
    U[upper] = U.T[upper] = _ogk_pairwise(Yt)
    del upper

    _, E = sym_eigen(U)
    return d, E, Yt.T @ E


def ogk_estimate(X) -> LocationScatter:
    """Orthogonalized pairwise-robust location and scatter.

    Columns are scaled by their MADs; the pairwise robust covariance matrix
    (unit diagonal in scaled coordinates) is eigendecomposed, robust location
    and variance are taken coordinatewise in the eigenvector space (median and
    squared MAD), and the transform is inverted. The scatter is B B' with
    B = (d E) diag(sigma), for the column MADs d, the eigenvectors E and the
    scores' MADs sigma: positive semidefinite, and exactly symmetric as numpy
    forms a matrix times its own transpose.
    """
    d, E, Z = _ogk_scores(X)
    nu, sigma = median_mad(Z, axis=0)
    A = d[:, None] * E
    B = A * sigma
    return LocationScatter(location=A @ nu, scatter=B @ B.T)


def ogk_reweight(X, est: LocationScatter, beta: float = OGK_BETA) -> LocationScatter:
    """Hard-rejection refinement of an OGK estimate.

    Squared robust distances are compared against
    d0^2 = chi2(beta, p) * med(d^2) / chi2(0.5, p), for beta in (0, 1); rows
    at or beyond d0 are discarded and the plain mean and covariance of the
    remainder returned, both from one centring of the kept rows.
    """
    X = np.asarray(X, dtype=float)
    p = X.shape[1]
    with np.errstate(over="ignore"):  # a distance past about 1e154 squares to inf, rejected
        d2 = robust_distances(X - est.location, est.scatter) ** 2
    d0_sq = chi2_quantile(beta, p) * float(median(d2)) / chi2_quantile(0.5, p)
    keep = d2 < d0_sq
    if keep.sum() < p + 1:
        raise ValueError(
            f"only {int(keep.sum())} rows retained by the reweighting; need at least {p + 1}"
        )
    sample = X[keep]
    location = np.add.reduce(sample, axis=0) / len(sample)  # sample.mean(axis=0) bit for bit
    sample -= location
    return LocationScatter(location=location, scatter=covariance(sample))


def ogk_detect(X, alpha: float) -> DetectionResult:
    """OGK-based detection with a median-calibrated chi-square cutoff.

    For n > p the estimate is refined by the hard-rejection step at OGK_BETA
    and distances come from the refined scatter. For wide matrices (p >= n) the
    refinement needs more rows than exist, so the eigenvector scores are
    robustly sphered and the distances are their row norms: the Mahalanobis
    distance under the OGK estimate, skipping coordinates with zero scale.
    Convenience composition used by the command line and the benchmark harness.
    """
    X = checked_matrix(X)
    check_alpha(alpha)
    n, p = X.shape
    if n > p:
        est = ogk_reweight(X, ogk_estimate(X))
        dist = robust_distances(X - est.location, est.scatter)
    else:
        dist = row_norms(robust_sphere(_ogk_scores(X)[2])[0])
    return _chi2_cut(transform_distances(dist, p), p, alpha, "ogk")


def _unit_rows(D: np.ndarray) -> np.ndarray:
    """Spatial signs of the nonzero rows of D, each scaled to unit norm however
    near either end of the float range it sits; a zero row (a row at the
    center) has no direction and is left out."""
    norms = row_norms(D)
    off = norms > 0.0
    S = D[off]
    S /= norms[off, None]
    return S


def sign2_detect(X, alpha: float) -> DetectionResult:
    """Spatial-sign PCA detection.

    Rows are centered at the coordinatewise median and mapped to unit vectors
    (spatial signs), which caps the influence any single point can exert.
    PCA runs on the signs; the original centered data are projected onto the
    retained directions, each score column is scaled by its MAD, and the row
    norms are median-calibrated and flagged beyond sqrt(chi2(p*, 1 - alpha)).

    Rows exactly at the center have no direction; they are left out of the
    sign covariance but still projected and scored.
    """
    X = checked_matrix(X)
    check_alpha(alpha)

    D = X - median(X, axis=0)
    S = _unit_rows(D)
    if len(S) < 2:
        raise ValueError("fewer than 2 rows away from the spatial center")

    basis = pca_basis(S)
    Z = project(D, basis)
    _, sc = median_mad(Z, axis=0)
    keep = sc > 0.0
    if not keep.any():
        raise ValueError("all projected score columns have zero MAD")
    Zs = Z[:, keep] / sc[keep]
    p_star = Zs.shape[1]
    dist = transform_distances(row_norms(Zs), p_star)
    return _chi2_cut(dist, p_star, alpha, "sign2")
