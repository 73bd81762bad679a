"""Covariance, symmetric eigendecomposition and principal-component plumbing.

When the number of columns exceeds the number of rows, the eigenpairs of the
p x p covariance are recovered from the n x n Gram matrix instead, which keeps
the cost tied to the sample size. Eigenvectors keep the signs LAPACK gives
them: every consumer in the package uses a component only through squared
norms, per-column medians and MADs of its scores, or products in which its
sign cancels, so no output depends on those signs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .robust import row_norms

# relative threshold below which an eigenvalue is treated as numerically zero
_RANK_TOL = 1e-12


@dataclass(frozen=True)
class PcaBasis:
    """Retained eigenpairs of a covariance matrix.

    eigenvectors: p x k matrix with orthonormal columns, in no sign convention.
    eigenvalues: the k retained variances, nonincreasing.
    variance_fraction: share of total variance the retained pairs cover.
    total_variance: trace of the decomposed matrix, the covariance or its Gram twin.
    """

    eigenvectors: np.ndarray
    eigenvalues: np.ndarray
    variance_fraction: float
    total_variance: float

    @property
    def n_components(self) -> int:
        return self.eigenvectors.shape[1]


def covariance(X) -> np.ndarray:
    """Sample covariance with denominator n - 1 of a matrix the caller gives at
    least 2 rows, exactly symmetric as computed: numpy forms Xc'Xc, a matrix
    times its own transpose, as one mirrored triangle."""
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    Xc = X - X.mean(axis=0)
    return Xc.T @ Xc / (n - 1)


def sym_eigen(C) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (nonincreasing) and orthonormal eigenvectors of C, a square
    matrix the caller builds exactly symmetric.

    np.linalg.eigh reads C's lower triangle only, as the Cholesky factor of
    baselines.robust_distances does. Works for any symmetric matrix, indefinite
    ones included; clamping of roundoff-negative eigenvalues happens where a
    covariance is expected (see pca_basis). Each eigenvector keeps the sign
    eigh gives it; callers in the package are invariant to those signs.
    """
    w, V = np.linalg.eigh(C)
    order = w.argsort()[::-1]
    return w[order], V[:, order]


def retain_components(eigenvalues, threshold: float, max_components: int) -> int:
    """Smallest k whose leading eigenvalues cover `threshold`, in (0, 1], of the total,
    capped at `max_components` (the n - 1 cap that guarantees a nonsingular score space).
    """
    ev = np.asarray(eigenvalues, dtype=float)
    if ev.size == 0 or not np.add.reduce(ev) > 0.0:
        raise ValueError("all-zero spectrum; nothing to retain")
    frac = np.add.accumulate(ev)
    frac /= frac[-1]
    k = int((frac >= threshold - 1e-12).argmax()) + 1
    return max(min(k, max_components), 1)


def project(Xs, basis: PcaBasis) -> np.ndarray:
    """Scores of Xs in the basis: the matrix product Xs @ eigenvectors, for a basis
    built from the columns of Xs."""
    return np.asarray(Xs, dtype=float) @ basis.eigenvectors


def pca_basis(Xs, variance_threshold: float = 0.99, max_components: int | None = None) -> PcaBasis:
    """Principal-component basis of the covariance of the n x p matrix Xs.

    Decomposes the smaller matrix: the n x n Gram matrix Xc Xc'/(n - 1) when
    p > n, otherwise the p x p covariance Xc'Xc/(n - 1). Retention keeps the
    leading components covering `variance_threshold` of total variance,
    capped at n - 1 (and at `max_components` when given).
    """
    Xs = np.asarray(Xs, dtype=float)
    n, p = Xs.shape
    Xc = Xs - np.add.reduce(Xs, axis=0) / n
    # M's trace sums n * p squares: past the float range, decompose M / 4**e,
    # Xc scaled by the exact power of two 2**-e that puts its largest |entry| in [0.5, 1)
    top, bottom = np.maximum.reduce(Xc, None, initial=0.0), np.minimum.reduce(Xc, None, initial=0.0)
    big = max(float(top), -float(bottom))  # no |Xc| copy
    e = int(np.frexp(big)[1]) if big > math.sqrt(sys.float_info.max / (n * p)) else 0
    if e:
        np.ldexp(Xc, -e, out=Xc)
    M = (Xc @ Xc.T if p > n else Xc.T @ Xc) / (n - 1)
    if p <= n:
        del Xc  # only the Gram route maps eigenvectors back through Xc: free it before eigh
    total = float(M.trace())
    if total <= 0.0:
        raise ValueError("zero total variance; nothing to decompose")
    w, V = sym_eigen(M)
    w = np.maximum(w, 0.0)  # roundoff negatives, the matrix is a covariance or its Gram twin
    if p > n:
        # Gram route: the nonzero eigenpairs, mapped back to p-space and scaled in place to unit columns
        nonzero = w > _RANK_TOL * max(float(w[0]), 1.0)
        w = w[nonzero]
        V = Xc.T @ V[:, nonzero]
        del Xc, M
        V /= row_norms(V.T)
    cap = n - 1 if max_components is None else min(n - 1, max_components)
    k = retain_components(w, variance_threshold, cap)
    fraction = min(float(np.add.reduce(w[:k])) / total, 1.0)
    eigenvalues = w[:k].copy()
    if e:  # back to the units of Xs, where a variance past the float range reads inf
        with np.errstate(over="ignore"):
            eigenvalues, total = np.ldexp(eigenvalues, 2 * e), float(np.ldexp(total, 2 * e))
    return PcaBasis(
        eigenvectors=V[:, :k],
        eigenvalues=eigenvalues,
        variance_fraction=fraction,
        total_variance=total,
    )
