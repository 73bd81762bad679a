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

# relative threshold below which an eigenvalue is treated as numerically zero
_RANK_TOL = 1e-12
# relative asymmetry sym_eigen tolerates before it refuses a matrix
_SYMMETRY_TOL = 1e-8


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
    """Sample covariance with denominator n - 1, symmetrized."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {X.shape}")
    n = X.shape[0]
    if n < 2:
        raise ValueError("covariance needs at least 2 rows")
    Xc = X - X.mean(axis=0)
    C = Xc.T @ Xc / (n - 1)
    return (C + C.T) / 2.0


def sym_eigen(C) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (nonincreasing) and orthonormal eigenvectors of symmetric C.

    Works for any symmetric matrix, indefinite ones included; clamping of
    roundoff-negative eigenvalues happens where a covariance is expected
    (see pca_basis). Raises if C is asymmetric beyond _SYMMETRY_TOL relative
    to its magnitude. Each eigenvector keeps the sign np.linalg.eigh gives it;
    callers in the package are invariant to those signs.
    """
    C = np.asarray(C, dtype=float)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {C.shape}")
    B = np.subtract(C, C.T)  # one owned buffer: the asymmetry, then the symmetrized C
    if float(np.abs(B, out=B).max()) > _SYMMETRY_TOL * max(1.0, float(C.max()), -float(C.min())):
        raise ValueError("matrix is not symmetric within tolerance")
    np.add(C, C.T, out=B)
    B /= 2.0
    w, V = np.linalg.eigh(B)
    del B
    order = np.argsort(w)[::-1]
    return w[order], V[:, order]


def retain_components(eigenvalues, threshold: float, max_components: int | None = None) -> int:
    """Smallest k whose leading eigenvalues cover `threshold` of the total.

    Optionally capped at `max_components` (the n - 1 cap that guarantees a
    nonsingular score space).
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"variance threshold must be in (0, 1], got {threshold}")
    ev = np.asarray(eigenvalues, dtype=float)
    if ev.size == 0 or not ev.sum() > 0.0:
        raise ValueError("all-zero spectrum; nothing to retain")
    frac = np.cumsum(ev)
    frac /= frac[-1]
    k = int(np.argmax(frac >= threshold - 1e-12)) + 1
    if max_components is not None:
        k = min(k, max_components)
    return max(k, 1)


def project(Xs, basis: PcaBasis) -> np.ndarray:
    """Scores of Xs in the basis: the matrix product Xs @ eigenvectors."""
    Xs = np.asarray(Xs, dtype=float)
    if Xs.ndim != 2 or Xs.shape[1] != basis.eigenvectors.shape[0]:
        raise ValueError(
            f"dimension mismatch: data has {Xs.shape[1] if Xs.ndim == 2 else '?'} columns, "
            f"basis expects {basis.eigenvectors.shape[0]}"
        )
    return Xs @ basis.eigenvectors


def pca_basis(Xs, variance_threshold: float = 0.99, max_components: int | None = None) -> PcaBasis:
    """Principal-component basis of the covariance of Xs.

    Decomposes the smaller matrix: the n x n Gram matrix Xc Xc'/(n - 1) when
    p > n, otherwise the p x p covariance Xc'Xc/(n - 1). Retention keeps the
    leading components covering `variance_threshold` of total variance,
    capped at n - 1 (and at `max_components` when given).
    """
    Xs = np.asarray(Xs, dtype=float)
    if Xs.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {Xs.shape}")
    n, p = Xs.shape
    Xc = Xs - Xs.mean(axis=0)
    # M's trace sums n * p squares: past the float range, decompose M / 4**e,
    # Xc scaled by the exact power of two 2**-e that puts its largest |entry| in [0.5, 1)
    big = max(float(Xc.max(initial=0.0)), -float(Xc.min(initial=0.0)))  # no |Xc| copy
    e = int(np.frexp(big)[1]) if big > math.sqrt(sys.float_info.max / (n * p)) else 0
    if e:
        np.ldexp(Xc, -e, out=Xc)
    M = (Xc @ Xc.T if p > n else Xc.T @ Xc) / (n - 1)
    total = float(np.trace(M))
    if total <= 0.0:
        raise ValueError("zero total variance; nothing to decompose")
    w, V = sym_eigen(M)
    w = np.clip(w, 0.0, None)  # roundoff negatives, the matrix is a covariance or its Gram twin
    if p > n:
        # Gram route: the nonzero eigenpairs, mapped back to p-space and renormalized in place
        nonzero = w > _RANK_TOL * max(float(w[0]), 1.0)
        w = w[nonzero]
        V = Xc.T @ V[:, nonzero]
        del Xc, M
        V /= np.sqrt((V**2).sum(axis=0))
    cap = n - 1 if max_components is None else min(n - 1, max_components)
    k = retain_components(w, variance_threshold, max_components=cap)
    fraction = min(float(w[:k].sum()) / total, 1.0)
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
