"""Order-statistics primitives: median/MAD, the type-7 quantile, the spatial
(L1) median, robust column sphering and the row norms every detector scores by.

Every median and quantile in the package is taken here, by one lane kernel
that sorts a lane of at most 256 values whole and partitions a longer one at
one kth; ``calibrate`` reads several of them, before and after a positive
scaling, from one ordering of one copy. Every Euclidean norm outside this
module is taken by ``row_norms``, which rescales rows by powers of two only
when a norm falls where a square may overflow or underflow.
Everything here is a pure function of its inputs. Scale estimation uses the
median absolute deviation multiplied by 1.4826, which makes it consistent for
the standard deviation at the normal distribution.
"""

from __future__ import annotations

import math

import numpy as np

# Consistency factor for the MAD at the normal distribution.
MAD_SCALE = 1.4826

# The longest lane _select sorts whole; from 257 values on, numpy's sort costs a select's time
_SORTED_LANE = 256

_L1_TOL = 1e-10
_L1_MAX_ITER = 500


def _lanes(X, axis):
    """A C-ordered float copy of X with its lanes, the runs each statistic is taken
    over, on the last axis: all of X for axis=None, else X's 1-D slices along axis."""
    if axis is None:
        return np.array(X, dtype=float, order="C").ravel()
    X = np.asarray(X)
    lanes = X.T if axis == 0 and X.ndim <= 2 else np.moveaxis(X, axis, -1)
    return np.array(lanes, dtype=float, order="C")


def _select(A, k, ordered=False):
    """Order each lane (last axis) of A in place so that A[..., k] holds its kth
    smallest value, NaN last, and return ``largest(start, stop)``: the largest
    value of each lane's A[..., start:stop], a span on one side of k. A lane of
    at most _SORTED_LANE values is sorted whole, which numpy's SIMD sort does in
    less time than one select plus a strided reduction, or left as it is when
    ``ordered`` says the lanes are sorted already, and ``largest`` reads
    A[..., stop - 1]; a longer lane is partitioned at k, and ``largest`` reduces.
    Either way a 1-D A's ``largest`` is a number, as every read of one lane is
    here (``[()]``): numpy's arithmetic on a 0-d array costs ten times a number's."""
    if A.shape[-1] <= _SORTED_LANE:
        if not ordered:
            A.sort(axis=-1)
        return lambda start, stop: A[..., stop - 1][()]
    A.partition(k, axis=-1)
    return lambda start, stop: np.maximum.reduce(A[..., start:stop], axis=-1)


def _middle(A, ordered=False):
    """np.median of each lane (last axis) of A that holds no NaN, and _select's
    ``largest`` for A. A is a C-ordered float array the caller owns, ordered in
    place by _select at the upper middle. -0.0 reads 0.0."""
    h = A.shape[-1] // 2
    largest = _select(A, h, ordered)
    med = A[..., h][()] + 0.0
    if A.shape[-1] % 2 == 0:
        med += largest(0, h)
        med /= 2.0
    return med, largest


def _nan_for_nan_lanes(value, tail):
    """value, with NaN for each lane whose tail, its largest value from _select's
    kth on, is NaN: NaN sorts last, so those are the lanes holding a NaN. One
    lane's value and tail are numbers, checked without an array."""
    if isinstance(tail, np.ndarray):
        return np.where(np.isnan(tail), np.nan, value)
    return value if tail == tail else np.float64(np.nan)


def _lane_median(A, ordered=False):
    """np.median of each lane of A, as _middle takes it, NaN for a lane holding one."""
    med, largest = _middle(A, ordered)
    return _nan_for_nan_lanes(med, largest(A.shape[-1] // 2, A.shape[-1]))


def _lane_median_mad(A, ordered=False):
    """Median and scaled MAD of each lane of A, as _lane_median takes them; overwrites
    A. The MAD needs no NaN check of its own: a NaN or ±inf median makes at least
    half the deviations NaN, so the middle that _select orders already reads NaN."""
    med = _lane_median(A, ordered)
    A -= med[..., None]
    np.abs(A, out=A)
    return med, MAD_SCALE * _middle(A)[0]


def _lane_quantile(A, q, ordered=False):
    """np.quantile(lane, q), type 7, of each lane of A for q in [0, 1]; overwrites A.

    A is ordered by _select at the upper of the two order statistics the
    quantile interpolates between, so the lower one is the largest value left
    of it; the interpolation is numpy's _lerp arithmetic, with numpy's weight.
    """
    n = A.shape[-1]
    v = (n - 1) * q
    top = v >= n - 1  # numpy then interpolates from its index -1, the largest value, to itself
    k = n - 1 if top else int(v) + 1
    largest = _select(A, k, ordered)
    hi = A[..., k][()]
    lo = hi if top else largest(0, k)
    t = v + 1.0 if top else v - (k - 1)
    step = hi - lo
    value = hi - step * (1.0 - t) if t >= 0.5 else lo + step * t
    return _nan_for_nan_lanes(value, largest(k, n))


def median(X, axis=None):
    """np.median(X, axis) for an int axis or None, taken on a copy of X laid out as lanes."""
    return _lane_median(_lanes(X, axis))


def median_mad(X, axis=None):
    """Median and scaled MAD (median absolute deviation times 1.4826), of all of
    X for ``axis=None`` or per column for ``axis=0``. X is left as it is: the
    deviations overwrite the one copy of X laid out as lanes."""
    return _lane_median_mad(_lanes(X, axis))


def quantile(X, q, axis=None):
    """np.quantile(X, q, axis) (type 7, numpy's default) for q in [0, 1] and an int
    axis or None, taken on a copy of X laid out as lanes."""
    return _lane_quantile(_lanes(X, axis), q)


def calibrate(x, factor, q=None):
    """x * f for a 1-D x and the float f = factor(median(x)); with a q in [0, 1], also
    the type-7 q-quantile, the median and the scaled MAD of x * f, each the value
    ``quantile`` and ``median_mad`` take of x * f, NaN for an x holding NaN.

    All of it is read from one lane copy of x, ordered once. The median of x sorts
    a copy of at most _SORTED_LANE values whole; times a positive finite f, which
    never reverses an order, it is the sorted x * f bit for bit, and the quantile
    and the median are read from it by index. The MAD then overwrites the copy
    with its absolute deviations and orders those. A longer copy is partitioned
    at each statistic's kth in turn and never sorted whole.
    """
    x = np.asarray(x, dtype=float)
    A = _lanes(x, None)
    f = factor(_lane_median(A))
    d = x * f
    if q is None:
        return d
    A *= f
    ordered = 0.0 < f < math.inf  # an infinite f turns 0 into NaN, a NaN or negative one breaks the order
    return d, _lane_quantile(A, q, ordered), *_lane_median_mad(A, ordered)


def _scaled_row_norms(Z, weights=None) -> np.ndarray:
    """``row_norms``, taken on each row multiplied by the power of two that puts its
    largest |entry| in [0.5, 1), and its norm by the inverse after the square root:
    no square overflows or underflows, and the scaling is exact."""
    _, exponent = np.frexp(np.maximum(Z.max(axis=1), -Z.min(axis=1)))  # no |Z| copy
    Zn = np.ldexp(Z, -exponent[:, None])
    Zn *= Zn
    return np.ldexp(np.sqrt(np.add.reduce(Zn, axis=1) if weights is None else Zn @ weights), exponent)


def row_norms(Z, weights=None) -> np.ndarray:
    """sqrt(sum_j weights_j z_j^2) for each row of Z, all weights 1 by default: the
    plain computation's bits when every norm lies in [2^-400, inf), where no square
    that counts has overflowed or lost bits, else ``_scaled_row_norms``'s. Z may have no rows."""
    with np.errstate(over="ignore"):  # an entry past about 1e154 overflows its square
        d = np.sqrt(np.add.reduce(Z * Z, axis=1) if weights is None else (Z * Z) @ weights)
    in_band = (  # a NaN fails both
        np.minimum.reduce(d, initial=math.inf) >= 2.0**-400 and np.maximum.reduce(d, initial=0.0) < math.inf
    )
    return d if in_band else _scaled_row_norms(Z, weights)


def l1_median(X) -> np.ndarray:
    """Spatial median: the point minimizing the sum of Euclidean distances.

    Iteratively reweighted least squares (Weiszfeld iteration) with the
    standard modified step when the current iterate coincides with a data
    point, run on X over its largest |entry|: it stops when the step norm falls below
    ``_L1_TOL`` or after ``_L1_MAX_ITER`` iterations. Orthogonally equivariant up to
    that tolerance, and bit for bit under a power-of-two scale within the normals.
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

    scale = max(X.max(), -X.min()) or 1.0  # tolerances relative to the data, with no |X| copy
    X = X / scale
    y = median(X, axis=0)
    for _ in range(_L1_MAX_ITER):
        diff = X - y
        dist = row_norms(diff)
        coincident = dist < 1e-300
        eta = int(coincident.sum())
        inv = np.zeros(n)
        inv[~coincident] = 1.0 / dist[~coincident]
        wsum = inv.sum()
        if wsum == 0.0:
            break  # all points coincide with the iterate
        t_tilde = (inv @ X) / wsum
        if eta == 0:
            y_new = t_tilde
        else:
            # Vardi-Zhang step: pull back toward the coincident data point
            r = np.linalg.norm(inv @ diff)
            if r == 0.0:
                break
            gamma = min(1.0, eta / r)
            y_new = (1.0 - gamma) * t_tilde + gamma * y
        step = np.linalg.norm(y_new - y)
        y = y_new
        if step < _L1_TOL:
            break
    return y * scale


def robust_sphere(X) -> tuple[np.ndarray, frozenset[int]]:
    """Standardize each column of X, an n x p matrix the caller gives at least
    2 rows, to median 0 and MAD 1; drop MAD-zero columns.

    Returns the transformed matrix restricted to the retained columns and the
    indices of the dropped columns. Raises if every column has zero MAD.
    """
    X = np.asarray(X, dtype=float)
    medians, mads = median_mad(X, axis=0)
    keep = mads > 0.0
    dropped = frozenset(np.flatnonzero(~keep).tolist())
    if len(dropped) == X.shape[1]:
        raise ValueError(
            "all columns have zero MAD; nothing to analyze (a column has zero MAD when at "
            "least half its values are equal, for example duplicated rows)"
        )
    if dropped:
        X, medians, mads = X[:, keep], medians[keep], mads[keep]  # X is now an owned copy
    # one F-ordered copy, the layout of X[:, keep], which the products downstream round by
    Xs = np.subtract(X, medians, out=X if dropped else None, order="F")
    Xs /= mads
    return Xs, dropped
