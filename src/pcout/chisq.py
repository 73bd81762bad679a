"""Chi-square CDF and quantile function, self-contained.

The CDF is the regularized lower incomplete gamma function P(df/2, x/2),
evaluated by the classic two-regime scheme: a power series for x < a + 1 and
a Lentz-style continued fraction for the complementary function otherwise.
The quantile is a Newton iteration on the CDF, bracketed and refined by
bisection whenever a Newton step leaves the bracket.
"""

from __future__ import annotations

import math

_EPS = 1e-15
_MAX_ITER = 400


def _gamma_p_series(a: float, x: float) -> float:
    # P(a, x) = x^a e^-x / Gamma(a+1) * sum_n x^n / ((a+1)...(a+n))
    term = 1.0 / a
    total = term
    ap = a
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gamma_q_contfrac(a: float, x: float) -> float:
    # Q(a, x) via the continued fraction, modified Lentz algorithm
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _regularized_gamma_p(a: float, x: float) -> float:
    if x <= 0.0:
        return 0.0
    if x < a + 1.0:
        return min(_gamma_p_series(a, x), 1.0)
    return max(1.0 - _gamma_q_contfrac(a, x), 0.0)


def chi2_cdf(x: float, df: float) -> float:
    """P(chi-square with df degrees of freedom <= x)."""
    if df <= 0.0:
        raise ValueError(f"degrees of freedom must be positive, got {df}")
    if x < 0.0:
        raise ValueError(f"chi-square CDF argument must be nonnegative, got {x}")
    return _regularized_gamma_p(df / 2.0, x / 2.0)


def _chi2_pdf(x: float, df: float) -> float:
    if x <= 0.0:
        return 0.0
    a = df / 2.0
    return math.exp((a - 1.0) * math.log(x) - x / 2.0 - math.lgamma(a) - a * math.log(2.0))


def chi2_quantile(prob: float, df: float) -> float:
    """Inverse chi-square CDF, accurate to better than 1e-10 relative."""
    if df <= 0.0:
        raise ValueError(f"degrees of freedom must be positive, got {df}")
    if not 0.0 < prob < 1.0:
        raise ValueError(f"quantile probability must be strictly inside (0, 1), got {prob}")

    # Wilson-Hilferty starting point; crude normal quantile is good enough here
    z = _normal_quantile(prob)
    t = 1.0 - 2.0 / (9.0 * df) + z * math.sqrt(2.0 / (9.0 * df))
    x = df * t**3 if t > 0.0 else df * math.exp(z * math.sqrt(2.0 / df))
    x = max(x, 1e-300)

    # establish a bracket [lo, hi] with cdf(lo) <= prob <= cdf(hi)
    lo, hi = 0.0, x
    while chi2_cdf(hi, df) < prob:
        lo = hi
        hi *= 2.0

    for _ in range(200):
        f = chi2_cdf(x, df) - prob
        if f > 0.0:
            hi = x
        else:
            lo = x
        deriv = _chi2_pdf(x, df)
        step_ok = False
        if deriv > 0.0:
            x_new = x - f / deriv
            if lo < x_new < hi:
                step_ok = True
        if not step_ok:
            x_new = 0.5 * (lo + hi)
        if abs(x_new - x) <= 1e-14 * max(x, 1.0):
            return x_new
        x = x_new
    return x


def _normal_quantile(p: float) -> float:
    # Abramowitz & Stegun 26.2.23 rational approximation; only used to seed
    # the Newton iteration, so 3e-3 absolute accuracy is plenty.
    if p == 0.5:
        return 0.0
    flip = p > 0.5
    q = 1.0 - p if flip else p
    t = math.sqrt(-2.0 * math.log(q))
    z = t - (2.30753 + 0.27061 * t) / (1.0 + 0.99229 * t + 0.04481 * t * t)
    return z if flip else -z
