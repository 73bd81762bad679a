import math

import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from pcout.chisq import chi2_cdf, chi2_quantile

DF_GRID = [1, 2, 5, 10, 40, 99]
PROB_GRID = [0.01, 0.25, 0.5, 0.95, 0.99]


def _cdf_by_quadrature(x, df, steps=20000):
    """Composite Simpson integration of the chi-square density on (0, x].

    The density is singular at 0 for df = 1, so integrate in u = sqrt(t):
    the transformed integrand 2 u^(df-1) exp(-u^2/2) / (2^(df/2) Gamma(df/2))
    is smooth for df >= 1.
    """
    if x <= 0:
        return 0.0
    a = df / 2.0
    norm = 2.0 / math.exp(a * math.log(2.0) + math.lgamma(a))

    def g(u):
        if u == 0.0:
            return norm if df == 1 else 0.0
        return norm * math.exp((df - 1) * math.log(u) - u * u / 2.0)

    h = math.sqrt(x) / steps
    total = 0.0
    for i in range(steps):
        u0, u1 = i * h, (i + 1) * h
        total += (u1 - u0) / 6.0 * (g(u0) + 4 * g(0.5 * (u0 + u1)) + g(u1))
    return total


class TestCdf:
    @pytest.mark.parametrize("df", DF_GRID)
    def test_zero_at_the_origin(self, df):
        assert chi2_cdf(0.0, df) == 0.0

    @pytest.mark.parametrize("df", [1, 2, 5, 10, 50, 100])
    def test_mean_exceeds_median(self, df):
        # quadrature oracle agrees, and the value sits in (0.5, 0.7)
        value = chi2_cdf(float(df), df)
        assert value == pytest.approx(_cdf_by_quadrature(float(df), df), abs=1e-8)
        assert 0.5 < value < 0.7

    def test_table_anchor_p10(self):
        assert chi2_cdf(18.307, 10) == pytest.approx(0.95, abs=1e-4)

    def test_negative_argument_errors(self):
        with pytest.raises(ValueError):
            chi2_cdf(-0.1, 3)

    def test_bad_df_errors(self):
        with pytest.raises(ValueError):
            chi2_cdf(1.0, 0.0)

    @pytest.mark.parametrize("df", DF_GRID)
    def test_against_scipy(self, df):
        for x in [0.01, 0.5, 1.0, float(df), 2.0 * df, 5.0 * df]:
            assert chi2_cdf(x, df) == pytest.approx(stats.chi2.cdf(x, df), rel=1e-12, abs=1e-13)

    @given(st.floats(0.01, 200.0), st.floats(0.01, 150.0))
    def test_monotone_in_x(self, x, df):
        assert chi2_cdf(x, df) <= chi2_cdf(x * 1.5, df) + 1e-15


class TestQuantile:
    def test_cutoff_p10_alpha05(self):
        assert math.sqrt(chi2_quantile(0.95, 10)) == pytest.approx(4.278672, abs=1e-4)

    def test_cutoff_p40_alpha20(self):
        assert math.sqrt(chi2_quantile(0.80, 40)) == pytest.approx(6.875212, abs=1e-4)

    @pytest.mark.parametrize("df", DF_GRID)
    @pytest.mark.parametrize("prob", PROB_GRID)
    def test_round_trip(self, df, prob):
        x = chi2_quantile(prob, df)
        assert chi2_cdf(x, df) == pytest.approx(prob, rel=1e-8, abs=1e-12)

    @pytest.mark.parametrize("df", DF_GRID)
    @pytest.mark.parametrize("prob", PROB_GRID)
    def test_against_scipy(self, df, prob):
        assert chi2_quantile(prob, df) == pytest.approx(stats.chi2.ppf(prob, df), rel=1e-10)

    @pytest.mark.parametrize("prob", [0.0, 1.0, -0.2, 1.3])
    def test_probability_bounds(self, prob):
        with pytest.raises(ValueError):
            chi2_quantile(prob, 5)
