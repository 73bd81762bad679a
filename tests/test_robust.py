import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from pcout import robust
from pcout.baselines import sign2_detect
from pcout.prcmpout import detect
from pcout.robust import (
    MAD_SCALE,
    _scaled_row_norms,
    calibrate,
    l1_median,
    median,
    median_mad,
    quantile,
    robust_sphere,
    row_norms,
)

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
samples = st.lists(finite_floats, min_size=1, max_size=40)

# robust._SORTED_LANE values that send every lane down one route of the lane
# kernel: partitioned at one kth (0), or sorted whole (above every lane's length)
_ROUTES = (0, 2**62)


class TestMedian:
    def test_odd(self):
        assert median_mad([3, 1, 2])[0] == 2

    def test_even_mean_of_middle_pair(self):
        assert median_mad([1, 2, 3, 4])[0] == 2.5

    def test_constant(self):
        assert median_mad([5, 5, 5])[0] == 5

    @given(samples)
    def test_permutation_invariant(self, xs):
        rng = np.random.default_rng(0)
        shuffled = rng.permutation(xs)
        assert median_mad(xs)[0] == median_mad(shuffled)[0]


# ties, signed zeros and infinities, among ordinary values
_cells = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)


@st.composite
def _matrices(draw):
    """An n x p matrix with n in 1..9 (odd and even), p in 1..4, and NaN in
    some columns only."""
    n, p = draw(st.integers(1, 9)), draw(st.integers(1, 4))
    X = np.array(draw(st.lists(_cells, min_size=n * p, max_size=n * p))).reshape(n, p)
    for j in draw(st.lists(st.integers(0, p - 1), max_size=p - 1, unique=True)):
        X[draw(st.integers(0, n - 1)), j] = np.nan
    return X


class TestSingleSelectKernel:
    """robust.median and median_mad give np.median's bytes, on every layout and
    on both routes of the lane kernel."""

    @staticmethod
    def _same(got, want):
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_matrices(), st.sampled_from([None, 0]), st.booleans())
    def test_median_and_mad_match_np_median(self, laid_out, monkeypatch, values, axis, one_d):
        X = laid_out(values[:, :1] if one_d else values)
        X = X[:, 0] if one_d else X
        for limit in _ROUTES:
            monkeypatch.setattr(robust, "_SORTED_LANE", limit)
            self._matches_np_median(X, axis)

    @classmethod
    def _matches_np_median(cls, X, axis):
        before = X.tobytes()
        with np.errstate(invalid="ignore"):  # inf - inf, in both computations
            med = np.median(X, axis=axis)
            mad = MAD_SCALE * np.median(np.abs(X - med), axis=axis)
            cls._same(median(X, axis=axis), med)
            got_med, got_mad = median_mad(X, axis=axis)
        cls._same(got_med, med)
        cls._same(got_mad, mad)
        assert X.tobytes() == before

    # lanes on both sides of the longest sorted one, odd and even: one without
    # ties, then ties, +-inf, signed zeros and a NaN in one lane
    @pytest.mark.parametrize("n", [robust._SORTED_LANE - 1, robust._SORTED_LANE, robust._SORTED_LANE + 1])
    def test_lanes_at_the_route_limit(self, laid_out, n):
        rng = np.random.Generator(np.random.Philox(n))
        values = rng.integers(-6, 7, (n, 5)).astype(float)
        values[values == 0.0] = rng.choice([0.0, -0.0], int((values == 0.0).sum()))
        values[:, 0] = rng.standard_normal(n)  # no ties: a quantile's two order statistics differ
        values[rng.choice(n, 40, replace=False), 1] = rng.choice([np.inf, -np.inf], 40)
        values[:, 2] = rng.choice([0.0, -0.0, 0.0, -0.0, 1.0, -np.inf], n)
        values[:, 3] = np.where(np.arange(n) < n // 2, -np.inf, np.inf)
        values[rng.integers(n), 4] = np.nan
        X = laid_out(values)
        for lanes, axis in ((X, 0), (X, None), (X[:, 1], None), (X[:, 4], None)):
            self._matches_np_median(lanes, axis)
            for q in (0.0, 1.0 / 3.0, 0.5, 0.9, 1.0):
                with np.errstate(invalid="ignore"):  # inf - inf, in both computations
                    TestQuantile._same(quantile(lanes, q, axis=axis), np.quantile(lanes, q, axis=axis))

    @pytest.mark.parametrize("n", [1000, 1001])
    def test_long_lanes_with_ties(self, n):
        # long lanes with many ties, beside the short ones the hypothesis test draws
        X = np.random.Generator(np.random.Philox(n)).integers(-50, 50, (n, 3)).astype(float)
        for axis in (None, 0):
            med = np.median(X, axis=axis)
            self._same(median(X, axis=axis), med)
            self._same(median_mad(X, axis=axis)[1], MAD_SCALE * np.median(np.abs(X - med), axis=axis))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_smallest_samples(self, n):
        x = np.arange(n, 0, -1.0)
        self._same(median(x), np.median(x))
        self._same(median_mad(x)[1], MAD_SCALE * np.median(np.abs(x - np.median(x))))

    def test_a_nan_poisons_its_own_lane_only(self):
        X = np.array([[1.0, 2.0], [np.nan, 3.0], [5.0, 4.0]])
        med, mad = median_mad(X, axis=0)
        assert np.isnan(med[0]) and np.isnan(mad[0])
        assert med[1] == 3.0 and mad[1] == MAD_SCALE

    def test_negative_zero_median_reads_zero_as_np_median_does(self):
        self._same(median(np.array([-0.0, -0.0, 1.0])), 0.0)

    @pytest.mark.parametrize("axis", [0, 1, -1, 2])
    def test_any_axis_of_a_3d_array(self, axis):
        X = np.random.Generator(np.random.Philox(40)).standard_normal((4, 5, 6))
        self._same(median(X, axis=axis), np.median(X, axis=axis))


@st.composite
def _quantile_samples(draw):
    """An n x p matrix, n in 3..300 or 10000, of values on a grid (so with ties)
    at a scale from 1e-3 to 1e5; some draws add signed zeros and infinities, and
    some put a NaN into one column."""
    n = draw(st.one_of(st.integers(3, 300), st.just(10000)))
    p = draw(st.integers(1, 3))
    rng = np.random.Generator(np.random.Philox(draw(st.integers(0, 2**32 - 1))))
    X = np.round(rng.standard_normal((n, p)) * 4.0) * (draw(st.floats(1e-3, 1e5)) / 4.0)
    if draw(st.booleans()):
        cells = rng.integers(0, n * p, size=max(1, n * p // 10))
        X.flat[cells] = rng.choice([0.0, -0.0, np.inf, -np.inf], size=cells.size)
    if draw(st.booleans()):
        X[rng.integers(n), rng.integers(p)] = np.nan
    return X


class TestQuantile:
    """robust.quantile gives np.quantile's bytes: type 7, the one stage 1 takes.

    Bar one thing: the sign of a zero. Where the two order statistics a
    quantile interpolates between are zeros of both signs, which zero a select
    puts at each place follows the input's order, so np.quantile itself returns
    0.0 for one order of a lane and -0.0 for another (at weights of 1/2 and
    over). So the bytes are compared after adding 0.0, which maps -0.0 to 0.0
    and leaves every other value as it is. Stage 1's distances hold no -0.0.
    """

    @staticmethod
    def _same(got, want):
        assert np.shape(got) == np.shape(want)
        assert (np.asarray(got) + 0.0).tobytes() == (np.asarray(want) + 0.0).tobytes()

    @settings(max_examples=120, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_quantile_samples(), st.one_of(st.sampled_from([0.0, 1.0 / 3.0, 0.5, 1.0]), st.floats(0, 1)))
    def test_matches_np_quantile_bit_for_bit(self, monkeypatch, X, q):
        before = X.tobytes()
        for limit in _ROUTES:
            monkeypatch.setattr(robust, "_SORTED_LANE", limit)
            for values, axis in ((X, 0), (X, None), (X[:, 0], None)):
                with np.errstate(invalid="ignore"):  # inf - inf, in both computations
                    self._same(quantile(values, q, axis=axis), np.quantile(values, q, axis=axis))
        assert X.tobytes() == before

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
    def test_smallest_samples_at_every_weight(self, n):
        # all -0.0: every order statistic is -0.0, so numpy's sign of the result is fixed
        for x in (np.arange(n, 0, -1.0) ** 2, np.full(n, -0.0)):
            for q in (0.0, 0.1, 1.0 / 3.0, 0.5, 2.0 / 3.0, 0.9, 1.0):
                assert quantile(x, q).tobytes() == np.quantile(x, q).tobytes()

    def test_a_nan_poisons_its_own_lane_only(self):
        X = np.array([[1.0, 2.0], [np.nan, 3.0], [5.0, 4.0]])
        got = quantile(X, 1.0 / 3.0, axis=0)
        assert np.isnan(got[0]) and got[1] == np.quantile(X[:, 1], 1.0 / 3.0)


class TestCalibrate:
    """robust.calibrate reads np.median, np.quantile and the scaled MAD of x * f,
    f = factor(median(x)), bit for bit, from one ordering of its copy of x."""

    @staticmethod
    def _statistics(d, q):
        with np.errstate(invalid="ignore"):  # inf - inf, in both computations
            med = np.median(d)
            return np.quantile(d, q), med, MAD_SCALE * np.median(np.abs(d - med))

    @pytest.mark.parametrize("limit", _ROUTES, ids=["select", "sorted"])
    @pytest.mark.parametrize("n", [3, 4, 100, 101, 256, 257, 10000])
    @pytest.mark.parametrize("scaled", [False, True], ids=["x", "x*f"])
    def test_statistics_of_the_scaled_copy_match_numpy(self, monkeypatch, limit, n, scaled):
        monkeypatch.setattr(robust, "_SORTED_LANE", limit)
        x = np.abs(np.random.Generator(np.random.Philox(n)).standard_normal(n))
        x[:: max(n // 10, 1)] = x[0]  # ties
        factor = (lambda med: 0.6744897501960817 / float(med)) if scaled else (lambda med: 1.0)
        before = x.tobytes()
        for q in (0.0, 1.0 / 3.0, 0.5, 1.0):
            d, *got = calibrate(x, factor, q)
            assert d.tobytes() == (x * factor(np.median(x))).tobytes()
            assert np.array(got).tobytes() == np.array(self._statistics(d, q)).tobytes()
        assert calibrate(x, factor).tobytes() == d.tobytes()
        assert x.tobytes() == before

    @pytest.mark.parametrize("limit", _ROUTES, ids=["select", "sorted"])
    @pytest.mark.parametrize("n", [100, 257])
    def test_a_nan_makes_every_statistic_nan(self, monkeypatch, limit, n):
        monkeypatch.setattr(robust, "_SORTED_LANE", limit)
        x = np.arange(1.0, n + 1.0)
        x[n // 3] = np.nan
        seen = []
        d, *got = calibrate(x, lambda med: seen.append(med) or 1.0, 1.0 / 3.0)
        assert np.isnan(seen).all() and np.isnan(got).all()
        assert d.tobytes() == x.tobytes()

    @pytest.mark.parametrize("limit", _ROUTES, ids=["select", "sorted"])
    def test_an_infinite_factor_reads_what_numpy_reads(self, monkeypatch, limit):
        # 0 * inf is NaN: the scaled copy leaves sorted order, and is ordered again
        monkeypatch.setattr(robust, "_SORTED_LANE", limit)
        x = np.array([0.0, 1.0, 2.0, 3.0, 0.0, 5.0])
        with np.errstate(invalid="ignore"):
            d, *got = calibrate(x, lambda med: np.inf, 1.0 / 3.0)
        assert np.isnan(d[[0, 4]]).all()
        assert np.array_equal(got, self._statistics(d, 1.0 / 3.0), equal_nan=True)

    @pytest.mark.parametrize("q, sorts", [(None, 1), (1.0 / 3.0, 2)])
    def test_a_short_copy_is_sorted_for_the_median_and_for_the_deviations_only(self, monkeypatch, q, sorts):
        calls = []
        select = robust._select

        def counted(A, k, ordered=False):
            calls.append(ordered)
            return select(A, k, ordered)

        monkeypatch.setattr(robust, "_select", counted)
        calibrate(np.arange(100.0, 0.0, -1.0), lambda med: 2.0, q)
        assert calls.count(False) == sorts


class TestMad:
    def test_one_to_five(self):
        # deviations from the median 3 are {2,1,0,1,2}; their median is 1
        assert median_mad([1, 2, 3, 4, 5])[1] == pytest.approx(1.4826, abs=1e-12)

    def test_constant_sample_is_zero(self):
        assert median_mad([7, 7, 7, 7])[1] == 0.0

    def test_consistent_for_sigma_at_the_normal(self):
        rng = np.random.Generator(np.random.Philox(1))
        draws = rng.standard_normal(10000)
        assert 1.4826 * 0.6 * 0.95 <= median_mad(draws)[1] <= 1.4826 * 0.8 * 1.05

    @given(samples)
    def test_permutation_invariant(self, xs):
        rng = np.random.default_rng(1)
        assert median_mad(xs)[1] == median_mad(rng.permutation(xs))[1]

    @given(samples, st.floats(-100, 100), st.floats(-100, 100))
    def test_scale_equivariant_location_invariant(self, xs, a, b):
        xs = np.asarray(xs)
        assert median_mad(a * xs + b)[1] == pytest.approx(
            abs(a) * median_mad(xs)[1], rel=1e-9, abs=1e-9
        )


class TestRowNorms:
    def test_row_norms_are_the_plain_bits_where_those_are_finite(self):
        rng = np.random.Generator(np.random.Philox(31))
        Z = rng.standard_normal((50, 7)) * rng.choice([1e-3, 1.0, 1e3], (50, 1))
        Z[0] = 0.0
        rel = rng.uniform(size=7)
        rel /= rel.sum()
        assert _scaled_row_norms(Z).tobytes() == np.sqrt((Z**2).sum(axis=1)).tobytes()
        assert _scaled_row_norms(Z, rel).tobytes() == np.sqrt((Z * Z) @ rel).tobytes()
        assert _scaled_row_norms(Z * 2.0**900).tobytes() == (_scaled_row_norms(Z) * 2.0**900).tobytes()

    def test_rows_whose_squares_underflow_are_scaled_up(self):
        # at 2^-700 every square is below the smallest subnormal
        rng = np.random.Generator(np.random.Philox(32))
        Z = rng.standard_normal((50, 7)) * rng.choice([1e-3, 1.0, 1e3], (50, 1))
        rel = rng.uniform(size=7)
        rel /= rel.sum()
        assert _scaled_row_norms(Z * 2.0**-700).tobytes() == (_scaled_row_norms(Z) * 2.0**-700).tobytes()
        assert (_scaled_row_norms(Z * 2.0**-700, rel).tobytes()
                == (_scaled_row_norms(Z, rel) * 2.0**-700).tobytes())

    def test_the_plain_bits_or_the_scaled_norms_where_a_square_overflows(self):
        rng = np.random.Generator(np.random.Philox(33))
        Z = rng.standard_normal((50, 7))
        assert row_norms(Z).tobytes() == np.sqrt((Z**2).sum(axis=1)).tobytes()
        Z[3] = 1e200
        d = row_norms(Z)
        assert d.tobytes() == _scaled_row_norms(Z).tobytes()
        assert d[3] == pytest.approx(math.sqrt(7) * 1e200, rel=1e-15)

    def test_rows_whose_squares_lose_bits_get_the_scaled_norms(self):
        # at 2^-560 every square falls in the subnormals, where the plain sum drops bits
        Z = np.random.Generator(np.random.Philox(34)).standard_normal((50, 7)) * 2.0**-560
        assert row_norms(Z).tobytes() == _scaled_row_norms(Z).tobytes()
        assert row_norms(Z).tobytes() != np.sqrt((Z**2).sum(axis=1)).tobytes()

    def test_a_zero_row_leaves_every_other_row_its_plain_bits(self):
        Z = np.random.Generator(np.random.Philox(35)).standard_normal((50, 7))
        Z[17] = 0.0
        d = row_norms(Z)
        assert d[17] == 0.0
        assert d.tobytes() == np.sqrt((Z**2).sum(axis=1)).tobytes()

    @staticmethod
    def _out_of_band(order):
        """A draw with a zero row, rows at 2^-600, whose squares underflow, and a row
        at 2^560, whose squares overflow, laid out in ``order``; and those rows."""
        Z = np.random.Generator(np.random.Philox(37)).standard_normal((60, 40))
        rows = [4, 11, 23, 40]
        Z[4] = 0.0
        Z[[11, 40]] *= 2.0**-600
        Z[23] *= 2.0**560
        return np.asarray(Z, order=order), rows

    # one row out of the band sends the whole matrix to the scaled form, whose
    # exact power-of-two scaling leaves the rows inside the band their plain bits
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_rows_beside_out_of_band_ones_keep_the_plain_bits(self, order, weighted):
        Z, rows = self._out_of_band(order)
        w = np.random.Generator(np.random.Philox(38)).uniform(size=40) if weighted else None
        inside = np.ones(60, dtype=bool)
        inside[rows] = False
        with np.errstate(over="ignore"):
            plain = np.sqrt(np.add.reduce(Z * Z, axis=1) if w is None else (Z * Z) @ w)
        d = row_norms(Z, w)
        assert d.tobytes() == _scaled_row_norms(Z, w).tobytes()
        assert d[inside].tobytes() == plain[inside].tobytes()
        assert d[4] == 0.0 and 2.0**-610 < d[11] < 2.0**-590 and 2.0**550 < d[23] < 2.0**570

    def test_a_matrix_without_rows_has_no_norms(self):
        Z = np.empty((0, 3))
        assert row_norms(Z).shape == (0,)
        assert row_norms(Z, np.full(3, 1.0 / 3.0)).shape == (0,)

    # from 2^-400 to 2^500 the plain computation loses no bit and its bits are
    # kept; at 2^-560 the squares underflow, at 2^520 they overflow, and the
    # norms are the scaled ones
    @pytest.mark.parametrize(
        "k, plain_exact", [(-400, True), (0, True), (500, True), (-560, False), (520, False)]
    )
    def test_weighted_norms_are_the_plain_bits_in_the_band_else_the_scaled_ones(self, k, plain_exact):
        rng = np.random.Generator(np.random.Philox(36))
        Z = rng.standard_normal((50, 7)) * 2.0**k
        w = rng.uniform(size=7)
        w /= w.sum()
        with np.errstate(over="ignore"):
            plain = np.sqrt((Z * Z) @ w)
        scaled = _scaled_row_norms(Z, w)
        assert row_norms(Z, w).tobytes() == (plain if plain_exact else scaled).tobytes()
        assert (plain.tobytes() == scaled.tobytes()) is plain_exact

    # a uniform scale that puts the rows' squares in the subnormals (1e-160),
    # below them (1e-200) or past the float maximum (1e160) moves no flag;
    # sign2's spatial signs need the row scaling in both directions there
    @pytest.mark.parametrize("seed", range(5))
    def test_flags_do_not_move_under_a_uniform_scale(self, seed):
        X = np.random.Generator(np.random.Philox(seed)).standard_normal((100, 20))
        X[:5] += 4.0
        for flags in (lambda A: detect(A).flags, lambda A: sign2_detect(A, 0.05).flags):
            base = flags(X)
            for scale in (1e-200, 1e-160, 1e160):
                assert np.array_equal(flags(X * scale), base)


def _l1_objective(X, mu):
    return float(np.sqrt(((X - mu) ** 2).sum(axis=1)).sum())


class TestL1Median:
    def test_square_center(self):
        X = np.array([[0, 0], [1, 0], [0, 1], [1, 1]], float)
        assert l1_median(X) == pytest.approx([0.5, 0.5], abs=1e-8)

    def test_equilateral_triangle_centroid(self):
        X = np.array([[0, 0], [1, 0], [0.5, math.sqrt(3) / 2]])
        assert l1_median(X) == pytest.approx([0.5, math.sqrt(3) / 6], abs=1e-8)

    def test_beats_every_grid_candidate(self):
        rng = np.random.Generator(np.random.Philox(2))
        X = rng.standard_normal((200, 2)) * [2.0, 0.5] + [1.0, -3.0]
        mu = l1_median(X)
        best = _l1_objective(X, mu)
        offsets = np.arange(-0.05, 0.0501, 0.01)
        for dx in offsets:
            for dy in offsets:
                assert best <= _l1_objective(X, mu + [dx, dy]) + 1e-9

    def test_orthogonally_equivariant(self):
        rng = np.random.Generator(np.random.Philox(3))
        X = rng.standard_normal((50, 4))
        Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        assert l1_median(X @ Q) == pytest.approx(l1_median(X) @ Q, abs=1e-6)

    def test_coincident_point_is_handled(self):
        # the coordinatewise median (the start) coincides with a data point
        X = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        assert l1_median(X) == pytest.approx([0.0, 0.0], abs=1e-8)

    def test_nonfinite_errors(self):
        with pytest.raises(ValueError):
            l1_median(np.array([[0.0, np.nan]]))

    # the tolerances are relative to the data: a power-of-two scale moves no bit
    @pytest.mark.parametrize("k", [-560, -40, -20, 20, 300])
    def test_equivariant_bit_for_bit_under_a_power_of_two_scale(self, k):
        X = np.random.default_rng(5).standard_normal((40, 3))
        X[:4] += 6.0
        assert np.array_equal(l1_median(X * 2.0**k) / 2.0**k, l1_median(X))

    def test_identical_rows_return_that_row(self):
        row = np.random.Generator(np.random.Philox(6)).standard_normal(3)
        assert l1_median(np.tile(row, (5, 1))) == pytest.approx(row, rel=1e-15)

    def test_a_start_at_a_data_point_that_is_no_median_steps_away(self):
        # the start (0, 0) is a data point whose pull, the unit vectors to the
        # others, sums to (2, 2): longer than 1, so the Vardi-Zhang step moves off it
        X = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.0, 1.0], [0.0, 2.0]])
        reference = minimize(lambda mu: _l1_objective(X, mu), [0.5, 0.5], method="Nelder-Mead",
                             options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 10000}).x
        mu = l1_median(X)
        assert mu == pytest.approx(reference, abs=1e-6)
        assert _l1_objective(X, mu) <= _l1_objective(X, reference) + 1e-12


class TestRobustSphere:
    def test_single_column_values(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0], [5.0]])
        Xs, dropped = robust_sphere(X)
        expected = (X[:, 0] - 3.0) / 1.4826
        assert Xs[:, 0] == pytest.approx(expected, abs=1e-12)
        assert dropped == frozenset()

    def test_constant_column_dropped_and_recorded(self):
        X = np.column_stack([np.array([4.0, 4.0, 4.0, 4.0]), np.arange(4.0)])
        Xs, dropped = robust_sphere(X)
        assert Xs.shape == (4, 1)
        assert dropped == frozenset({0})
        # column 1 sphered: median 1.5, MAD 1.4826 * median(|x - 1.5|) = 1.4826
        assert Xs[:, 0] == pytest.approx((X[:, 1] - 1.5) / MAD_SCALE, abs=1e-12)

    def test_all_constant_errors(self):
        with pytest.raises(ValueError, match="nothing to analyze"):
            robust_sphere(np.ones((5, 3)))

    def test_resphering_is_identity(self):
        rng = np.random.Generator(np.random.Philox(4))
        X = rng.standard_normal((30, 4)) * [1, 10, 0.1, 100] + [5, -2, 0, 7]
        Xs, _ = robust_sphere(X)
        Xss, dropped = robust_sphere(Xs)
        assert dropped == frozenset()
        assert Xss == pytest.approx(Xs, abs=1e-12)

    @given(st.integers(0, 2**32 - 1))
    def test_retained_columns_have_median_zero_mad_one(self, seed):
        rng = np.random.Generator(np.random.Philox(seed))
        X = rng.standard_normal((11, 3)) * 3.0 + 1.0
        Xs, _ = robust_sphere(X)
        assert np.abs(np.median(Xs, axis=0)).max() < 1e-12
        mads = MAD_SCALE * np.median(np.abs(Xs - np.median(Xs, axis=0)), axis=0)
        assert np.abs(mads - 1.0).max() < 1e-12


class TestInPlaceArithmetic:
    """median_mad and robust_sphere compute in temporaries they own."""

    def test_the_input_is_left_as_it_was(self, laid_out):
        rng = np.random.Generator(np.random.Philox(41))
        values = rng.standard_normal((31, 7)) * 3.0 + 1.0
        values[:, 2] = 4.0  # a zero-MAD column, which robust_sphere drops
        X = laid_out(values)
        before = X.tobytes()
        median_mad(X)
        median_mad(X, axis=0)
        robust_sphere(X)
        assert X.tobytes() == before

    def test_sphering_matches_the_out_of_place_arithmetic(self, laid_out):
        rng = np.random.Generator(np.random.Philox(42))
        values = rng.standard_normal((40, 9)) * rng.uniform(0.1, 50.0, 9) + rng.uniform(-9, 9, 9)
        values[:, 5] = -1.0
        X = laid_out(values)
        med = np.median(X, axis=0)
        mad = MAD_SCALE * np.median(np.abs(X - med), axis=0)
        keep = mad > 0.0
        Xs, dropped = robust_sphere(X)
        assert np.array_equal(Xs, (X[:, keep] - med[keep]) / mad[keep])
        assert dropped == frozenset({5})

    @pytest.mark.parametrize("shape", [(200, 1200), (4000, 50)], ids=["wide", "tall"])
    def test_sphering_allocates_about_its_result_alone(self, shape, traced_peak):
        X = np.random.Generator(np.random.Philox(43)).standard_normal(shape)
        assert traced_peak(robust_sphere, X) <= 1.1 * X.nbytes
