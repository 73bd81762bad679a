import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from pcout.baselines import ogk_detect, sign2_detect
from pcout.chisq import chi2_quantile
from pcout.prcmpout import (
    DetectorConfig,
    _row_norms,
    combine_weights,
    detect,
    stage1_location,
    stage2_scatter,
    transform_distances,
    translated_biweight,
)
from pcout.robust import MAD_SCALE, robust_sphere
from pcout.spectral import pca_basis, retain_components


def _sphered_scores(X):
    Zs, _ = robust_sphere(X)
    return Zs


class TestTransformDistances:
    def test_constant_vector_maps_to_chi_median(self):
        d = transform_distances([2.0, 2.0, 2.0], df=1)
        expected = math.sqrt(chi2_quantile(0.5, 1))
        assert d == pytest.approx([expected] * 3, abs=1e-12)
        assert expected == pytest.approx(0.67449, abs=1e-5)

    def test_fixed_point(self):
        target = math.sqrt(chi2_quantile(0.5, 4))
        raw = np.array([0.5, target, 2.0])
        assert transform_distances(raw, df=4) == pytest.approx(raw, rel=1e-12)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 5, 40]))
    def test_median_calibration_invariant(self, seed, df):
        rng = np.random.Generator(np.random.Philox(seed))
        raw = np.abs(rng.standard_normal(51)) + 0.1
        d = transform_distances(raw, df=df)
        assert abs(np.median(d) ** 2 - chi2_quantile(0.5, df)) < 1e-10

    def test_zero_median_errors(self):
        with pytest.raises(ValueError, match="degenerate"):
            transform_distances([0.0, 0.0, 1.0], df=2)


class TestTranslatedBiweight:
    def test_full_weight_region(self):
        assert translated_biweight(0.5, 1.0, 3.0) == 1.0

    def test_bridge_value(self):
        assert translated_biweight(2.0, 1.0, 3.0) == pytest.approx(0.5625, abs=1e-15)

    def test_zero_region(self):
        assert translated_biweight(3.5, 1.0, 3.0) == 0.0

    def test_bad_bounds_error(self):
        with pytest.raises(ValueError):
            translated_biweight(1.0, 2.0, 2.0)

    @given(
        st.floats(0, 10, allow_nan=False),
        st.floats(0, 4, allow_nan=False),
        st.floats(0.01, 5, allow_nan=False),
    )
    def test_range_and_monotonicity(self, d, m, gap):
        c = m + gap
        w = translated_biweight(d, m, c)
        assert 0.0 <= w <= 1.0
        assert translated_biweight(d + 0.1, m, c) <= w + 1e-12

    @given(
        st.floats(0, 1e3, allow_nan=False),
        st.floats(1e-12, 1e3, allow_nan=False),
        st.lists(st.floats(-10, 2e3, allow_nan=False), max_size=20),
    )
    @example(0.0, 1.0, [-0.0, 0.0, -5e-324, 5e-324])
    @example(1.0, 2.0**-52, [])  # c is the float just above M
    @example(0.6744897501960817, 1.3, [math.inf, -math.inf])
    def test_equals_the_three_piece_definition_bit_for_bit(self, m, gap, ds):
        c = m + gap
        assume(c > m)
        # d == M, d == c and the floats next to each always go in
        edges = [x for b in (m, c) for x in (np.nextafter(b, -np.inf), b, np.nextafter(b, np.inf))]
        d = np.array(ds + edges)
        u = (d - m) / (c - m)
        want = np.where(d <= m, 1.0, np.where(d >= c, 0.0, (1.0 - u**2) ** 2))
        assert np.array_equal(translated_biweight(d, m, c).view(np.int64), want.view(np.int64))


class TestStage1:
    def test_equal_kurtosis_collapses_to_unweighted_norms(self):
        rng = np.random.Generator(np.random.Philox(20))
        v = rng.standard_normal(60)
        Zs = _sphered_scores(np.column_stack([v, -v, v]))
        w1, d1, kurt = stage1_location(Zs)
        assert np.ptp(kurt) < 1e-12
        _, d2 = stage2_scatter(Zs)
        assert d1.transformed == pytest.approx(d2.transformed, rel=1e-10)
        assert w1.min() >= 0.0 and w1.max() <= 1.0

    def test_planted_far_point_gets_zero_weight(self):
        rng = np.random.Generator(np.random.Philox(21))
        X = rng.standard_normal((100, 10))
        X[0] *= 100.0
        report = detect(X)
        assert report.w1[0] == 0.0

    @pytest.mark.parametrize("cell", [1e70, 1e76, 1e78, 1e100, 1e150])
    def test_one_extreme_cell_flags_as_a_large_one_does(self, cell):
        # past about 1e77 a sphered score's fourth power overflows; the
        # infinite kurtosis takes the whole weight, the limit of a finite one
        def run(value):
            X = np.random.default_rng(0).standard_normal((100, 10))
            X[1, 1] = value
            return detect(X)

        reference = run(1e70)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run(cell)
        assert np.array_equal(report.flags, reference.flags)
        assert report.flags[1]
        d1 = report.stage1_distances
        assert np.isfinite([d1.m_cut, d1.c_cut]).all() and np.isfinite(d1.transformed).all()
        assert np.isfinite(report.w_final).all()

    @given(st.integers(0, 2**32 - 1))
    def test_at_least_a_third_get_full_weight(self, seed):
        rng = np.random.Generator(np.random.Philox(seed))
        n = int(rng.integers(12, 40))
        X = rng.standard_normal((n, 4))
        report = detect(X)
        assert int((report.w1 == 1.0).sum()) >= math.ceil(n / 3)

    def test_four_by_three_by_hand(self):
        """Pins the current reading of the weighted norm, sqrt(sum_j r_j z_j^2).

        The open alternative is the one mvoutlier's pcout computes (as
        recalled): scale the scores by r_j, then take row norms,
        sqrt(sum_j (r_j z_j)^2). Computing Z2 = Zs * Zs once in stage 1 left
        the reading as it was; choosing between the two is a separate decision.

        Zs = a * U with a = 1/1.4826 and every column of U at median 0 and
        median |u| = 1, so every column of Zs has median 0 and MAD 1.
        """
        a = 1.0 / 1.4826
        U = np.array([[-1.0, -3.0, -1.0], [1.0, 1.0, 2.0], [-1.0, -1.0, 1.0], [1.0, 1.0, -1.0]])
        assert np.median(a * U, axis=0) == pytest.approx([0.0] * 3, abs=1e-15)
        assert 1.4826 * np.median(np.abs(a * U), axis=0) == pytest.approx([1.0] * 3, rel=1e-15)
        w1, dset, kurt = stage1_location(a * U)

        # mean(u^4) per column is 1, 84/4 = 21 and 19/4
        k = [abs(a**4 * 1.0 - 3.0), abs(a**4 * 21.0 - 3.0), abs(a**4 * 4.75 - 3.0)]
        assert kurt == pytest.approx(k, rel=1e-12)
        assert k == pytest.approx([2.793032, 1.346336, 2.016900], abs=1e-6)
        r = [kj / sum(k) for kj in k]
        assert r == pytest.approx([0.453689, 0.218694, 0.327617], abs=1e-6)

        # squared rows of U: (1, 9, 1), (1, 1, 4), (1, 1, 1), (1, 1, 1)
        raw = [a * math.sqrt(1.0 + 8.0 * r[1]), a * math.sqrt(1.0 + 3.0 * r[2]), a, a]
        assert raw[2] != pytest.approx(a * math.sqrt(sum(rj * rj for rj in r)), rel=1e-3)

        # sorted raw is a, a, raw[1], raw[0]: the median is (a + raw[1]) / 2
        s = math.sqrt(chi2_quantile(0.5, 3))
        assert s * s == pytest.approx(2.365974, abs=1e-6)
        d = [x * s / ((a + raw[1]) / 2.0) for x in raw]
        assert dset.transformed == pytest.approx(d, rel=1e-12)
        assert d == pytest.approx([2.118285, 1.798866, 1.277479, 1.277479], abs=1e-6)

        # M: the 1/3 quantile sits at sorted index (4 - 1) / 3 = 1, the smaller d
        m_cut = d[2]
        # median(d) = s; |d - s| is delta = (d[1] - d[2]) / 2 for three rows
        c_cut = s + 2.5 * 1.4826 * (d[1] - d[2]) / 2.0
        assert dset.m_cut == pytest.approx(m_cut, rel=1e-12)
        assert dset.c_cut == pytest.approx(c_cut, rel=1e-12)
        assert c_cut == pytest.approx(2.504433, abs=1e-6)

        bridge = [(1.0 - ((x - m_cut) / (c_cut - m_cut)) ** 2) ** 2 for x in d[:2]]
        assert w1 == pytest.approx([*bridge, 1.0, 1.0], rel=1e-12)
        assert bridge == pytest.approx([0.281317, 0.671453], abs=1e-6)


class TestStage1Kurtosis:
    """The kurtosis weights stage 1 returns, on sphered scores."""

    @given(st.integers(0, 2**32 - 1), st.integers(3, 300), st.integers(1, 12))
    def test_matches_the_median_mad_formula(self, seed, n, p):
        # reference: re-centre and re-scale by median/MAD before the fourth
        # power; on sphered scores that step is the identity up to rounding
        rng = np.random.Generator(np.random.Philox(seed))
        X = rng.standard_t(3, size=(n, p)) * rng.uniform(0.1, 100.0, size=p)
        X += rng.uniform(-50.0, 50.0, size=p)
        Zs = _sphered_scores(X)
        med = np.median(Zs, axis=0)
        scale = 1.4826 * np.median(np.abs(Zs - med), axis=0)
        expected = np.abs(np.mean(((Zs - med) / scale) ** 4, axis=0) - 3.0)
        _, _, kurt = stage1_location(Zs)
        bound = 1e-12 * np.maximum(1.0, np.mean(Zs**4, axis=0))
        assert np.all(np.abs(kurt - expected) <= bound)

    def test_three_point_sample_by_hand(self):
        # sphered: med = 0, MAD = 1.4826, so z = +-1/1.4826 and mean z^4 = (2/3)/1.4826^4
        expected = abs((2.0 / 3.0) / 1.4826**4 - 3.0)
        _, _, kurt = stage1_location(_sphered_scores(np.array([[-1.0], [0.0], [1.0]])))
        assert kurt[0] == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(2.8620, abs=5e-5)

    def test_near_zero_for_normal_draws(self):
        rng = np.random.Generator(np.random.Philox(5))
        _, _, kurt = stage1_location(_sphered_scores(rng.standard_normal((10000, 1))))
        assert kurt[0] < 0.5

    def test_gross_outlier_increases_the_weight(self):
        rng = np.random.Generator(np.random.Philox(6))
        base = rng.standard_normal(100)
        with_outlier = np.append(base, 50.0)
        _, _, k_base = stage1_location(_sphered_scores(base[:, None]))
        _, _, k_outlier = stage1_location(_sphered_scores(with_outlier[:, None]))
        assert k_outlier[0] > k_base[0]


class TestStage2:
    def test_row_at_the_center_gets_full_weight(self):
        rng = np.random.Generator(np.random.Philox(22))
        Zs = rng.standard_normal((50, 5))
        Zs[7] = 0.0
        w2, dset = stage2_scatter(Zs)
        assert dset.transformed[7] == 0.0
        assert w2[7] == 1.0

    def test_tail_calibration_on_standard_normal_scores(self):
        rng = np.random.Generator(np.random.Philox(23))
        Zs = rng.standard_normal((10000, 10))
        _, dset = stage2_scatter(Zs)
        frac = float(np.mean(dset.transformed**2 > chi2_quantile(0.99, 10)))
        assert abs(frac - 0.01) <= 0.01

    def test_scale_invariance(self):
        rng = np.random.Generator(np.random.Philox(24))
        Zs = rng.standard_normal((80, 6))
        w_base, _ = stage2_scatter(Zs)
        w_scaled, _ = stage2_scatter(Zs * 37.5)
        assert w_scaled == pytest.approx(w_base, abs=1e-12)


class TestCombineWeights:
    def test_both_full(self):
        assert combine_weights([1.0], [1.0], 0.25)[0] == 1.0

    def test_both_zero(self):
        assert combine_weights([0.0], [0.0], 0.25)[0] == pytest.approx(0.04, abs=1e-15)

    def test_published_boundary_one_full_weight(self):
        # with one weight at 1, the other at 0.0625 lands exactly on the cut
        w = combine_weights([1.0], [0.0625], 0.25)[0]
        assert w == 0.25
        assert not w < 0.25  # strict rule: boundary is not flagged

    def test_published_boundary_equal_weights(self):
        w = combine_weights([0.375], [0.375], 0.25)[0]
        assert w == 0.25

    def test_length_mismatch_errors(self):
        with pytest.raises(ValueError):
            combine_weights([1.0, 0.5], [1.0], 0.25)

    @given(
        st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=10),
        st.floats(0.01, 2.0, allow_nan=False),
    )
    def test_range(self, w1, s):
        w1 = np.array(w1)
        w2 = w1[::-1].copy()
        w = combine_weights(w1, w2, s)
        assert np.all(w >= s**2 / (1 + s) ** 2 - 1e-15)
        assert np.all(w <= 1.0 + 1e-15)


class TestDetect:
    def test_wide_matrix_runs_through_the_gram_route(self):
        rng = np.random.Generator(np.random.Philox(25))
        X = rng.standard_normal((100, 1000))
        report = detect(X)
        assert report.p_star <= 99
        assert report.flags.shape == (100,)

    def test_planted_location_outliers_at_p40(self):
        rng = np.random.Generator(np.random.Philox(26))
        X = rng.standard_normal((100, 40))
        rows = np.arange(18)
        X[rows] += 1.5
        report = detect(X)
        assert report.flags[rows].mean() >= 0.95

    def test_row_permutation_equivariance(self):
        rng = np.random.Generator(np.random.Philox(27))
        X = rng.standard_normal((60, 8))
        X[:6] += 4.0
        perm = rng.permutation(60)
        base = detect(X)
        permuted = detect(X[perm])
        assert permuted.w_final == pytest.approx(base.w_final[perm], abs=1e-12)
        assert np.array_equal(permuted.flags, base.flags[perm])

    def test_coordinatewise_affine_invariance(self):
        rng = np.random.Generator(np.random.Philox(28))
        X = rng.standard_normal((70, 6))
        X[:5] += 3.0
        scales = np.array([3.0, -0.5, 10.0, -2.0, 0.25, 7.0])
        offsets = np.array([1.0, -5.0, 0.0, 2.5, 100.0, -0.1])
        base = detect(X)
        mapped = detect(X * scales + offsets)
        assert mapped.w1 == pytest.approx(base.w1, abs=1e-8)
        assert mapped.w2 == pytest.approx(base.w2, abs=1e-8)
        assert mapped.w_final == pytest.approx(base.w_final, abs=1e-8)
        assert np.array_equal(mapped.flags, base.flags)

    # Sphered values past about 1e154 overflowed the covariance product, and
    # past about 1e77 their squares in the stage norms; pytest turns any
    # RuntimeWarning into an error
    @pytest.mark.parametrize("gross", [1e155, 1e200, 1e300])
    @pytest.mark.parametrize("shape", [(60, 5), (20, 50)], ids=["covariance", "gram"])
    def test_one_gross_finite_row_is_flagged_as_an_ordinary_gross_row_is(self, shape, gross):
        X = np.random.Generator(np.random.Philox(30)).standard_normal(shape)
        X[7] = 1e10
        ordinary = detect(X)
        X[7] = gross
        report = detect(X)
        assert report.flags[7]
        assert np.array_equal(report.flags, ordinary.flags)
        assert report.p_star == ordinary.p_star
        assert np.isfinite(report.stage1_distances.transformed).all()
        assert np.isfinite(report.stage2_distances.transformed).all()

    def test_row_norms_are_the_plain_bits_where_those_are_finite(self):
        rng = np.random.Generator(np.random.Philox(31))
        Z = rng.standard_normal((50, 7)) * rng.choice([1e-3, 1.0, 1e3], (50, 1))
        Z[0] = 0.0
        rel = rng.uniform(size=7)
        rel /= rel.sum()
        assert _row_norms(Z).tobytes() == np.sqrt((Z**2).sum(axis=1)).tobytes()
        assert _row_norms(Z, rel).tobytes() == np.sqrt((Z * Z) @ rel).tobytes()
        assert _row_norms(Z * 2.0**900).tobytes() == (_row_norms(Z) * 2.0**900).tobytes()

    def test_weights_bounded_and_flags_match_the_cut(self):
        rng = np.random.Generator(np.random.Philox(29))
        X = rng.standard_normal((40, 5))
        report = detect(X)
        for w in (report.w1, report.w2, report.w_final):
            assert w.min() >= 0.0 and w.max() <= 1.0
        s = 0.25
        assert report.w_final.min() >= s**2 / (1 + s) ** 2 - 1e-15
        assert np.array_equal(report.flags, report.w_final < 0.25)

    def test_deterministic(self):
        rng = np.random.Generator(np.random.Philox(30))
        X = rng.standard_normal((50, 12))
        r1 = detect(X)
        r2 = detect(X)
        assert np.array_equal(r1.w_final, r2.w_final)
        assert np.array_equal(r1.flags, r2.flags)
        assert np.array_equal(r1.stage1_distances.transformed, r2.stage1_distances.transformed)

    def test_dropped_columns_reported(self):
        rng = np.random.Generator(np.random.Philox(31))
        X = rng.standard_normal((30, 4))
        X[:, 2] = 9.0
        report = detect(X)
        assert report.dropped_columns == frozenset({2})

    def test_too_few_rows_error(self):
        with pytest.raises(ValueError):
            detect(np.ones((2, 3)))

    def test_nonfinite_error(self):
        X = np.ones((5, 2))
        X[0, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            detect(X)

    def test_degenerate_input_names_the_step(self):
        with pytest.raises(ValueError, match="sphering failed"):
            detect(np.ones((5, 3)))


def _sphere_out_of_place(X):
    med = np.median(X, axis=0)
    mad = MAD_SCALE * np.median(np.abs(X - med), axis=0)
    keep = mad > 0.0
    return (X[:, keep] - med[keep]) / mad[keep]


def _eigenpairs_out_of_place(Xs):
    """pca_basis's eigenpairs before retention, each step a fresh array."""
    n, p = Xs.shape
    Xc = Xs - Xs.mean(axis=0)
    C = (Xc @ Xc.T if p > n else Xc.T @ Xc) / (n - 1)
    w, V = np.linalg.eigh((C + C.T) / 2.0)
    order = np.argsort(w)[::-1]
    w, V = np.clip(w[order], 0.0, None), V[:, order]
    if p > n:
        nonzero = w > 1e-12 * max(float(w[0]), 1.0)
        w = w[nonzero]
        V = Xc.T @ V[:, nonzero]
        V = V / np.sqrt((V**2).sum(axis=0))
    return w, V


def _detect_out_of_place(X, cfg=DetectorConfig()):
    """detect's weights and distances, every n x p step computed out of place."""
    Xs = _sphere_out_of_place(X)
    w, V = _eigenpairs_out_of_place(Xs)
    n = X.shape[0]
    k = retain_components(w, cfg.variance_threshold, max_components=n - 1)
    Zs = _sphere_out_of_place(Xs @ V[:, :k])
    w1, d1, kurt = stage1_location(Zs, cfg)
    w2, d2 = stage2_scatter(Zs, cfg)
    return w1, w2, combine_weights(w1, w2, cfg.scale_const_s), d1.transformed, d2.transformed, kurt


def _planted(shape, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    X = rng.standard_normal(shape) * rng.uniform(0.5, 4.0, shape[1])
    X[: shape[0] // 10] += 1.5
    return X


# Gram route at 59 and at 129 components, covariance route
_BIT_SHAPES = pytest.mark.parametrize(
    "shape",
    [(60, 300), (130, 300), (400, 12)],
    ids=["gram-60x300", "gram-130x300", "covariance-400x12"],
)


class TestInPlaceArithmetic:
    """detect and its steps compute in arrays they own, bit for bit as the
    out-of-place arithmetic does, and hold at most four input-sized arrays."""

    @pytest.mark.parametrize("shape", [(24, 40), (80, 6)], ids=["wide", "tall"])
    def test_detectors_leave_the_input_as_it_was(self, shape, laid_out):
        X = laid_out(_planted(shape, 47))
        before = X.tobytes()
        detect(X)
        ogk_detect(X, 0.05)
        sign2_detect(X, 0.05)
        assert X.tobytes() == before

    @_BIT_SHAPES
    def test_reports_match_the_out_of_place_arithmetic(self, shape):
        X = _planted(shape, 48)
        report = detect(X)
        got = (
            report.w1,
            report.w2,
            report.w_final,
            report.stage1_distances.transformed,
            report.stage2_distances.transformed,
            report.kurtosis_weights,
        )
        names = ("w1", "w2", "w_final", "d1", "d2", "kurtosis")
        for name, a, b in zip(names, got, _detect_out_of_place(X), strict=True):
            assert np.array_equal(a, b), name

    @_BIT_SHAPES
    def test_every_eigenpair_matches_the_out_of_place_arithmetic(self, shape):
        Xs = _sphere_out_of_place(_planted(shape, 49))
        w, V = _eigenpairs_out_of_place(Xs)
        basis = pca_basis(Xs, 1.0)  # every nonzero component, up to the n - 1 cap
        assert basis.n_components == min(V.shape[1], shape[0] - 1)
        assert np.array_equal(basis.eigenvalues, w[: basis.n_components])
        assert np.array_equal(basis.eigenvectors, V[:, : basis.n_components])

    @pytest.mark.parametrize("shape", [(200, 1200), (4000, 50)], ids=["wide", "tall"])
    def test_detect_holds_at_most_four_inputs(self, shape, traced_peak):
        X = _planted(shape, 50)
        small_square = 8 * min(shape) ** 2  # the n x n Gram or p x p covariance matrix
        assert traced_peak(detect, X) <= 4 * X.nbytes + small_square


class TestDetectorConfig:
    def test_defaults_follow_the_published_method(self):
        cfg = DetectorConfig()
        assert cfg.variance_threshold == 0.99
        assert cfg.scale_const_s == 0.25
        assert cfg.outlier_cut == 0.25
        assert cfg.stage1_full_weight_fraction == pytest.approx(1 / 3)
        assert cfg.stage1_c_mad_multiplier == 2.5
        assert cfg.stage2_m_quantile == 0.25
        assert cfg.stage2_c_quantile == 0.99

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"variance_threshold": 0.0},
            {"variance_threshold": 1.2},
            {"scale_const_s": -0.1},
            {"outlier_cut": 1.0},
            {"stage1_full_weight_fraction": 0.0},
            {"stage1_c_mad_multiplier": 0.0},
            {"stage2_m_quantile": 0.99, "stage2_c_quantile": 0.25},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        # no value can be set at all: every field is fixed at the published constant
        with pytest.raises(TypeError):
            DetectorConfig(**kwargs)
