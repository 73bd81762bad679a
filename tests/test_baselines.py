import dataclasses

import numpy as np
import pytest

from pcout import baselines, robust, spectral
from pcout.baselines import (
    LocationScatter,
    _ogk_pairwise,
    _ogk_scores,
    _quarter_difference,
    _unit_rows,
    classical_detect,
    ogk_detect,
    ogk_estimate,
    ogk_reweight,
    robust_distances,
    sign2_detect,
)
from pcout.evalsim import REFERENCE_OUTLIER_ROWS, SimSpec, generate_contaminated
from pcout.prcmpout import detect
from pcout.robust import MAD_SCALE, _lane_median_mad, median_mad
from pcout.spectral import sym_eigen
from test_detect_corpus import EXPECTED as CORPUS, _corpus_input


def _per_column_pairwise(X):
    """OGK's column MADs and pairwise matrix by the per-column np.median formula."""
    mad = lambda v: MAD_SCALE * np.median(np.abs(v - np.median(v, axis=0)), axis=0)
    d = mad(X)
    Y = X / d
    U = np.eye(X.shape[1])
    for j in range(X.shape[1] - 1):
        x, y = Y[:, j : j + 1], Y[:, j + 1 :]
        U[j, j + 1 :] = U[j + 1 :, j] = 0.25 * (mad(x + y) ** 2 - mad(x - y) ** 2)
    return d, U


def _eigen_rule_distances(X, est):
    """Mahalanobis distances by the eigenvalue rule spelled out: refuse the
    scatter when sym_eigen's smallest eigenvalue is at most 1e-12 times its
    largest, else take the eigen-weighted norms sqrt(sum_k y_k^2 / lambda_k)."""
    evals, evecs = sym_eigen(est.scatter)
    if evals[-1] <= 1e-12 * max(evals[0], 1e-300):
        raise ValueError(
            f"scatter matrix is singular: smallest eigenvalue {evals[-1]:.3e} "
            f"against largest {evals[0]:.3e}"
        )
    Y = (X - est.location) @ evecs
    return np.sqrt((Y**2 / evals).sum(axis=1))


def _outcome(run, *args):
    try:
        return run(*args)
    except ValueError as exc:
        return str(exc)


@pytest.fixture
def eigen_calls(monkeypatch):
    """The matrices the package eigendecomposes, from spectral's pca_basis or
    from the baselines (robust_distances' scatters among them), in call order."""
    calls = []

    def counted(C):
        calls.append(C)
        return sym_eigen(C)

    monkeypatch.setattr(spectral, "sym_eigen", counted)
    monkeypatch.setattr(baselines, "sym_eigen", counted)
    return calls


def asymmetric(matrices) -> list[int]:
    """The index of each matrix that differs from its transpose in any bit."""
    return [i for i, C in enumerate(matrices) if not np.array_equal(C, C.T)]


_EVERY_DETECTOR = pytest.mark.parametrize(
    "run",
    [
        lambda X: detect(X),
        lambda X: classical_detect(X, 0.05),
        lambda X: ogk_detect(X, 0.05),
        lambda X: sign2_detect(X, 0.05),
    ],
    ids=["prcmpout", "classical", "ogk", "sign2"],
)


def _with_cell(value):
    X = np.random.Generator(np.random.Philox(39)).standard_normal((20, 3))
    X[4, 1] = value
    return X


class TestInputGate:
    """Every detector checks its input the same way, before anything else."""

    @_EVERY_DETECTOR
    @pytest.mark.parametrize(
        "X, message",
        [
            (np.arange(10.0), "expected a 2-D matrix"),
            (_with_cell(np.nan), "non-finite values in data matrix"),
            (_with_cell(np.inf), "non-finite values in data matrix"),
            (np.array([[0.0, 1.0], [2.0, 5.0]]), "need at least 3 rows, got 2"),
            (np.empty((5, 0)), "need at least 1 column, got 0"),
        ],
        ids=["1-D", "nan", "inf", "2-rows", "0-columns"],
    )
    def test_bad_input_is_named(self, run, X, message):
        with pytest.raises(ValueError, match=message):
            run(X)

    @pytest.mark.parametrize("detector", [classical_detect, ogk_detect, sign2_detect])
    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1e-17])
    def test_alpha_must_leave_a_cutoff_below_1(self, detector, alpha):
        # 1 - 1e-17 rounds to 1: the chi-square cutoff would be infinite
        with pytest.raises(ValueError, match=r"^alpha "):
            detector(_with_cell(0.0), alpha)


class TestSymEigenInputs:
    """sym_eigen decomposes the lower triangle of what it is handed, so every
    caller must build its matrix exactly symmetric."""

    @_EVERY_DETECTOR
    def test_every_matrix_a_detector_decomposes_is_exactly_symmetric(self, run, eigen_calls):
        inputs = [_corpus_input(name) for name in sorted(CORPUS)] + [
            generate_contaminated(SimSpec(100, p, REFERENCE_OUTLIER_ROWS, location_shift=1.5, seed=seed))[0]
            for p in (10, 20, 30, 40)
            for seed in (1, 2, 3)
        ]
        for X in inputs:
            _outcome(run, X)
        assert eigen_calls  # classical decomposes only the singular scatter of the zero-MAD corpus input
        assert asymmetric(eigen_calls) == []

    def test_the_check_sees_an_asymmetric_matrix(self, eigen_calls):
        C = np.array([[2.0, 1.0], [1.0, 3.0]])
        off_by_one_ulp = C.copy()
        off_by_one_ulp[0, 1] = np.nextafter(1.0, 2.0)
        spectral.sym_eigen(C)
        baselines.sym_eigen(off_by_one_ulp)
        assert asymmetric(eigen_calls) == [1]


class TestRobustDistances:
    def test_identity_scatter_gives_euclidean_norms(self):
        rng = np.random.Generator(np.random.Philox(40))
        X = rng.standard_normal((20, 3))
        est = LocationScatter(np.zeros(3), np.eye(3))
        assert robust_distances(X, est) == pytest.approx(np.linalg.norm(X, axis=1), rel=1e-12)

    def test_row_at_the_location_has_zero_distance(self):
        T = np.array([1.0, -2.0])
        X = np.vstack([T, T + 1.0])
        est = LocationScatter(T, np.eye(2))
        assert robust_distances(X, est)[0] == 0.0

    def test_matches_the_explicit_two_by_two_inverse(self):
        rng = np.random.Generator(np.random.Philox(41))
        A = rng.standard_normal((2, 2))
        C = A @ A.T + 0.5 * np.eye(2)
        T = rng.standard_normal(2)
        X = rng.standard_normal((15, 2))
        det = C[0, 0] * C[1, 1] - C[0, 1] * C[1, 0]
        Cinv = np.array([[C[1, 1], -C[0, 1]], [-C[1, 0], C[0, 0]]]) / det
        D = X - T
        expected = np.sqrt(np.einsum("ij,jk,ik->i", D, Cinv, D))
        assert robust_distances(X, LocationScatter(T, C)) == pytest.approx(expected, abs=1e-12)

    def test_affine_invariance(self):
        rng = np.random.Generator(np.random.Philox(42))
        X = rng.standard_normal((30, 4))
        T = X.mean(axis=0)
        C = np.cov(X, rowvar=False)
        A = rng.standard_normal((4, 4)) + 4 * np.eye(4)
        b = rng.standard_normal(4)
        base = robust_distances(X, LocationScatter(T, C))
        mapped = robust_distances(
            X @ A.T + b, LocationScatter(A @ T + b, A @ C @ A.T)
        )
        assert mapped == pytest.approx(base, abs=1e-8)

    def test_singular_scatter_names_the_eigenvalue(self):
        est = LocationScatter(np.zeros(2), np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(ValueError, match="eigenvalue"):
            robust_distances(np.eye(2), est)

    # Condition numbers either side of the certificate's limit, where
    # trace(C) trace(C^-1) reaches 1e11, and of the singular test's 1e12. For
    # diag(s, s / cond) the product is cond + 2 + 1 / cond, so only the first
    # is certified without an eigendecomposition; a diagonal scatter is
    # factored and decomposed exactly, so both ways agree to rounding.
    @pytest.mark.parametrize("cond, decomposed", [(0.99e11, 0), (1.01e11, 1), (0.99e12, 1), (1.01e12, 1)])
    @pytest.mark.parametrize("scale", [2.0**-40, 1.0, 3e7], ids=["tiny", "unit", "large"])
    def test_singular_rule_is_the_eigenvalue_test(self, cond, decomposed, scale, eigen_calls):
        X = np.random.Generator(np.random.Philox(45)).standard_normal((20, 2))
        est = LocationScatter(np.array([0.5, -1.0]), np.diag([scale, scale / cond]))
        expected = _outcome(_eigen_rule_distances, X, est)
        got = _outcome(robust_distances, X, est)
        assert len(eigen_calls) == decomposed
        if isinstance(expected, str):
            assert got == expected
        else:
            assert got == pytest.approx(expected, rel=1e-12)

    # The same condition numbers on a rotated scatter: the same outcome, with
    # distances that agree only as far as an ill-conditioned matrix lets them
    @pytest.mark.parametrize("cond", [0.99e11, 1.01e11, 0.99e12, 1.01e12])
    def test_rotated_scatters_get_the_eigenvalue_tests_outcome(self, cond):
        H = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]) / 2.0
        C = H @ np.diag([1.0, 0.5, 0.25, 1.0 / cond]) @ H
        X = np.random.Generator(np.random.Philox(46)).standard_normal((20, 4))
        est = LocationScatter(np.zeros(4), (C + C.T) / 2.0)
        expected = _outcome(_eigen_rule_distances, X, est)
        got = _outcome(robust_distances, X, est)
        assert type(got) is type(expected)
        if isinstance(expected, str):
            assert got == expected
        else:
            assert got == pytest.approx(expected, rel=1e-3)

    @pytest.mark.parametrize(
        "C",
        [
            [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
            [[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
            np.zeros((3, 3)),
            -np.eye(3),
        ],
        ids=["rank-deficient", "indefinite", "zero", "negative-definite"],
    )
    def test_a_scatter_without_a_factor_gets_the_eigenvalue_message(self, C):
        C = np.asarray(C)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(C)
        est = LocationScatter(np.zeros(3), C)
        expected = _outcome(_eigen_rule_distances, np.eye(3), est)
        assert expected.startswith("scatter matrix is singular")
        with pytest.raises(ValueError) as raised:
            robust_distances(np.eye(3), est)
        assert str(raised.value) == expected

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_a_non_finite_scatter_gets_no_result(self, bad):
        C = np.eye(3)
        C[1, 1] = bad
        with pytest.raises(ValueError, match="scatter matrix is not finite"):
            robust_distances(np.eye(3), LocationScatter(np.zeros(3), C))

    def test_a_scatter_the_factor_fails_on_is_whitened_by_its_eigenpairs(self, monkeypatch):
        rng = np.random.Generator(np.random.Philox(47))
        A = rng.standard_normal((4, 4))
        est = LocationScatter(rng.standard_normal(4), A @ A.T + np.eye(4))
        X = rng.standard_normal((30, 4))
        expected = _eigen_rule_distances(X, est)

        def no_factor(C):
            raise np.linalg.LinAlgError("no factor")

        monkeypatch.setattr(np.linalg, "cholesky", no_factor)
        assert robust_distances(X, est) == pytest.approx(expected, rel=1e-12)

    def test_the_sweeps_classical_scatters_need_no_eigendecomposition(self, eigen_calls):
        for p in (10, 20, 30, 40):
            for seed in range(1, 7):
                spec = SimSpec(100, p, REFERENCE_OUTLIER_ROWS, location_shift=1.5, seed=seed)
                classical_detect(generate_contaminated(spec)[0], 0.05)
        assert eigen_calls == []


class TestClassicalDetect:
    def test_cutoff_matches_the_table(self):
        rng = np.random.Generator(np.random.Philox(43))
        X = rng.standard_normal((60, 10))
        result = classical_detect(X, alpha=0.05)
        assert result.cutoff == pytest.approx(4.278672, abs=1e-4)
        assert result.method == "classical"
        assert np.array_equal(result.flags, result.distances > result.cutoff)

    # A row at 1e155 or beyond overflows the sample covariance (a warning kept
    # until the covariance is taken on scaled columns); the detector must then
    # fail with a named error rather than score rows against an infinite scatter
    @pytest.mark.filterwarnings("ignore:overflow encountered in matmul:RuntimeWarning")
    @pytest.mark.parametrize("gross", [1e155, 1e200, 1e300])
    def test_a_gross_finite_row_fails_closed(self, gross):
        X = np.random.Generator(np.random.Philox(30)).standard_normal((60, 5))
        X[7] = gross
        with pytest.raises(ValueError, match="scatter matrix is not finite"):
            classical_detect(X, alpha=0.05)

    def test_repeated_rows_are_singular(self):
        X = np.tile([1.0, 2.0, 3.0], (10, 1))
        with pytest.raises(ValueError):
            classical_detect(X, alpha=0.05)

    def test_wide_matrix_redirects_to_prcmpout(self):
        with pytest.raises(ValueError, match="prcmpout"):
            classical_detect(np.ones((5, 8)), alpha=0.05)

    def test_false_positive_rate_is_calibrated(self):
        rng = np.random.Generator(np.random.Philox(44))
        X = rng.standard_normal((5000, 5))
        result = classical_detect(X, alpha=0.05)
        assert result.flags.mean() == pytest.approx(0.05, abs=0.01)


class TestOgkPairwiseCov:
    def test_self_covariance_is_the_squared_scale(self):
        rng = np.random.Generator(np.random.Philox(45))
        x = rng.standard_normal(100)
        cov = _ogk_pairwise(np.stack([x, x]))
        assert cov.shape == (1,)
        assert cov[0] == pytest.approx(median_mad(x)[1] ** 2, rel=1e-12)

    def test_antisymmetric_case(self):
        rng = np.random.Generator(np.random.Philox(46))
        x = rng.standard_normal(100)
        cov = _ogk_pairwise(np.stack([x, -x]))
        assert cov[0] == pytest.approx(-(median_mad(x)[1] ** 2), rel=1e-12)

    def test_classical_scale_recovers_the_sample_covariance(self):
        rng = np.random.Generator(np.random.Philox(47))
        x = rng.standard_normal(60)
        y = 0.3 * x + rng.standard_normal(60)
        sd = lambda v: float(np.std(v, ddof=1))
        brute = float(np.sum((x - x.mean()) * (y - y.mean())) / 59)
        assert _quarter_difference(sd(x + y), sd(x - y)) == pytest.approx(brute, abs=1e-12)

    # One block (100 x 40 is the sweep's largest), several blocks (the triangles of
    # 30 x 150 and 29 x 150 exceed the cell budget), and the wide branch, p >= n,
    # at odd and even n.
    @pytest.mark.parametrize(
        "shape", [(31, 6), (40, 7), (9, 12), (10, 12), (100, 40), (30, 150), (29, 150)]
    )
    def test_pairwise_matrix_matches_the_per_column_np_median_formula(self, shape):
        X = np.random.Generator(np.random.Philox(49)).standard_normal(shape)
        d, U = _per_column_pairwise(X)
        got_d, got_E, _ = _ogk_scores(X)
        assert got_d.tobytes() == d.tobytes()
        assert got_E.tobytes() == sym_eigen(U)[1].tobytes()

    @pytest.mark.parametrize("cells", [1, 31 * 30])
    @pytest.mark.parametrize("shape", [(31, 12), (31, 13)])
    def test_blocks_that_cut_rows_give_the_same_matrix(self, shape, cells, monkeypatch):
        # Budgets this small make each block half of the longest row (cells=1),
        # as when p is large, or 15 pairs; either way blocks start and end
        # inside rows of the triangle.
        monkeypatch.setattr(baselines, "_OGK_BLOCK_CELLS", cells)
        X = np.random.Generator(np.random.Philox(50)).standard_normal(shape)
        _, U = _per_column_pairwise(X)
        assert _ogk_scores(X)[1].tobytes() == sym_eigen(U)[1].tobytes()

    # 100 x 40: the 780 pairs fit one block of 2 * 780 lanes. 30 x 150: blocks of
    # max(149, 2**18 // 30) // 2 = 4369 pairs, so its 11175 pairs take 3 blocks.
    @pytest.mark.parametrize("shape, calls", [((100, 40), 1 + 1), ((30, 150), 1 + 3)])
    def test_one_select_per_block(self, shape, calls, monkeypatch):
        count = []

        def counted(A):
            count.append(A.shape)
            return _lane_median_mad(A)

        monkeypatch.setattr(robust, "_lane_median_mad", counted)  # the column MADs
        monkeypatch.setattr(baselines, "_lane_median_mad", counted)  # the blocks
        _ogk_scores(np.random.Generator(np.random.Philox(51)).standard_normal(shape))
        assert len(count) == calls

    @pytest.mark.parametrize("shape", [(200, 1200), (3000, 100)])
    def test_peak_is_no_more_than_a_row_at_a_time(self, shape, traced_peak):
        # What building the matrix one row of the triangle at a time holds: the
        # lanes Yt (n x p, the one scaled copy of X), then either one (p - 1) x n
        # array of sums or of differences or the n x p scores, and the p x p terms
        # (U, and eigh's eigenvectors and their reordered copy in sym_eigen). At
        # 200 x 1200 the p x p terms set the peak; at 3000 x 100 the lanes and a
        # block do, and a second scaled copy of X, or a whole row's sums and
        # differences at once (another (p - 1) x n), would exceed the bound.
        n, p = shape
        X = np.random.Generator(np.random.Philox(52)).standard_normal(shape)
        bound = 8 * (n * p + max((p - 1) * n, n * p) + 3 * p * p)
        assert traced_peak(_ogk_scores, X) <= bound


class TestOgkEstimate:
    def test_diagonal_tracks_the_squared_column_mads(self):
        scales = np.array([0.01, 1.0, 100.0, 5.0, 0.5])
        rng = np.random.Generator(np.random.Philox(7))
        X = rng.standard_normal((500, 5)) * scales
        est = ogk_estimate(X)
        rel_err = np.abs(np.diag(est.scatter) - scales**2) / scales**2
        assert rel_err.max() < 0.25

    def test_identity_recovery_on_clean_normal_data(self):
        rng = np.random.Generator(np.random.Philox(7))
        X = rng.standard_normal((1000, 5))
        est = ogk_estimate(X)
        assert np.abs(est.scatter - np.eye(5)).max() < 0.15
        assert np.abs(est.location).max() < 0.15

    def test_duplicated_column_makes_the_block_singular(self):
        rng = np.random.Generator(np.random.Philox(48))
        x = rng.standard_normal(200)
        X = np.column_stack([x, x, rng.standard_normal(200)])
        est = ogk_estimate(X)
        block = est.scatter[:2, :2]
        det = block[0, 0] * block[1, 1] - block[0, 1] ** 2
        assert abs(det) < 1e-10 * block[0, 0] * block[1, 1] + 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_scatter_is_positive_semidefinite(self, seed):
        rng = np.random.Generator(np.random.Philox(seed))
        X = rng.standard_normal((80, 6)) @ rng.standard_normal((6, 6))
        X[:8] += 10.0
        est = ogk_estimate(X)
        assert np.abs(est.scatter - est.scatter.T).max() < 1e-10
        assert np.linalg.eigvalsh(est.scatter).min() >= -1e-10

    def test_zero_mad_column_errors(self):
        X = np.column_stack([np.ones(20), np.arange(20.0)])
        with pytest.raises(ValueError, match="zero MAD"):
            ogk_estimate(X)


class TestOgkReweight:
    def test_no_rejection_recovers_the_classical_estimate(self):
        rng = np.random.Generator(np.random.Philox(49))
        X = rng.standard_normal((60, 3)) * 0.5
        est = ogk_estimate(X)
        refined = ogk_reweight(X, est, beta=0.9999)
        assert refined.location == pytest.approx(X.mean(axis=0), abs=1e-12)
        assert refined.scatter == pytest.approx(np.cov(X, rowvar=False), abs=1e-12)

    def test_beta_half_retains_about_half(self):
        rng = np.random.Generator(np.random.Philox(50))
        X = rng.standard_normal((200, 4))
        est = ogk_estimate(X)
        d2 = robust_distances(X, est) ** 2
        from pcout.chisq import chi2_quantile

        d0_sq = chi2_quantile(0.5, 4) * np.median(d2) / chi2_quantile(0.5, 4)
        kept = float(np.mean(d2 < d0_sq))
        assert 0.4 <= kept <= 0.6
        refined = ogk_reweight(X, est, beta=0.5)
        assert refined.scatter.shape == (4, 4)

    def test_rejection_improves_on_gross_contamination(self):
        deltas = []
        for seed in range(16):
            rng = np.random.Generator(np.random.Philox(seed))
            X = rng.standard_normal((100, 4))
            X[:10] += 8.0
            raw = ogk_estimate(X)
            refined = ogk_reweight(X, raw, beta=0.9)
            err_raw = np.linalg.norm(raw.scatter - np.eye(4))
            err_ref = np.linalg.norm(refined.scatter - np.eye(4))
            deltas.append(err_raw - err_ref)
        assert np.mean(deltas) > 0.0

    def test_too_few_retained_errors(self):
        rng = np.random.Generator(np.random.Philox(51))
        X = rng.standard_normal((8, 5))
        est = ogk_estimate(X)
        with pytest.raises(ValueError, match="retained"):
            ogk_reweight(X, est, beta=0.011)


class TestSign2:
    def test_signs_have_unit_norm_off_center(self):
        rng = np.random.Generator(np.random.Philox(52))
        X = rng.standard_normal((50, 4)) + 3.0
        S = _unit_rows(X - np.median(X, axis=0))
        assert np.abs(np.linalg.norm(S, axis=1) - 1.0).max() < 1e-12

    def test_sign_covariance_of_symmetric_data(self):
        rng = np.random.Generator(np.random.Philox(53))
        X = rng.standard_normal((2000, 6))
        S = _unit_rows(X - np.median(X, axis=0))
        C = np.cov(S, rowvar=False)
        assert np.abs(C - np.eye(6) / 6).max() < 0.1

    def test_radius_does_not_move_the_sign(self):
        rng = np.random.Generator(np.random.Philox(54))
        X = rng.standard_normal((100, 5))
        X[0] = 50.0
        center = np.median(X, axis=0)
        X_far = X.copy()
        X_far[0] = center + 100.0 * (X[0] - center)
        S1 = _unit_rows(X - center)
        S2 = _unit_rows(X_far - center)
        C1 = np.cov(S1, rowvar=False)
        C2 = np.cov(S2, rowvar=False)
        assert np.abs(C1 - C2).max() < 1e-12

    def test_flags_invariant_under_global_scaling(self):
        rng = np.random.Generator(np.random.Philox(55))
        X = rng.standard_normal((120, 8))
        X[:10] += 5.0
        base = sign2_detect(X, alpha=0.05)
        scaled = sign2_detect(X * 1000.0, alpha=0.05)
        assert np.array_equal(base.flags, scaled.flags)
        assert scaled.distances == pytest.approx(base.distances, abs=1e-12)

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e5])
    def test_signs_bit_identical_to_the_plain_formula(self, scale):
        rng = np.random.Generator(np.random.Philox(58))
        X = scale * rng.standard_normal((80, 7))
        D = X - np.median(X, axis=0)
        plain = D / np.sqrt((D**2).sum(axis=1))[:, None]
        assert np.array_equal(_unit_rows(D), plain)

    # 2^-900 and 2^-530 put the rows' squares below or in the subnormals, 2^520
    # past the float maximum; 2^500 keeps them, and the plain norms, in range
    @pytest.mark.parametrize("k", [-900, -530, 500, 520])
    def test_a_power_of_two_scale_moves_no_bit(self, k):
        rng = np.random.Generator(np.random.Philox(60))
        X = rng.standard_normal((80, 7))
        X[:6] += 5.0
        center = np.median(X, axis=0)
        assert np.array_equal(_unit_rows((X - center) * 2.0**k), _unit_rows(X - center))
        base = sign2_detect(X, alpha=0.05)
        scaled = sign2_detect(X * 2.0**k, alpha=0.05)
        assert scaled.distances.tobytes() == base.distances.tobytes()
        assert np.array_equal(scaled.flags, base.flags)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_entries_do_not_overflow(self):
        # squaring entries near 1e160 overflows float64 unless rows are rescaled first
        rng = np.random.Generator(np.random.Philox(59))
        X = rng.standard_normal((60, 8))
        base = sign2_detect(X, alpha=0.05)
        huge = sign2_detect(X * 1e160, alpha=0.05)
        assert np.array_equal(huge.flags, base.flags)
        assert huge.distances == pytest.approx(base.distances, rel=1e-12)

    def test_row_at_the_center_is_scored_not_crashed(self):
        v = np.array([1.0, 2.0, 0.5, -1.0])
        w = np.array([-2.0, 1.0, 1.5, 0.25])
        X = np.vstack([v, -v, np.zeros(4), w, -w, 2 * v - w, -(2 * v - w)])
        result = sign2_detect(X, alpha=0.05)
        assert np.all(np.isfinite(result.distances))
        assert result.distances[2] == pytest.approx(0.0, abs=1e-12)
        assert not result.flags[2]

    def test_detects_gross_location_outliers(self):
        rng = np.random.Generator(np.random.Philox(56))
        X = rng.standard_normal((100, 10))
        X[:5] += 8.0
        result = sign2_detect(X, alpha=0.05)
        assert result.flags[:5].all()


class TestOgkDetect:
    def test_flags_gross_outliers(self):
        rng = np.random.Generator(np.random.Philox(57))
        X = rng.standard_normal((100, 5))
        X[:8] += 6.0
        result = ogk_detect(X, alpha=0.05)
        assert result.method == "ogk"
        assert result.flags[:8].all()
        assert result.flags[8:].mean() < 0.2


# Squares of distances past about 1e154 overflowed in sign2 and both OGK
# branches, which turned the gross row's distance into inf; pytest turns any
# RuntimeWarning into an error
@pytest.mark.parametrize("gross", [1e155, 1e200, 1e300, 1e305])
@pytest.mark.parametrize(
    "method, shape",
    [("sign2", (60, 5)), ("sign2", (20, 50)), ("ogk", (20, 50)), ("ogk", (60, 5))],
    ids=["sign2-60x5", "sign2-20x50", "ogk-wide-20x50", "ogk-60x5"],
)
def test_one_gross_finite_row_gets_the_flags_of_an_ordinary_gross_row(method, shape, gross):
    run = {"sign2": sign2_detect, "ogk": ogk_detect}[method]
    X = np.random.Generator(np.random.Philox(30)).standard_normal(shape)
    X[7] = 1e10
    ordinary = run(X, 0.05)
    X[7] = gross
    result = run(X, 0.05)
    assert result.flags[7]
    assert np.array_equal(result.flags, ordinary.flags)
    assert np.isfinite(result.distances).all()


def _leaves(result):
    """The bytes of every array in a result and the repr of every other field."""
    if dataclasses.is_dataclass(result):
        fields = dataclasses.fields(result)
        return [leaf for f in fields for leaf in _leaves(getattr(result, f.name))]
    return [result.tobytes() if isinstance(result, np.ndarray) else repr(result)]


@pytest.mark.parametrize(
    "shape",
    [(60, 300), (40, 120), (400, 12)],
    ids=["gram-60x300", "ogk-wide-40x120", "covariance-400x12"],
)
def test_no_output_depends_on_the_signs_of_the_eigenvectors(shape, monkeypatch):
    rng = np.random.Generator(np.random.Philox(58))
    X = rng.standard_normal(shape) * rng.uniform(0.5, 4.0, shape[1])
    X[: shape[0] // 10] += 1.5
    runs = [detect, lambda X: sign2_detect(X, 0.05), lambda X: ogk_detect(X, 0.05)]
    decomposing = len(runs)
    if shape[0] > shape[1]:
        # classical_detect factors its covariance and decomposes nothing
        runs += [lambda X: classical_detect(X, 0.05), ogk_estimate]
        decomposing += 1
    plain = [_leaves(run(X)) for run in runs]

    eigh, calls = np.linalg.eigh, []

    def every_other_column_negated(a):
        w, V = eigh(a)
        calls.append(a)
        V[:, ::2] *= -1.0
        return w, V

    monkeypatch.setattr(np.linalg, "eigh", every_other_column_negated)
    flipped = [_leaves(run(X)) for run in runs]
    assert len(calls) >= decomposing
    assert flipped == plain
