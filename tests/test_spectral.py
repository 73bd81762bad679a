import numpy as np
import pytest

from pcout.spectral import (
    PcaBasis,
    covariance,
    pca_basis,
    project,
    retain_components,
    sym_eigen,
)


def sample_covariance(X):
    """The sample covariance of X: ``covariance`` of its rows centred at their mean."""
    return covariance(X - X.mean(axis=0))


class TestCovariance:
    def test_identical_columns_give_equal_entries(self):
        col = np.array([1.0, 4.0, 2.0, 7.0])
        C = sample_covariance(np.column_stack([col, col]))
        assert np.ptp(C) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_centered_columns_give_diagonal(self):
        X = np.column_stack([[1.0, -1.0, 1.0, -1.0], [1.0, 1.0, -1.0, -1.0]])
        C = sample_covariance(X)
        assert C[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_matches_the_double_loop(self):
        rng = np.random.Generator(np.random.Philox(10))
        X = rng.standard_normal((20, 3))
        C = sample_covariance(X)
        means = X.mean(axis=0)
        for j in range(3):
            for k in range(3):
                brute = sum(
                    (X[i, j] - means[j]) * (X[i, k] - means[k]) for i in range(20)
                ) / 19
                assert C[j, k] == pytest.approx(brute, abs=1e-12)

    # column scales from 1e-100 to 1e100, p from 1 to past n
    @pytest.mark.parametrize("shape", [(3, 1), (5, 2), (20, 3), (100, 40), (60, 200), (10000, 100)])
    def test_is_exactly_symmetric_with_the_symmetrized_bytes(self, shape):
        rng = np.random.Generator(np.random.Philox(11))
        X = rng.standard_normal(shape) * 10.0 ** rng.integers(-100, 101, shape[1])
        C = sample_covariance(X)
        assert C.tobytes() == np.ascontiguousarray(C.T).tobytes()
        assert C.tobytes() == ((C + C.T) / 2.0).tobytes()

    def test_a_variance_past_half_the_float_maximum_stays_finite(self):
        # 2 * (8e153)^2 = 1.28e308 is finite; C + C.T would overflow
        C = sample_covariance(np.array([[8e153], [-8e153]]))
        assert C[0, 0] == pytest.approx(1.28e308, rel=1e-15)


class TestSymEigen:
    def test_diagonal_matrix(self):
        w, V = sym_eigen(np.diag([2.0, 1.0]))
        assert w == pytest.approx([2.0, 1.0])
        assert np.abs(V) == pytest.approx(np.eye(2), abs=1e-12)

    def test_identity_all_ones(self):
        w, _ = sym_eigen(np.eye(5))
        assert w == pytest.approx(np.ones(5))

    def test_reconstruction(self):
        rng = np.random.Generator(np.random.Philox(11))
        A = rng.standard_normal((8, 8))
        C = (A + A.T) / 2
        w, V = sym_eigen(C)
        norm = max(1.0, np.abs(C).max())
        assert np.abs(V @ np.diag(w) @ V.T - C).max() <= 1e-8 * norm
        assert np.abs(V.T @ V - np.eye(8)).max() < 1e-10
        assert np.all(np.diff(w) <= 1e-12)

    def test_peak_is_twice_its_matrix(self, traced_peak):
        X = np.random.Generator(np.random.Philox(14)).standard_normal((1200, 600))
        C = sample_covariance(X)
        assert traced_peak(sym_eigen, C) <= 2.1 * C.nbytes

    def test_spectrum_invariant_under_orthogonal_similarity(self):
        rng = np.random.Generator(np.random.Philox(12))
        A = rng.standard_normal((6, 6))
        C = A @ A.T
        Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        w1, _ = sym_eigen(C)
        w2, _ = sym_eigen(Q.T @ C @ Q)
        assert w1 == pytest.approx(w2, rel=1e-9, abs=1e-9)


class TestGramEigen:
    """pca_basis's Gram route (p > n), against the direct decomposition."""

    def test_rank_one_matrix(self):
        rng = np.random.Generator(np.random.Philox(13))
        v = rng.standard_normal(50)
        coef = rng.standard_normal((10, 1))
        Xc = coef @ v[None, :]
        Xc -= Xc.mean(axis=0)
        basis = pca_basis(Xc, 1.0)
        assert len(basis.eigenvalues) == 1
        assert basis.eigenvectors.shape == (50, 1)

    def test_agrees_with_direct_route_wide(self):
        rng = np.random.Generator(np.random.Philox(14))
        X = rng.standard_normal((10, 50))
        basis = pca_basis(X, 1.0)
        w_gram, V_gram = basis.eigenvalues, basis.eigenvectors
        w_direct, _ = sym_eigen(sample_covariance(X))
        assert w_gram == pytest.approx(w_direct[: len(w_gram)], rel=1e-6)
        # mapped-back eigenvectors are orthonormal and satisfy C v = lambda v
        C = sample_covariance(X)
        assert np.abs(V_gram.T @ V_gram - np.eye(len(w_gram))).max() < 1e-8
        resid = C @ V_gram - V_gram * w_gram
        assert np.abs(resid).max() < 1e-8 * max(1.0, np.abs(C).max())

    def test_agrees_when_n_equals_p(self):
        rng = np.random.Generator(np.random.Philox(15))
        X = rng.standard_normal((12, 12))
        w_gram = pca_basis(X, 1.0).eigenvalues  # n = p: the boundary, covariance route
        w_direct, _ = sym_eigen(sample_covariance(X))
        k = len(w_gram)
        assert w_gram == pytest.approx(w_direct[:k], rel=1e-6)


class TestRetainComponents:
    def test_forced_by_the_at_least_rule(self):
        assert retain_components([98.0, 1.0, 1.0], 0.99, max_components=3) == 2

    def test_single_component(self):
        assert retain_components([10.0], 0.99, max_components=1) == 1

    def test_zero_tail(self):
        assert retain_components([5.0, 5.0, 0.0, 0.0], 0.99, max_components=4) == 2

    def test_cap(self):
        assert retain_components([1.0, 1.0, 1.0, 1.0], 1.0, max_components=2) == 2

    def test_all_zero_errors(self):
        with pytest.raises(ValueError):
            retain_components([0.0, 0.0], 0.99, max_components=2)


class TestProject:
    def test_identity_basis(self):
        X = np.arange(12.0).reshape(4, 3)
        basis = PcaBasis(np.eye(3), np.ones(3), 1.0, 3.0)
        assert project(X, basis) == pytest.approx(X)

    def test_permutation_basis(self):
        X = np.arange(12.0).reshape(4, 3)
        P = np.eye(3)[:, [2, 0, 1]]
        basis = PcaBasis(P, np.ones(3), 1.0, 3.0)
        assert project(X, basis) == pytest.approx(X[:, [2, 0, 1]])

    def test_scores_are_uncorrelated(self):
        rng = np.random.Generator(np.random.Philox(16))
        X = rng.standard_normal((40, 5)) @ rng.standard_normal((5, 5))
        basis = pca_basis(X, 1.0)
        Z = project(X, basis)
        C = sample_covariance(Z)
        off = C - np.diag(np.diag(C))
        assert np.abs(off).max() < 1e-8


class TestPcaBasis:
    def test_wide_matrix_uses_at_most_n_minus_1_components(self):
        rng = np.random.Generator(np.random.Philox(17))
        X = rng.standard_normal((10, 80))
        basis = pca_basis(X, 0.99)
        assert basis.n_components <= 9
        assert basis.variance_fraction <= 1.0
        assert np.all(np.diff(basis.eigenvalues) <= 1e-12)

    def test_a_wide_spectrum_below_the_rank_floor_is_all_zero(self):
        # on the Gram route every eigenvalue, about 5e-15, falls below the floor, so
        # no column is left to scale to unit length
        X = np.random.Generator(np.random.Philox(12)).standard_normal((5, 200)) * 1e-8
        with pytest.raises(ValueError, match="all-zero spectrum"):
            pca_basis(X)

    def test_the_covariance_route_frees_its_centred_copy_before_the_decomposition(self, traced_peak):
        # the p x p covariance, eigh's eigenvectors and their reordered copy: three squares
        X = np.random.Generator(np.random.Philox(54)).standard_normal((800, 800))
        assert traced_peak(pca_basis, X, 0.99, 799) <= 3.1 * X.nbytes

    def test_variance_accounting(self):
        rng = np.random.Generator(np.random.Philox(18))
        X = rng.standard_normal((50, 6))
        basis = pca_basis(X, 0.99)
        assert basis.total_variance == pytest.approx(np.trace(sample_covariance(X)), rel=1e-12)
        assert basis.variance_fraction >= 0.99 or basis.n_components == 49
        wide = rng.standard_normal((30, 90))  # Gram route: the n x n matrix has the same trace
        gram_total = pca_basis(wide, 0.99).total_variance
        assert gram_total == pytest.approx(np.trace(sample_covariance(wide)), rel=1e-12)

    # 2**508 times N(0, 1) entries at n * p = 300: over the bound past which the
    # products could overflow, so the scaled route runs, with the variances
    # still inside the float range
    @pytest.mark.parametrize("shape", [(12, 25), (60, 5)], ids=["gram", "covariance"])
    def test_a_scale_whose_products_overflow_scales_only_the_variances(self, shape):
        X = np.random.Generator(np.random.Philox(53)).standard_normal(shape)
        basis = pca_basis(X, 0.99)
        big = pca_basis(X * 2.0**508, 0.99)
        assert big.n_components == basis.n_components
        assert big.variance_fraction == pytest.approx(basis.variance_fraction, rel=1e-12)
        assert big.eigenvalues == pytest.approx(basis.eigenvalues * 4.0**508, rel=1e-12)
        assert big.total_variance == pytest.approx(basis.total_variance * 4.0**508, rel=1e-12)
        assert np.abs(big.eigenvectors.T @ basis.eigenvectors).diagonal() == pytest.approx(1.0)

    @pytest.mark.parametrize("shape", [(30, 90), (90, 12)], ids=["gram", "covariance"])
    def test_the_input_is_left_as_it_was(self, shape, laid_out):
        rng = np.random.Generator(np.random.Philox(44))
        Xs = laid_out(rng.standard_normal(shape) + 2.0)
        before = Xs.tobytes()
        pca_basis(Xs, 0.99, max_components=shape[0] - 1)
        assert Xs.tobytes() == before


def test_norm_concentration_with_dimension():
    rng = np.random.Generator(np.random.Philox(19))
    prev_sd = np.inf
    for p in (10, 100, 1000):
        ratios = np.linalg.norm(rng.standard_normal((1000, p)), axis=1) / np.sqrt(p)
        assert ratios.std() < prev_sd
        prev_sd = ratios.std()
    assert abs(ratios.mean() - 1.0) < 0.02  # tightest at the largest p
