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


class TestCovariance:
    def test_identical_columns_give_equal_entries(self):
        col = np.array([1.0, 4.0, 2.0, 7.0])
        C = covariance(np.column_stack([col, col]))
        assert np.ptp(C) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_centered_columns_give_diagonal(self):
        X = np.column_stack([[1.0, -1.0, 1.0, -1.0], [1.0, 1.0, -1.0, -1.0]])
        C = covariance(X)
        assert C[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_matches_the_double_loop(self):
        rng = np.random.Generator(np.random.Philox(10))
        X = rng.standard_normal((20, 3))
        C = covariance(X)
        means = X.mean(axis=0)
        for j in range(3):
            for k in range(3):
                brute = sum(
                    (X[i, j] - means[j]) * (X[i, k] - means[k]) for i in range(20)
                ) / 19
                assert C[j, k] == pytest.approx(brute, abs=1e-12)

    def test_single_row_errors(self):
        with pytest.raises(ValueError):
            covariance(np.ones((1, 3)))


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

    def test_asymmetric_errors(self):
        with pytest.raises(ValueError, match="symmetric"):
            sym_eigen(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_asymmetry_is_measured_against_the_largest_magnitude_negative_too(self):
        # an asymmetry of 1 is within 1e-8 of |-1e9|, so the matrix is accepted
        w, _ = sym_eigen(np.array([[-1e9, 1.0], [2.0, -1e9]]))
        assert w == pytest.approx([-1e9 + 1.5, -1e9 - 1.5])

    def test_eigenpairs_match_the_out_of_place_symmetrization(self):
        rng = np.random.Generator(np.random.Philox(13))
        A = rng.standard_normal((40, 40))
        C = A @ A.T + 1e-12 * rng.standard_normal((40, 40))  # asymmetric within tolerance
        w, V = np.linalg.eigh((C + C.T) / 2.0)
        order = np.argsort(w)[::-1]
        w, V = w[order], V[:, order]
        got_w, got_V = sym_eigen(C)
        assert got_w.tobytes() == w.tobytes()
        assert got_V.tobytes() == V.tobytes()

    def test_peak_is_twice_its_matrix(self, traced_peak):
        X = np.random.Generator(np.random.Philox(14)).standard_normal((1200, 600))
        C = covariance(X)
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
        w_direct, _ = sym_eigen(covariance(X))
        assert w_gram == pytest.approx(w_direct[: len(w_gram)], rel=1e-6)
        # mapped-back eigenvectors are orthonormal and satisfy C v = lambda v
        C = covariance(X)
        assert np.abs(V_gram.T @ V_gram - np.eye(len(w_gram))).max() < 1e-8
        resid = C @ V_gram - V_gram * w_gram
        assert np.abs(resid).max() < 1e-8 * max(1.0, np.abs(C).max())

    def test_agrees_when_n_equals_p(self):
        rng = np.random.Generator(np.random.Philox(15))
        X = rng.standard_normal((12, 12))
        w_gram = pca_basis(X, 1.0).eigenvalues  # n = p: the boundary, covariance route
        w_direct, _ = sym_eigen(covariance(X))
        k = len(w_gram)
        assert w_gram == pytest.approx(w_direct[:k], rel=1e-6)


class TestRetainComponents:
    def test_forced_by_the_at_least_rule(self):
        assert retain_components([98.0, 1.0, 1.0], 0.99) == 2

    def test_single_component(self):
        assert retain_components([10.0], 0.99) == 1

    def test_zero_tail(self):
        assert retain_components([5.0, 5.0, 0.0, 0.0], 0.99) == 2

    def test_cap(self):
        assert retain_components([1.0, 1.0, 1.0, 1.0], 1.0, max_components=2) == 2

    def test_all_zero_errors(self):
        with pytest.raises(ValueError):
            retain_components([0.0, 0.0], 0.99)


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
        C = covariance(Z)
        off = C - np.diag(np.diag(C))
        assert np.abs(off).max() < 1e-8

    def test_dimension_mismatch_errors(self):
        basis = PcaBasis(np.eye(3), np.ones(3), 1.0, 3.0)
        with pytest.raises(ValueError, match="mismatch"):
            project(np.ones((4, 2)), basis)


class TestPcaBasis:
    def test_wide_matrix_uses_at_most_n_minus_1_components(self):
        rng = np.random.Generator(np.random.Philox(17))
        X = rng.standard_normal((10, 80))
        basis = pca_basis(X, 0.99)
        assert basis.n_components <= 9
        assert basis.variance_fraction <= 1.0
        assert np.all(np.diff(basis.eigenvalues) <= 1e-12)

    def test_variance_accounting(self):
        rng = np.random.Generator(np.random.Philox(18))
        X = rng.standard_normal((50, 6))
        basis = pca_basis(X, 0.99)
        assert basis.total_variance == pytest.approx(np.trace(covariance(X)), rel=1e-12)
        assert basis.variance_fraction >= 0.99 or basis.n_components == 49
        wide = rng.standard_normal((30, 90))  # Gram route: the n x n matrix has the same trace
        gram_total = pca_basis(wide, 0.99).total_variance
        assert gram_total == pytest.approx(np.trace(covariance(wide)), rel=1e-12)

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
