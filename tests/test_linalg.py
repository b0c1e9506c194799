import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from streamkpca.linalg import (
    ConvergenceError,
    DimensionError,
    eigendecomposition,
    jacobi_eigendecomposition,
    power_iteration_top,
    symmetric_dense,
)


class TestDenseInput:
    def test_exactly_symmetric_input_keeps_its_values(self):
        rng = np.random.default_rng(1)
        g = rng.standard_normal((5, 5))
        dense = g + g.T
        assert np.array_equal(symmetric_dense(dense), dense)

    @pytest.mark.parametrize(
        "a, error",
        [
            (np.zeros((2, 3)), DimensionError),
            (np.zeros((0, 0)), DimensionError),
            (np.array([[1.0, 2.0], [0.0, 1.0]]), ValueError),
            (np.array([[math.nan, 0.0], [0.0, 1.0]]), ValueError),
        ],
    )
    def test_rejects_a_non_symmetric_matrix(self, a, error):
        with pytest.raises(error):
            eigendecomposition(a)


class TestJacobi:
    def test_diagonal_input(self):
        eig = jacobi_eigendecomposition(np.array([[4.0, 0.0], [0.0, 1.0]]))
        assert np.array_equal(eig.eigenvalues, [4.0, 1.0])
        assert np.array_equal(eig.eigenvectors, np.eye(2))

    def test_2x2_analytic(self):
        eig = jacobi_eigendecomposition(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(eig.eigenvalues, [3.0, 1.0], atol=1e-14)
        expected = np.array([1.0, 1.0]) / math.sqrt(2.0)
        assert np.allclose(eig.top_vector, expected, atol=1e-14)

    def test_random_8x8_reconstruction(self):
        rng = np.random.default_rng(7)
        g = rng.standard_normal((8, 8))
        a = g + g.T
        eig = jacobi_eigendecomposition(a)
        recon = eig.eigenvectors @ np.diag(eig.eigenvalues) @ eig.eigenvectors.T
        limit = 1e-8 * max(1.0, np.abs(a).max())
        assert np.abs(recon - a).max() <= limit
        gram = eig.eigenvectors.T @ eig.eigenvectors
        assert np.abs(gram - np.eye(8)).max() <= 1e-9

    def test_eigenvalues_sorted_descending(self):
        rng = np.random.default_rng(3)
        g = rng.standard_normal((12, 12))
        eig = jacobi_eigendecomposition(g + g.T)
        assert np.all(np.diff(eig.eigenvalues) <= 0)

    def test_sign_convention(self):
        rng = np.random.default_rng(5)
        g = rng.standard_normal((6, 6))
        eig = jacobi_eigendecomposition(g + g.T)
        for k in range(6):
            col = eig.eigenvectors[:, k]
            nz = np.nonzero(col)[0]
            assert col[nz[0]] > 0

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        g = rng.standard_normal((9, 9))
        a = g + g.T
        e1 = jacobi_eigendecomposition(a)
        e2 = jacobi_eigendecomposition(a)
        assert np.array_equal(e1.eigenvalues, e2.eigenvalues)
        assert np.array_equal(e1.eigenvectors, e2.eigenvectors)

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            jacobi_eigendecomposition(np.zeros((2049, 2049)))

    def test_zero_matrix(self):
        eig = jacobi_eigendecomposition(np.zeros((4, 4)))
        assert np.array_equal(eig.eigenvalues, np.zeros(4))


class TestEigendecomposition:
    def test_diagonal_input(self):
        eig = eigendecomposition(np.array([[1.0, 0.0], [0.0, 4.0]]))
        assert np.array_equal(eig.eigenvalues, [4.0, 1.0])
        assert np.array_equal(eig.eigenvectors, [[0.0, 1.0], [1.0, 0.0]])

    def test_2x2_analytic(self):
        eig = eigendecomposition(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(eig.eigenvalues, [3.0, 1.0], atol=1e-14)
        expected = np.array([1.0, 1.0]) / math.sqrt(2.0)
        assert np.allclose(eig.top_vector, expected, atol=1e-14)

    def test_sorted_descending_and_sign_convention(self):
        rng = np.random.default_rng(5)
        g = rng.standard_normal((12, 12))
        eig = eigendecomposition(g + g.T)
        assert np.all(np.diff(eig.eigenvalues) <= 0)
        for k in range(12):
            col = eig.eigenvectors[:, k]
            assert col[np.nonzero(col)[0][0]] > 0

    def test_repeated_eigenvalues_keep_a_stable_order(self):
        eig = eigendecomposition(np.eye(3))
        assert np.array_equal(eig.eigenvalues, np.ones(3))
        assert np.array_equal(eig.eigenvectors, np.eye(3))

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            eigendecomposition(np.zeros((2049, 2049)))

    def test_zero_matrix(self):
        eig = eigendecomposition(np.zeros((4, 4)))
        assert np.array_equal(eig.eigenvalues, np.zeros(4))

    def test_postconditions_reject_a_bad_solve(self, monkeypatch):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        monkeypatch.setattr(
            np.linalg, "eigh", lambda m: (np.array([1.0, 3.0]), np.eye(2))
        )
        with pytest.raises(ConvergenceError, match="reconstruction"):
            eigendecomposition(a)
        monkeypatch.setattr(
            np.linalg, "eigh", lambda m: (np.array([1.0, 3.0]), 2.0 * np.eye(2))
        )
        with pytest.raises(ConvergenceError, match="orthonormal"):
            eigendecomposition(a)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9), st.integers(1, 16))
    def test_agrees_with_jacobi(self, seed, k):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((k, k)) * 10.0 ** rng.uniform(-3, 3)
        a = g + g.T
        lapack = eigendecomposition(a)
        jacobi = jacobi_eigendecomposition(a)
        # Entries span six decades, so tolerances and the 1e-6 gap are
        # relative to the largest |eigenvalue|.
        scale = max(float(np.abs(jacobi.eigenvalues).max()), 1e-300)
        assert (
            np.abs(lapack.eigenvalues - jacobi.eigenvalues).max()
            <= 1e-12 * scale
        )
        values = jacobi.eigenvalues
        for i in range(k):
            gap = min(
                [abs(values[i] - values[j]) for j in range(k) if j != i],
                default=math.inf,
            )
            if gap < 1e-6 * scale:
                continue
            u = lapack.eigenvectors[:, i]
            v = jacobi.eigenvectors[:, i]
            tol = 1e-12 * scale / gap
            assert min(np.abs(u - v).max(), np.abs(u + v).max()) <= tol


class TestPowerIteration:
    def test_diagonal_input(self):
        lam, vec = power_iteration_top(
            np.array([[4.0, 0.0], [0.0, 1.0]]), tol=1e-10, max_iters=10000
        )
        assert abs(lam - 4.0) <= 1e-9
        assert 1.0 - float(vec @ np.array([1.0, 0.0])) ** 2 <= 1e-9

    def test_2x2_analytic(self):
        lam, vec = power_iteration_top(
            np.array([[2.0, 1.0], [1.0, 2.0]]), tol=1e-12, max_iters=10000
        )
        assert abs(lam - 3.0) <= 1e-10
        expected = np.array([1.0, 1.0]) / math.sqrt(2.0)
        assert 1.0 - float(vec @ expected) ** 2 <= 1e-10

    def test_random_spiked_16x16_matches_jacobi(self):
        rng = np.random.default_rng(23)
        basis, _ = np.linalg.qr(rng.standard_normal((16, 16)))
        spectrum = np.concatenate(([10.0], rng.uniform(0.1, 1.0, 15)))
        a = basis @ np.diag(spectrum) @ basis.T
        eig = jacobi_eigendecomposition(a)
        lam, vec = power_iteration_top(a, tol=1e-13, max_iters=100000)
        assert abs(lam - eig.eigenvalues[0]) <= 1e-8
        assert 1.0 - float(vec @ eig.top_vector) ** 2 <= 1e-8

    def test_dominant_negative_eigenvalue(self):
        # Largest eigenvalue must win even when a negative one dominates
        # in magnitude.
        lam, vec = power_iteration_top(
            np.array([[1.0, 0.0], [0.0, -5.0]]), tol=1e-12, max_iters=100000
        )
        assert abs(lam - 1.0) <= 1e-9
        assert abs(abs(vec[0]) - 1.0) <= 1e-6

    def test_convergence_error(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        with pytest.raises(ConvergenceError):
            power_iteration_top(a, tol=1e-15, max_iters=2)

    def test_bad_tol(self):
        with pytest.raises(ValueError):
            power_iteration_top(np.array([[1.0]]), tol=0.0, max_iters=10)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**9))
    # A shifted gap ratio near 1: a stalled Rayleigh quotient once stopped
    # the iteration at 1 - <v, v_jacobi>^2 = 3e-8.
    @example(162791)
    def test_agrees_with_jacobi(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 33))
        g = rng.standard_normal((k, k))
        a = g + g.T
        eig = jacobi_eigendecomposition(a)
        gap = float(eig.eigenvalues[0] - eig.eigenvalues[1])
        assume(gap >= 1e-2)
        lam, vec = power_iteration_top(a, tol=1e-13, max_iters=500000)
        assert abs(lam - eig.eigenvalues[0]) <= 1e-8
        assert 1.0 - float(vec @ eig.top_vector) ** 2 <= 1e-8
