import dataclasses
import math
from unittest import mock

import numpy as np
import pytest

import streamkpca
from streamkpca import linalg

from streamkpca.datagen import SpikedSpec, make_spiked_stream
from streamkpca.featuremaps import FeatureMapSpec
from streamkpca.harness import RunConfig, run_trial
from streamkpca.spectral import (
    AlphaBeta,
    SpectralSummary,
    alignment_error,
    compute_alpha_beta,
    summarize,
)

from reference_eigen import jacobi_eigendecomposition

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


class TestSummarize:
    def test_axis_aligned_counting(self):
        summary = summarize([E1, E1, E2], FeatureMapSpec.identity(2))
        assert np.allclose(summary.eig.eigenvalues, [2.0, 1.0], atol=1e-15)
        assert (summary.lambda1, summary.lambda2) == (2.0, 1.0)
        assert abs(summary.ratio - 2.0) <= 1e-12
        assert np.allclose(summary.top_vector, E1, atol=1e-15)
        assert summary.n == 3

    def test_rank_one_sentinel(self):
        summary = summarize([E1], FeatureMapSpec.identity(2))
        assert summary.ratio == math.inf

    def test_one_dimensional_feature_space(self):
        # m = 1 has no second eigenvalue: lambda_2 is 0, so the ratio is
        # the sentinel and nothing is orthogonal to x*.
        summary = summarize([[2.0], [-1.0]], FeatureMapSpec.identity(1))
        assert (summary.lambda1, summary.lambda2) == (5.0, 0.0)
        assert summary.ratio == math.inf
        assert compute_alpha_beta(summary, 0.1) == AlphaBeta(alpha=0.0, beta=0.5)

    def test_degenerate_stream(self):
        with pytest.raises(ValueError):
            summarize([np.zeros(2), np.zeros(2)], FeatureMapSpec.identity(2))

    def test_empty_stream(self):
        with pytest.raises(ValueError):
            summarize([], FeatureMapSpec.identity(2))

    def test_feature_dim_cap(self):
        spec = FeatureMapSpec.rff(2, 2049, 1.0, 0)
        with pytest.raises(ValueError):
            summarize([E1], spec)

    def test_feature_dim_1024(self):
        # Far past what the Jacobi reference solves in test time.
        rng = np.random.default_rng(9)
        n = 32
        xs = rng.standard_normal((n, 4))
        summary = summarize(xs, FeatureMapSpec.rff(4, 1024, 2.0, 3))
        values = summary.eig.eigenvalues
        assert values.shape == (1024,)
        assert np.all(np.diff(values) <= 0)
        # n samples span at most n directions.
        assert np.abs(values[n:]).max() <= 1e-12 * summary.lambda1
        ab = compute_alpha_beta(summary, 1e-3)
        assert abs(ab.beta - 1e-3 * values[0]) <= 1e-9 * ab.beta
        assert abs(ab.alpha - 1e-3 * values[1]) <= 1e-9 * ab.beta

    def test_second_moment_unnormalized(self):
        summary = summarize([E1, E1, E2], FeatureMapSpec.identity(2))
        assert np.allclose(
            summary.second_moment, np.diag([2.0, 1.0]), atol=0
        )

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        xs = rng.standard_normal((500, 6))
        phi = FeatureMapSpec.identity(6)
        base = summarize(xs, phi).second_moment
        perm = rng.permutation(500)
        shuffled = summarize(xs[perm], phi).second_moment
        assert np.abs(base - shuffled).max() <= 1e-9

    @pytest.mark.parametrize(
        "phi",
        [
            FeatureMapSpec.identity(6),
            FeatureMapSpec.poly2(4),
            FeatureMapSpec.rff(6, 40, 2.0, 5),
        ],
        ids=["identity", "poly2", "rff"],
    )
    @pytest.mark.parametrize("block_rows", [7, 64, 1024])
    def test_blocks_match_eigh_of_the_lifted_stream(self, phi, block_rows):
        rng = np.random.default_rng(21)
        xs = rng.standard_normal((500, phi.input_dim))
        with mock.patch.object(linalg, "BLOCK_ROWS", block_rows):
            summary = summarize(xs, phi)
        f = np.array([phi.apply(x) for x in xs])
        reference = f.T @ f
        scale = float(np.abs(reference).max())
        assert np.abs(summary.second_moment - reference).max() <= 1e-12 * scale
        assert np.array_equal(summary.second_moment, summary.second_moment.T)
        values = np.linalg.eigh(reference)[0][::-1]
        assert (
            np.abs(summary.eig.eigenvalues - values).max()
            <= 1e-12 * values[0]
        )
        assert summary.n == 500

    def test_any_iterable_of_rows(self):
        rng = np.random.default_rng(3)
        xs = rng.standard_normal((40, 3))
        phi = FeatureMapSpec.poly2(3)
        with mock.patch.object(linalg, "BLOCK_ROWS", 16):
            from_array = summarize(xs, phi)
            from_list = summarize([list(x) for x in xs], phi)
            from_generator = summarize((x for x in xs), phi)
        for other in (from_list, from_generator):
            assert np.array_equal(other.second_moment, from_array.second_moment)
            assert other.n == 40

    def test_summary_matrices_are_read_only(self):
        summary = summarize([E1, E2], FeatureMapSpec.identity(2))
        with pytest.raises(ValueError, match="read-only"):
            summary.second_moment[0, 0] = 5.0

    def test_spiked_ratio_concentrates(self):
        # Monte Carlo oracle: the empirical ratio of a generated stream
        # tracks the target within 35% (median over 20 seeds).
        ratios = []
        for seed in range(20):
            spec = SpikedSpec(
                input_dim=8,
                n=500,
                lambda1=1.0,
                lambda2=0.1,
                basis_seed=3,
                sample_seed=seed,
            )
            xs, _ = make_spiked_stream(spec)
            ratios.append(summarize(xs, FeatureMapSpec.identity(8)).ratio)
        assert abs(np.median(ratios) - 10.0) <= 3.5


class TestAlphaBeta:
    def test_axis_aligned_stream(self):
        summary = summarize([E1, E1, E1, E2], FeatureMapSpec.identity(2))
        ab = compute_alpha_beta(summary, 0.1)
        assert abs(ab.beta - 0.3) <= 1e-12
        assert abs(ab.alpha - 0.1) <= 1e-12

    def test_no_orthogonal_energy(self):
        summary = summarize([E1, E1, E1], FeatureMapSpec.identity(2))
        ab = compute_alpha_beta(summary, 0.1)
        assert abs(ab.beta - 0.3) <= 1e-12
        assert ab.alpha <= 1e-15

    def test_rayleigh_identity_at_top_eigenvector(self):
        # With v* the top eigenvector of M, alpha/beta equals the ratio of
        # the top-two eigenvalues of M (checked against the full oracle).
        rng = np.random.default_rng(11)
        xs = rng.standard_normal((300, 5)) * np.array([2.0, 1.0, 0.7, 0.5, 0.3])
        summary = summarize(xs, FeatureMapSpec.identity(5))
        eig_m = jacobi_eigendecomposition(summary.second_moment)
        ab = compute_alpha_beta(summary, 0.05)
        expected = eig_m.eigenvalues[1] / eig_m.eigenvalues[0]
        assert abs(ab.alpha / ab.beta - expected) <= 1e-9
        assert ab.beta >= ab.alpha

    @pytest.mark.parametrize(
        "phi",
        [
            FeatureMapSpec.identity(6),
            FeatureMapSpec.poly2(4),
            FeatureMapSpec.rff(6, 40, 2.0, 5),
        ],
        ids=["identity", "poly2", "rff"],
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("block_rows", [7, 256])
    def test_energies_match_the_deflated_reference(self, phi, seed, block_rows):
        # The definitions: beta = eta (v*)^T M v*, and alpha = eta times
        # the top eigenvalue of P M P with P = I - v* v*^T.
        rng = np.random.default_rng(seed)
        xs = rng.standard_normal((300, phi.input_dim)) * np.linspace(
            2.0, 0.5, phi.input_dim
        )
        eta = 1e-3
        with mock.patch.object(linalg, "BLOCK_ROWS", block_rows):
            summary = summarize(xs, phi)
        ab = compute_alpha_beta(summary, eta)
        m, v = summary.second_moment, summary.top_vector
        p = np.eye(v.shape[0]) - np.outer(v, v)
        deflated = p @ m @ p
        deflated = 0.5 * (deflated + deflated.T)
        assert abs(ab.alpha - eta * np.linalg.eigvalsh(deflated)[-1]) <= (
            1e-12 * ab.beta
        )
        assert abs(ab.beta - eta * float(v @ m @ v)) <= 1e-12 * ab.beta

    def test_bad_eta(self):
        summary = summarize([E1, E2], FeatureMapSpec.identity(2))
        with pytest.raises(ValueError):
            compute_alpha_beta(summary, 0.0)


def test_one_eigensolve_per_trial():
    # x*, R, alpha and beta all come from one LAPACK solve of M.
    config = RunConfig(
        feature_map=FeatureMapSpec.poly2(3),
        generator=SpikedSpec(
            input_dim=3, n=200, lambda1=1.0, lambda2=0.1, sample_seed=4
        ),
        run_checks=True,
    )
    with mock.patch.object(
        np.linalg, "eigh", wraps=np.linalg.eigh
    ) as eigh, mock.patch.object(
        np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh
    ) as eigvalsh:
        artifacts = run_trial(config, 0)
    assert artifacts.result.check_ok is True
    assert (eigh.call_count, eigvalsh.call_count) == (1, 0)
    assert "covariance" not in {f.name for f in dataclasses.fields(SpectralSummary)}
    assert [f.name for f in dataclasses.fields(AlphaBeta)] == ["alpha", "beta"]
    assert "projection_residual" not in streamkpca.__all__


def test_public_api():
    # A name joins or leaves the package's API only by editing this list.
    assert sorted(streamkpca.__all__) == [
        "AlphaBeta",
        "CheckReport",
        "CheckResult",
        "ConfigError",
        "ConvergenceError",
        "DimensionError",
        "EigenDecomposition",
        "FeatureMapSpec",
        "NumericError",
        "OjaConfig",
        "RunConfig",
        "SpectralSummary",
        "SpikedGroundTruth",
        "SpikedSpec",
        "StreamState",
        "Trajectory",
        "TrajectoryParseError",
        "alignment_error",
        "check_trajectory_file",
        "compute_alpha_beta",
        "eigendecomposition",
        "init_state",
        "init_state_at",
        "make_spiked_stream",
        "monte_carlo_offset_norm",
        "oja_step",
        "read_trajectory",
        "run",
        "run_all_checks",
        "run_stream",
        "run_trial",
        "select_learning_rate",
        "summarize",
        "sweep",
        "write_trajectory",
    ]
    assert all(hasattr(streamkpca, name) for name in streamkpca.__all__)
    # The reference eigensolvers live in the tests, not the package.
    for name in (
        "jacobi_eigendecomposition",
        "power_iteration_top",
        "JACOBI_MAX_SWEEPS",
        "_rotate",
        "_max_offdiag",
    ):
        assert not hasattr(linalg, name)


class TestAlignmentError:
    def test_same_direction(self):
        assert alignment_error(E1, E1) == 0.0

    def test_orthogonal(self):
        assert alignment_error(E1, E2) == 1.0

    def test_halfway(self):
        u = (E1 + E2) / math.sqrt(2.0)
        assert abs(alignment_error(E1, u) - 0.5) <= 1e-12

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            alignment_error(E1, 2.0 * E2)

    def test_matches_squared_residual(self):
        # Residual-to-inner-product conversion holds as an identity.
        rng = np.random.default_rng(2)
        for _ in range(1000):
            k = int(rng.integers(2, 8))
            v = rng.standard_normal(k)
            u = rng.standard_normal(k)
            v /= np.linalg.norm(v)
            u /= np.linalg.norm(u)
            err = alignment_error(v, u)
            resid = np.linalg.norm(u - float(u @ v) * v)
            assert abs(err - resid**2) <= 1e-9
