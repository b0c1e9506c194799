import dataclasses
import math
from unittest import mock

import numpy as np
import pytest

from streamkpca import linalg
from streamkpca.checks import (
    FAIL,
    PASS,
    VACUOUS,
    check_final_bound,
    check_growth_implies_correctness,
    check_norm_lower_bounds,
    check_projected_energy,
    check_two_time_steps,
    check_update_properties,
    run_all_checks,
    sample_check_pairs,
)
from streamkpca.datagen import SpikedSpec, make_spiked_stream
from streamkpca.featuremaps import FeatureMapSpec
from streamkpca.oja import (
    OjaConfig,
    init_state,
    init_state_at,
    run_stream,
    select_learning_rate,
)
from streamkpca.spectral import compute_alpha_beta, summarize

ALL_CHECK_NAMES = [
    "norm_update_identity",
    "norm_never_decreases",
    "step_growth_floor",
    "interval_growth_floor",
    "increment_reconstruction",
    "residual_bounded_by_growth",
    "drift_requires_growth",
    "orthogonal_energy_budget",
    "aligned_energy_growth_floor",
    "final_norm_floor",
    "final_residual_bound",
]


def make_run(init_kind="vstar", d=5, n=60, ratio=20.0, seeds=(1, 2, 3)):
    gen = SpikedSpec(
        input_dim=d,
        n=n,
        lambda1=1.0,
        lambda2=1.0 / ratio,
        tail_decay=0.8,
        basis_seed=seeds[0],
        sample_seed=seeds[1],
    )
    xs, truth = make_spiked_stream(gen)
    phi = FeatureMapSpec.identity(d)
    bound = phi.norm_bound(truth.norm_bound)
    eta = select_learning_rate(bound)
    summary = summarize(xs, phi)
    energies = compute_alpha_beta(summary, eta, summary.top_vector)
    cfg = OjaConfig(
        eta=eta,
        feature_map=phi,
        record_trajectory=True,
        snapshots=True,
        norm_bound=bound,
    )
    if init_kind == "vstar":
        start = init_state_at(summary.top_vector)
    else:
        start = init_state(d, seeds[2])
    _, traj = run_stream(xs, cfg, start, seed=seeds[1])
    return traj, summary.top_vector, energies


@pytest.fixture(scope="module")
def vstar_run():
    return make_run("vstar")


@pytest.fixture(scope="module")
def random_run():
    return make_run("random")


class TestFullSuite:
    def test_every_check_appears_exactly_once(self, vstar_run):
        traj, v_star, ab = vstar_run
        report = run_all_checks(traj, v_star, ab.alpha, ab.beta)
        assert [e.name for e in report.entries] == ALL_CHECK_NAMES

    def test_healthy_at_vstar_run_passes(self, vstar_run):
        traj, v_star, ab = vstar_run
        report = run_all_checks(traj, v_star, ab.alpha, ab.beta)
        assert report.ok
        statuses = {e.name: e.status for e in report.entries}
        assert statuses["drift_requires_growth"] == PASS
        assert statuses["orthogonal_energy_budget"] == PASS
        assert statuses["aligned_energy_growth_floor"] == PASS
        assert statuses["increment_reconstruction"] == PASS  # m=5, n=60

    def test_random_init_gates_vstar_checks(self, random_run):
        traj, v_star, ab = random_run
        report = run_all_checks(traj, v_star, ab.alpha, ab.beta)
        assert report.ok
        by_name = {e.name: e for e in report.entries}
        for name in (
            "drift_requires_growth",
            "orthogonal_energy_budget",
            "aligned_energy_growth_floor",
        ):
            assert by_name[name].status == VACUOUS
            assert "at-v*" in by_name[name].details["reason"]

    def test_report_is_deterministic(self, vstar_run):
        traj, v_star, ab = vstar_run
        r1 = run_all_checks(traj, v_star, ab.alpha, ab.beta).to_dict()
        r2 = run_all_checks(traj, v_star, ab.alpha, ab.beta).to_dict()
        assert r1 == r2

    def test_constants_recorded(self, vstar_run):
        traj, v_star, ab = vstar_run
        report = run_all_checks(traj, v_star, ab.alpha, ab.beta)
        assert report.constants["n"] == traj.n
        assert report.constants["m"] == traj.m
        assert report.constants["eta"] == traj.config.eta


class TestHypothesisGating:
    def test_two_time_steps_requires_vstar(self, random_run):
        traj, v_star, ab = random_run
        with pytest.raises(ValueError):
            check_two_time_steps(traj, v_star, ab.alpha)

    def test_projected_energy_requires_vstar(self, random_run):
        traj, v_star, ab = random_run
        with pytest.raises(ValueError):
            check_projected_energy(traj, v_star, ab.alpha)

    def test_growth_floor_requires_small_alpha(self, vstar_run):
        traj, v_star, ab = vstar_run
        entries = check_norm_lower_bounds(traj, alpha=0.5, beta=ab.beta)
        floor = entries[0]
        assert floor.status == VACUOUS
        assert "alpha" in floor.details["reason"]

    def test_missing_snapshots_is_an_input_error(self):
        traj, v_star, ab = make_run("vstar")
        stripped = dataclasses.replace(traj, snapshots=None)
        with pytest.raises(ValueError):
            check_update_properties(stripped)

    def test_final_bound_probabilistic_exceedance_is_vacuous(self, random_run):
        traj, v_star, _ = random_run
        # With alpha = 0 and beta huge, the envelope collapses to ~0 and
        # any random-start run exceeds it; that must not read as failure.
        entry = check_final_bound(traj, v_star, alpha=0.0, beta=1e6)
        assert entry.status == VACUOUS
        assert entry.margin < 0

    def test_final_bound_nan_margin_fails(self, random_run):
        # A NaN margin compares false with everything; it must not read
        # as an exceeded probabilistic envelope.
        traj, v_star, _ = random_run
        entry = check_final_bound(traj, v_star, alpha=math.nan, beta=1.0)
        assert entry.status == FAIL
        assert "NaN" in entry.details["reason"]

    def test_projected_energy_non_finite_lhs_fails(self, vstar_run):
        # eta * s underflows to 0 at a subnormal eta, so the features
        # rebuilt from the snapshots are inf or NaN: a failure with a
        # reason, and no numpy warning.
        traj, v_star, ab = vstar_run
        tiny = dataclasses.replace(
            traj, config=dataclasses.replace(traj.config, eta=5e-324)
        )
        entry = check_projected_energy(tiny, v_star, ab.alpha)
        assert not math.isfinite(entry.details["lhs"])
        assert entry.status == FAIL
        assert "non-finite" in entry.details["reason"]

    def test_final_bound_labels_hypotheses(self, vstar_run):
        traj, v_star, ab = vstar_run
        entry = check_final_bound(traj, v_star, ab.alpha, ab.beta)
        assert entry.status == PASS
        assert entry.details["certification"] in ("certified", "empirical")
        # Desk-scale constants cannot satisfy the C = 1000 hypotheses.
        assert entry.details["certification"] == "empirical"


def set_sample_check_pairs(n, seed, count=100):
    """The pair sample by its definition: a set of tuples, sorted."""
    pairs = {(i - 1, i) for i in range(1, n + 1)}
    if n >= 1:
        rng = np.random.default_rng(seed)
        for _ in range(count):
            a = int(rng.integers(0, n))
            b = int(rng.integers(a + 1, n + 1))
            pairs.add((a, b))
    return sorted(pairs)


def pair_list(n, seed, count=100):
    """sample_check_pairs' index arrays as a list of (a, b) tuples."""
    a, b = sample_check_pairs(n, seed, count)
    assert a.dtype.kind == b.dtype.kind == "i" and a.shape == b.shape
    return list(zip(a.tolist(), b.tolist()))


class TestPairSampling:
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 30, 603])
    @pytest.mark.parametrize("seed", [0, 7, 2**40])
    def test_equals_the_set_reference(self, n, seed):
        for count in (0, 1, 100):
            assert pair_list(n, seed, count) == set_sample_check_pairs(
                n, seed, count
            )

    def test_deterministic_from_seed(self):
        first, again = sample_check_pairs(50, 7), sample_check_pairs(50, 7)
        assert all(np.array_equal(x, y) for x, y in zip(first, again))

    def test_includes_adjacent_pairs(self):
        pairs = set(pair_list(30, 1))
        for i in range(1, 31):
            assert (i - 1, i) in pairs

    def test_minimum_pair_count(self, vstar_run):
        traj, v_star, ab = vstar_run
        entry = check_two_time_steps(traj, v_star, ab.alpha)
        assert entry.details["pairs_checked"] >= traj.n + 1


class TestFaultInjection:
    """Perturbing any recorded scalar by 1e-3 relative must trip a check.
    Each perturbation edits a copy of one column; the original trajectory
    is left as it was."""

    def _perturbed(self, traj, field, factor=1.001):
        column = getattr(traj, field).copy()
        idx = int(np.argmax(np.abs(column)))
        column[idx] *= factor
        return dataclasses.replace(traj, **{field: column})

    @pytest.mark.parametrize("field", ["s", "phi_norm_sq", "log_ratio"])
    def test_scalar_perturbation_detected(self, vstar_run, field):
        traj, v_star, ab = vstar_run
        before = getattr(traj, field).copy()
        bad = self._perturbed(traj, field)
        report = run_all_checks(bad, v_star, ab.alpha, ab.beta)
        assert not report.ok
        assert np.array_equal(getattr(traj, field), before)

    def test_snapshot_perturbation_detected(self, vstar_run):
        traj, v_star, ab = vstar_run
        snaps = traj.snapshots.copy()
        mid = traj.n // 2 + 1
        k = int(np.argmax(np.abs(snaps[mid])))
        snaps[mid, k] *= 1.001
        bad = dataclasses.replace(traj, snapshots=snaps)
        report = run_all_checks(bad, v_star, ab.alpha, ab.beta)
        assert not report.ok

    def test_negative_log_ratio_fails_monotonicity(self, vstar_run):
        traj, v_star, ab = vstar_run
        log_ratio = traj.log_ratio.copy()
        log_ratio[3] = -1e-6
        bad = dataclasses.replace(traj, log_ratio=log_ratio)
        report = run_all_checks(bad, v_star, ab.alpha, ab.beta)
        names = {e.name for e in report.failures()}
        assert "norm_never_decreases" in names


class TestGrowthImpliesCorrectness:
    def test_axis_aligned_at_vstar_residual_zero(self):
        phi = FeatureMapSpec.identity(2)
        cfg = OjaConfig(
            eta=0.05, feature_map=phi, record_trajectory=True, snapshots=True
        )
        xs = np.tile([1.0, 0.0], (20, 1))
        _, traj = run_stream(xs, cfg, init_state_at([1.0, 0.0]))
        entry = check_growth_implies_correctness(
            traj, np.array([1.0, 0.0]), alpha=0.0
        )
        assert entry.status == PASS
        assert entry.details["corollary_margin"] >= -1e-12

    def test_random_init_bound_holds(self, random_run):
        traj, v_star, ab = random_run
        entry = check_growth_implies_correctness(traj, v_star, ab.alpha)
        assert entry.status == PASS

    def test_axis_aligned_two_time_steps_zero_drift(self):
        phi = FeatureMapSpec.identity(2)
        cfg = OjaConfig(
            eta=0.05, feature_map=phi, record_trajectory=True, snapshots=True
        )
        xs = np.tile([1.0, 0.0], (20, 1))
        _, traj = run_stream(xs, cfg, init_state_at([1.0, 0.0]))
        entry = check_two_time_steps(traj, np.array([1.0, 0.0]), alpha=0.1)
        assert entry.status == PASS

    def test_rank_one_projected_energy_zero(self):
        phi = FeatureMapSpec.identity(2)
        cfg = OjaConfig(
            eta=0.05, feature_map=phi, record_trajectory=True, snapshots=True
        )
        xs = np.tile([1.0, 0.0], (10, 1))
        _, traj = run_stream(xs, cfg, init_state_at([1.0, 0.0]))
        entry = check_projected_energy(traj, np.array([1.0, 0.0]), alpha=0.0)
        assert entry.status == PASS
        assert entry.details["lhs"] <= 1e-12


class TestBlockedChecks:
    @pytest.mark.parametrize(
        "zero_steps", [[], [2, 9, 300]], ids=["all-steps", "zero-s-steps"]
    )
    def test_results_independent_of_block_rows(self, zero_steps):
        # n is no multiple of a BLAS kernel's row group, and zeroed steps
        # (skipped by the energy check) shift which rows share a block.
        # At d=24, a projection taken per block moves the last bits of
        # some rows; at d=6 it did not.
        traj, v_star, energies = make_run("vstar", d=24, n=603)
        s = traj.s.copy()
        s[zero_steps] = 0.0
        traj = dataclasses.replace(traj, s=s)

        def results():
            return [
                check_projected_energy(traj, v_star, energies.alpha),
                check_two_time_steps(traj, v_star, energies.alpha),
                check_growth_implies_correctness(traj, v_star, energies.alpha),
            ]

        expected = results()
        assert expected[0].details["skipped_zero_s_steps"] == len(zero_steps)
        for block_rows in (1, 7):
            with mock.patch.object(linalg, "BLOCK_ROWS", block_rows):
                assert results() == expected

        # Both against the whole-array formulas they were blocked from.
        alpha, snaps, eta = energies.alpha, traj.snapshots, traj.config.eta
        orth = snaps - (snaps @ v_star)[:, None] * v_star
        keep = s != 0.0
        feats = (
            np.exp(0.5 * traj.log_ratio)[keep, None] * snaps[1:][keep]
            - snaps[:-1][keep]
        ) / (eta * s[keep, None])
        lhs = eta * np.sum(np.einsum("ij,ij->i", feats, orth[:-1][keep]) ** 2)
        assert expected[0].details["lhs"] == pytest.approx(lhs, rel=1e-12, abs=0)
        a, b = sample_check_pairs(traj.n, traj.seed)
        margins = 50.0 * alpha * (traj.log_norm[b] - traj.log_norm[a]) - (
            np.linalg.norm(orth[b] - orth[a], axis=1) ** 2
        )
        assert expected[1].margin == margins.min()
        residuals = np.linalg.norm(orth, axis=1)
        corollary = math.sqrt(alpha) - residuals
        assert expected[2].details["corollary_margin"] == corollary.min()
        assert expected[2].margin == min(
            corollary.min(),
            (math.sqrt(alpha) + residuals[0] * np.exp(-traj.log_norm) - residuals).min(),
        )


class TestEmptyTrajectory:
    def test_all_checks_survive_empty_stream(self):
        phi = FeatureMapSpec.identity(3)
        cfg = OjaConfig(
            eta=0.01, feature_map=phi, record_trajectory=True, snapshots=True
        )
        _, traj = run_stream(np.empty((0, 3)), cfg, init_state_at([1.0, 0.0, 0.0]))
        report = run_all_checks(
            traj, np.array([1.0, 0.0, 0.0]), alpha=0.01, beta=0.0
        )
        assert not report.failures()
        assert [e.name for e in report.entries] == ALL_CHECK_NAMES


class TestSingleStepFloor:
    def test_one_step_norm_floor_matches_hand_value(self):
        # n=1 stream on the fixed point: both sides of the log-domain
        # floor reduce to closed forms.
        eta = 0.05
        phi = FeatureMapSpec.identity(2)
        cfg = OjaConfig(
            eta=eta, feature_map=phi, record_trajectory=True, snapshots=True
        )
        _, traj = run_stream(
            np.array([[1.0, 0.0]]), cfg, init_state_at([1.0, 0.0])
        )
        entries = check_norm_lower_bounds(traj, alpha=0.0, beta=eta)
        floor = entries[1]
        assert floor.name == "final_norm_floor"
        assert floor.status == PASS
        expected_margin = math.log1p(2 * eta + eta * eta) - math.log(eta)
        assert abs(floor.margin - expected_margin) <= 1e-12
