import dataclasses
import functools
import json
import math
from unittest import mock

import numpy as np
import pytest

from streamkpca import checks, linalg
from streamkpca.checks import FAIL, PASS, VACUOUS, run_all_checks
from streamkpca.datagen import SpikedSpec, make_spiked_stream
from streamkpca.featuremaps import FeatureMapSpec
from streamkpca import harness
from streamkpca.harness import check_trajectory_file, write_trajectory
from streamkpca.oja import (
    STEP_COLUMNS,
    OjaConfig,
    Trajectory,
    _Head,
    init_state,
    init_state_at,
    oja_step,
    select_learning_rate,
)
from streamkpca.spectral import compute_alpha_beta, summarize

import reference_checks
from reference_checks import sample_check_pairs

ALL_CHECK_NAMES = [
    "norm_update_identity",
    "increment_reconstruction",
    "residual_bounded_by_growth",
    "drift_requires_growth",
    "orthogonal_energy_budget",
    "aligned_energy_growth_floor",
    "final_residual_bound",
]


def make_run(init_kind="vstar", d=5, n=60, ratio=20.0, seeds=(1, 2, 3), kind="identity"):
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
    phi = getattr(FeatureMapSpec, kind)(d)
    bound = phi.norm_bound(truth.norm_bound)
    eta = select_learning_rate(bound)
    summary = summarize(xs, phi)
    energies = compute_alpha_beta(summary, eta)
    cfg = OjaConfig(
        eta=eta,
        feature_map=phi,
        norm_bound=bound,
    )
    start = start_at(init_kind, summary.top_vector, seeds[2])
    traj = Trajectory.record(xs, cfg, start, seed=seeds[1])
    return traj, summary.top_vector, energies


def start_at(init_kind, v_star, seed):
    """A run's start: v* ("vstar"), a seeded random draw ("random"), or
    init_state_at of a fixed direction that is not v* ("given")."""
    if init_kind == "vstar":
        return init_state_at(v_star)
    if init_kind == "given":
        return init_state_at(np.ones(len(v_star)))
    return init_state(len(v_star), seed)


def entry(name, traj, v_star, alpha, beta=1.0):
    """The named entry of run_all_checks's report."""
    report = run_all_checks(traj, v_star, alpha, beta)
    return next(e for e in report.entries if e.name == name)


def assert_matches_reference(report, expected):
    """Two reports of one trajectory, from the one-pass checker and the
    whole-array reference: the same constants, statuses, locations and
    reasons, and numbers equal to 1e-12 relative. A number at rounding
    level, such as the residual of a start at v*, may differ by 1e-15."""
    got, want = report.to_dict(), expected.to_dict()
    assert got.keys() == want.keys() and got["constants"] == want["constants"]
    for g, w in zip(got["checks"], want["checks"], strict=True):
        assert (g["name"], g["status"], g["location"]) == (
            w["name"], w["status"], w["location"]
        )
        assert g["details"].get("reason") == w["details"].get("reason")
        assert g["details"].keys() == w["details"].keys()
        for key in ["margin", *g["details"]]:
            a = g["margin"] if key == "margin" else g["details"][key]
            b = w["margin"] if key == "margin" else w["details"][key]
            if isinstance(a, float) and isinstance(b, float):
                assert a == pytest.approx(b, rel=1e-12, abs=1e-15), (g["name"], key)
            else:
                assert a == b, (g["name"], key)


def first_steps(traj, n):
    """The trajectory cut after its first n steps."""
    return dataclasses.replace(traj, table=traj.table[: n + 1])


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
        assert statuses["increment_reconstruction"] == PASS

    def test_start_off_vstar_certifies_as_random(self, tmp_path):
        # init_state_at of a direction other than v* (identity d=4,
        # n=2000, lambda2/lambda1 = 0.05) is a random start: the run
        # certifies in memory and from its file, its at-v* entries
        # vacuous.
        traj, v_star, ab = make_run("given", d=4, n=2000)
        path = tmp_path / "traj.csv"
        with write_trajectory(
            path, traj, v_star=v_star, alpha=ab.alpha, beta=ab.beta
        ) as write:
            write(traj.table)
        for report in (
            run_all_checks(traj, v_star, ab.alpha, ab.beta),
            check_trajectory_file(path),
        ):
            assert report.ok and report.constants["init"] == "random"
            reasons = {e.name: e.details.get("reason") for e in report.entries}
            for name in ALL_CHECK_NAMES[3:6]:
                assert reasons[name] == "initializer is not at-v*"

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

    @pytest.mark.parametrize("init_kind, n", [("random", 60), ("vstar", 60), ("vstar", 0)])
    def test_entries_are_the_public_checks(self, init_kind, n):
        # run_all_checks adds no gate or verdict of its own: its entries
        # are the whole-array reference's.
        traj, v_star, ab = make_run(init_kind)
        traj = first_steps(traj, n)
        expected = reference_checks.run_all_checks(traj, v_star, ab.alpha, ab.beta)
        report = run_all_checks(traj, v_star, ab.alpha, ab.beta)
        assert_matches_reference(report, expected)

    @pytest.mark.parametrize("init_kind, n", [("random", 60), ("vstar", 60), ("vstar", 0)])
    def test_non_unit_vstar_raises_before_any_entry(self, init_kind, n):
        traj, v_star, ab = make_run(init_kind)
        traj = first_steps(traj, n)
        # The certificate refuses v* before it takes a unit.
        with mock.patch.object(checks._Certificate, "add", side_effect=AssertionError):
            with pytest.raises(ValueError, match="v_star"):
                run_all_checks(traj, 2.0 * v_star, ab.alpha, ab.beta)

    @pytest.mark.parametrize("init_kind", ["random", "vstar"])
    def test_vstar_of_another_width_raises_naming_both(self, init_kind):
        traj, _, ab = make_run(init_kind, d=5)
        with pytest.raises(ValueError) as err:
            run_all_checks(traj, np.eye(3)[0], ab.alpha, ab.beta)
        assert str(err.value) == "v_star has width 3, the run's directions 5"

    def test_report_is_deterministic(self, vstar_run):
        traj, v_star, ab = vstar_run
        r1 = run_all_checks(traj, v_star, ab.alpha, ab.beta).to_dict()
        r2 = run_all_checks(traj, v_star, ab.alpha, ab.beta).to_dict()
        assert r1 == r2

    def test_entry_json(self):
        # NaN as null, inf as a string, numpy numbers as Python's.
        result = checks.CheckResult(
            "drift_requires_growth", FAIL, math.nan, [3, 7],
            {"lhs": np.float64(1.5), "gap": np.float64(-np.inf),
             "pairs_checked": np.int64(4), "reason": None},
        )
        assert json.dumps(result.to_dict(), sort_keys=True) == (
            '{"details": {"gap": "-inf", "lhs": 1.5, "pairs_checked": 4, '
            '"reason": null}, "location": [3, 7], "margin": null, '
            '"name": "drift_requires_growth", "status": "fail"}'
        )

    def test_constants_recorded(self, vstar_run):
        traj, v_star, ab = vstar_run
        report = run_all_checks(traj, v_star, ab.alpha, ab.beta)
        assert report.constants["n"] == traj.n
        assert report.constants["m"] == traj.m
        assert report.constants["eta"] == traj.config.eta


class TestHypothesisGating:
    def test_two_time_steps_requires_vstar(self, random_run):
        traj, v_star, ab = random_run
        drift = entry("drift_requires_growth", traj, v_star, ab.alpha)
        assert drift.status == VACUOUS
        assert "at-v*" in drift.details["reason"]

    def test_projected_energy_requires_vstar(self, random_run):
        traj, v_star, ab = random_run
        energy = entry("orthogonal_energy_budget", traj, v_star, ab.alpha)
        assert energy.status == VACUOUS
        assert "at-v*" in energy.details["reason"]

    @pytest.mark.parametrize(
        "init_kind, n, alpha, at_vstar_entries, aligned_floor",
        [
            ("random", 60, 0.5, "at-v*", "at-v*"),
            ("random", 0, 0.05, "at-v*", "at-v*"),
            ("vstar", 60, 0.5, None, "alpha"),
            ("vstar", 0, 0.5, "empty", "alpha"),
            ("vstar", 0, 0.05, "empty", "empty"),
        ],
    )
    def test_first_unmet_hypothesis_is_named(
        self, init_kind, n, alpha, at_vstar_entries, aligned_floor
    ):
        # Each gated entry names the first of its hypotheses, in order,
        # that the run does not meet: the at-v* start, then (for the
        # aligned-energy floor only) alpha in (0, 0.1), then a step, then
        # (for the energy budget only) a budget below the most its sum
        # can be, which alpha = 0.5 is not.
        traj, v_star, _ = make_run(init_kind)
        traj = first_steps(traj, n)
        whole = reference_checks.columns(traj, v_star)
        most = traj.config.eta * float(np.sum(whole.phi_norm_sq))
        budget = 100.0 * alpha**2 * math.log(max(n, 1)) ** 2 * float(whole.log_norm[-1])
        reasons = {
            "at-v*": "initializer is not at-v*",
            "alpha": f"requires alpha in (0, 0.1); alpha={alpha:g}",
            "empty": "empty trajectory",
            "budget": (
                f"requires a budget below eta * sum(phi_norm_sq)={most:g}; "
                f"budget={budget:g}"
            ),
            None: None,
        }
        report = run_all_checks(traj, v_star, alpha, beta=1.0)
        named = {e.name: e.details.get("reason") for e in report.entries}
        assert named["drift_requires_growth"] == reasons[at_vstar_entries]
        assert named["orthogonal_energy_budget"] == reasons[at_vstar_entries or "budget"]
        assert named["aligned_energy_growth_floor"] == reasons[aligned_floor]
        for name in ("norm_update_identity", "increment_reconstruction"):
            assert named[name] == (reasons["empty"] if n == 0 else None)

    def test_growth_floor_requires_small_alpha(self, vstar_run):
        traj, v_star, ab = vstar_run
        floor = entry("aligned_energy_growth_floor", traj, v_star, 0.5, ab.beta)
        assert floor.status == VACUOUS
        assert "alpha" in floor.details["reason"]

    @pytest.mark.parametrize("beta", [0.0, -0.0, -1.0, -math.inf])
    def test_growth_floor_requires_positive_beta(self, vstar_run, beta):
        # At beta <= 0 the floor is at most 0, which L_n can miss only
        # where norm_update_identity fails: vacuous, naming beta. A NaN
        # beta is judged, and fails.
        traj, v_star, ab = vstar_run
        assert 0.0 < ab.alpha < 0.1
        floor = entry("aligned_energy_growth_floor", traj, v_star, ab.alpha, beta)
        assert floor.status == VACUOUS and math.isnan(floor.margin)
        assert floor.details == {"reason": f"requires beta > 0; beta={beta:g}"}
        for b in (beta, math.nan):
            assert_matches_reference(
                run_all_checks(traj, v_star, ab.alpha, b),
                reference_checks.run_all_checks(traj, v_star, ab.alpha, b),
            )
        judged = entry("aligned_energy_growth_floor", traj, v_star, ab.alpha, math.nan)
        assert judged.status == FAIL and math.isnan(judged.margin)

    def test_missing_snapshots_is_an_input_error(self):
        traj, v_star, ab = make_run("vstar")
        with pytest.raises(ValueError):
            run_all_checks(
                dataclasses.replace(traj, table=None), v_star, ab.alpha, ab.beta
            )

    def test_energy_budget_at_most_its_lhs_is_vacuous(self, vstar_run):
        # <phi_i, P v_hat>^2 <= ||phi_i||^2, so a budget at or above
        # eta * sum ||phi_i||^2 cannot fail: a plain vacuous entry naming
        # both numbers. The run's own alpha is judged.
        traj, v_star, ab = vstar_run
        whole = reference_checks.columns(traj, v_star)
        most = traj.config.eta * float(np.sum(whole.phi_norm_sq))
        judged = entry("orthogonal_energy_budget", traj, v_star, ab.alpha)
        assert judged.status == PASS and judged.details["rhs"] < most
        alpha = 0.5
        budget = 100.0 * alpha**2 * math.log(traj.n) ** 2 * float(whole.log_norm[-1])
        assert budget >= most
        energy = entry("orthogonal_energy_budget", traj, v_star, alpha)
        assert energy.status == VACUOUS and math.isnan(energy.margin)
        assert energy.details == {
            "reason": (
                f"requires a budget below eta * sum(phi_norm_sq)={most:g}; "
                f"budget={budget:g}"
            )
        }

    def test_energy_budget_overflow_raises(self, vstar_run):
        # The budget is formed before its vacuity is judged, so an alpha
        # whose square overflows raises whatever the budget would be.
        traj, v_star, ab = vstar_run
        with pytest.raises(OverflowError):
            run_all_checks(traj, v_star, 1e200, ab.beta)

    def test_without_a_moving_step_the_identity_passes(self, tmp_path):
        # Samples orthogonal to the start: every s and log_ratio is 0 and
        # the snapshots stay put, so each log ratio sits exactly on its
        # step floor eta s^2 = 0. Through the file path, as the command
        # line's check reads it.
        cfg = OjaConfig(
            eta=0.05, feature_map=FeatureMapSpec.identity(3)
        )
        xs = np.tile([0.0, 1.0, 0.0], (50, 1))
        traj = Trajectory.record(xs, cfg, init_state_at([1.0, 0.0, 0.0]))
        assert not traj.table[1:, [0, 2]].any()  # every s and log ratio
        path = tmp_path / "still.csv"
        with write_trajectory(
            path, traj, v_star=[1.0, 0.0, 0.0], alpha=0.0, beta=0.0
        ) as write:
            write(traj.table)
        report = check_trajectory_file(path)
        identity = report.entries[0]
        assert (identity.name, identity.status) == ("norm_update_identity", PASS)
        assert report.ok

    def test_final_bound_probabilistic_exceedance_is_vacuous(self, random_run):
        traj, v_star, _ = random_run
        # With alpha = 0 and beta huge, the envelope collapses to ~0 and
        # any random-start run exceeds it; that must not read as failure.
        final = entry("final_residual_bound", traj, v_star, alpha=0.0, beta=1e6)
        assert final.status == VACUOUS
        assert final.margin < 0

    def test_final_bound_nan_margin_fails(self, random_run):
        # A NaN margin compares false with everything; it must not read
        # as an exceeded probabilistic envelope.
        traj, v_star, _ = random_run
        final = entry("final_residual_bound", traj, v_star, alpha=math.nan, beta=1.0)
        assert final.status == FAIL
        assert "NaN" in final.details["reason"]

    def test_projected_energy_non_finite_lhs_fails(self, vstar_run):
        # eta * s underflows to 0 at a subnormal eta, so the features
        # rebuilt from the snapshots are inf or NaN: a failure with a
        # reason, and no numpy warning. A sidecar's alpha is at most
        # eta * sum(phi_norm_sq), which puts the budget at 0, below it.
        traj, v_star, _ = vstar_run
        tiny = dataclasses.replace(
            traj, config=dataclasses.replace(traj.config, eta=5e-324)
        )
        energy = entry("orthogonal_energy_budget", tiny, v_star, alpha=0.0)
        assert not math.isfinite(energy.details["lhs"])
        assert energy.status == FAIL
        assert "non-finite" in energy.details["reason"]

    def test_random_start_envelope_of_one_is_vacuous(self, random_run):
        # A unit vector's residual is at most 1: an envelope of 1.07
        # cannot fail, so it cannot pass either.
        traj, v_star, ab = random_run
        final = entry("final_residual_bound", traj, v_star, ab.alpha, ab.beta)
        assert final.details["envelope"] >= 1.0
        assert final.status == VACUOUS
        assert final.details["reason"] == (
            f"requires a residual bound below 1; envelope={final.details['envelope']:g}"
        )
        assert final.margin == final.details["envelope"] - final.details["observed_residual"]
        # The same run judged under an envelope below 1 (its residual is
        # 0.955).
        judged = entry("final_residual_bound", traj, v_star, alpha=0.95, beta=1e6)
        assert judged.details["envelope"] < 1.0
        assert judged.status == PASS
        assert "reason" not in judged.details

    @pytest.mark.parametrize("alpha", [1.0, 4.0])
    def test_vstar_sqrt_alpha_of_one_is_vacuous(self, vstar_run, alpha):
        traj, v_star, ab = vstar_run
        final = entry("final_residual_bound", traj, v_star, alpha, ab.beta)
        growth = entry("residual_bounded_by_growth", traj, v_star, alpha)
        reason = f"requires a residual bound below 1; sqrt(alpha)={math.sqrt(alpha):g}"
        for result in (final, growth):
            assert result.status == VACUOUS
            assert result.details["reason"] == reason

    def test_vstar_bound_below_one_is_judged(self, vstar_run):
        # At alpha = 0 neither bound leaves room for the residual the run
        # picks up, so both fail; just below 1, both pass.
        traj, v_star, ab = vstar_run
        for alpha, status in [(0.0, FAIL), (0.99, PASS)]:
            final = entry("final_residual_bound", traj, v_star, alpha, ab.beta)
            growth = entry("residual_bounded_by_growth", traj, v_star, alpha)
            assert (final.status, growth.status) == (status, status)

    def test_final_bound_labels_hypotheses(self, vstar_run):
        traj, v_star, ab = vstar_run
        final = entry("final_residual_bound", traj, v_star, ab.alpha, ab.beta)
        assert final.status == PASS
        assert final.details["certification"] in ("certified", "empirical")
        # Desk-scale constants cannot satisfy the C = 1000 hypotheses.
        assert final.details["certification"] == "empirical"


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

    @pytest.mark.parametrize("n", [603, 5 * 10**9, 10**12])
    def test_certificate_far_pairs_are_the_drawn_ones(self, n):
        # Keys a * (n + 1) + b overflow int64 above n of about 3.04e9 (at
        # 5e9, 63 of 100 pairs decoded wrong), so the certificate sorts and
        # dedupes the pairs as pairs; Python ints are the reference here.
        config = OjaConfig(eta=0.01, feature_map=FeatureMapSpec.identity(2))
        head = _Head(config, np.array([1.0, 0.0]), n, 7)
        cert = checks._Certificate(head, [1.0, 0.0], 1e-3, 1.0)
        drawn = zip(*checks._drawn_pairs(n, 7, checks.CHECK_PAIR_COUNT).tolist())
        expected = sorted({(a, b) for a, b in drawn if b > a + 1})
        assert list(zip(*cert.far.tolist())) == expected

    def test_deterministic_from_seed(self):
        first, again = sample_check_pairs(50, 7), sample_check_pairs(50, 7)
        assert all(np.array_equal(x, y) for x, y in zip(first, again))

    def test_includes_adjacent_pairs(self):
        pairs = set(pair_list(30, 1))
        for i in range(1, 31):
            assert (i - 1, i) in pairs

    def test_minimum_pair_count(self, vstar_run):
        traj, v_star, ab = vstar_run
        drift = entry("drift_requires_growth", traj, v_star, ab.alpha)
        assert drift.details["pairs_checked"] >= traj.n + 1


class TestFaultInjection:
    """Perturbing any recorded scalar by 1e-3 relative must trip a check.
    Each perturbation edits a copy of one column; the original trajectory
    is left as it was."""

    def _perturbed(self, traj, field, factor=1.001):
        table = traj.table.copy()
        column = table[1:, STEP_COLUMNS.index(field)]
        column[np.argmax(np.abs(column))] *= factor
        return dataclasses.replace(traj, table=table)

    @pytest.mark.parametrize("field", ["s", "phi_norm_sq", "log_ratio"])
    def test_scalar_perturbation_detected(self, vstar_run, field):
        traj, v_star, ab = vstar_run
        before = traj.table.copy()
        bad = self._perturbed(traj, field)
        report = run_all_checks(bad, v_star, ab.alpha, ab.beta)
        assert not report.ok
        assert np.array_equal(traj.table, before)

    def test_snapshot_perturbation_detected(self, vstar_run):
        traj, v_star, ab = vstar_run
        table = traj.table.copy()
        mid = traj.n // 2 + 1
        k = int(np.argmax(np.abs(table[mid, 3:])))
        table[mid, 3 + k] *= 1.001
        bad = dataclasses.replace(traj, table=table)
        report = run_all_checks(bad, v_star, ab.alpha, ab.beta)
        assert not report.ok

    def test_negative_log_ratio_fails_the_identity(self, vstar_run):
        traj, v_star, ab = vstar_run
        table = traj.table.copy()
        table[4, 2] = -1e-6  # step 4's log ratio
        bad = dataclasses.replace(traj, table=table)
        identity = entry("norm_update_identity", bad, v_star, ab.alpha, ab.beta)
        assert (identity.status, identity.location) == (FAIL, 4)
        assert identity.margin == -math.inf

    def test_log_ratio_just_below_zero_fails_the_identity(self):
        # The poly2 run's least log ratio is 4.8e-15: set to -5e-13 it
        # stays within the identity's 1e-12 of both halves, so only the
        # identity's lr >= eta s^2 fails it.
        self._fails_only_the_floor(lambda floor: -5e-13)

    @pytest.mark.parametrize("fraction", [0.0, 0.5])
    def test_log_ratio_below_the_step_floor_fails_the_identity(self, fraction):
        # At the same step the floor eta s^2 is 2.4e-15, half the log
        # ratio. A log ratio of 0, or of half the floor, also stays
        # within 1e-12 of both halves, so only the floor fails it.
        self._fails_only_the_floor(lambda floor: fraction * floor)

    def _fails_only_the_floor(self, edited):
        """poly2-random's least log ratio, set to edited(its step floor),
        fails exactly norm_update_identity there, in both checkers."""
        traj, v_star, ab, _, _ = tamper_runs("poly2-random")
        table = traj.table.copy()
        j = 1 + int(np.argmin(table[1:, 2]))
        floor = traj.config.eta * table[j, 0] ** 2
        assert j == 507 and 1e-15 < floor < table[j, 2] < 1e-14
        table[j, 2] = edited(floor)
        bad = dataclasses.replace(traj, table=table)
        report = run_all_checks(bad, v_star, ab.alpha, ab.beta)
        assert_matches_reference(
            report, reference_checks.run_all_checks(bad, v_star, ab.alpha, ab.beta)
        )
        assert {e.name for e in report.failures()} == {"norm_update_identity"}
        identity = report.entries[0]
        assert (identity.location, identity.margin) == (j, -math.inf)
        assert identity.details["max_closed_form_diff"] < checks.IDENTITY_TOL
        assert identity.details["max_direct_norm_diff"] < checks.IDENTITY_TOL


class TestIncrementReconstruction:
    def test_random_unit_snapshots_fail(self):
        # Random unit directions with random log ratios: increments that
        # no update rule made. A healthy run of the same size passes.
        traj, v_star, ab = make_run("vstar", d=6, n=60)
        healthy = entry("increment_reconstruction", traj, v_star, ab.alpha)
        assert healthy.status == PASS
        rng = np.random.default_rng(0)
        snaps = rng.standard_normal((traj.n + 1, traj.m))
        snaps /= np.linalg.norm(snaps, axis=1, keepdims=True)
        table = traj.table.copy()
        table[:, 3:] = snaps
        table[1:, 2] = rng.uniform(0.0, 0.1, traj.n)
        probe = dataclasses.replace(traj, table=table)
        bad = entry("increment_reconstruction", probe, v_star, ab.alpha)
        assert bad.status == FAIL
        assert list(bad.details) == ["max_increment_diff", "tolerance"]
        assert bad.details["tolerance"] == checks._increment_tol(traj.m)
        assert bad.margin == bad.details["tolerance"] - bad.details["max_increment_diff"]
        assert bad.margin < 0


# Maps of the tolerance's property test, up to m = 1024.
TOLERANCE_MAPS = {
    "identity-6": FeatureMapSpec.identity(6),
    "identity-20": FeatureMapSpec.identity(20),
    "poly2-6": FeatureMapSpec.poly2(3),
    "poly2-78": FeatureMapSpec.poly2(12),
    "rff-16": FeatureMapSpec.rff(5, 16, 2.0, 3),
    "rff-128": FeatureMapSpec.rff(16, 128, 4.0, 3),
    "rff-1024": FeatureMapSpec.rff(8, 1024, 4.0, 3),
}


@functools.cache
def tolerance_stream(kind, lambda1=1.0):
    """A stream for the map, its norm bound and its oracle's v*."""
    phi = TOLERANCE_MAPS[kind]
    gen = SpikedSpec(
        input_dim=phi.input_dim, n=1000, lambda1=lambda1, lambda2=lambda1 / 20,
        tail_decay=0.8, basis_seed=5, sample_seed=6,
    )
    stream, truth = make_spiked_stream(gen)
    xs = np.asarray(stream)
    return xs, phi.norm_bound(truth.norm_bound), summarize(xs, phi).top_vector


def folded(xs, cfg, start):
    """The table of a fold of oja_step, the per-sample reference."""
    rows = [np.concatenate((np.zeros(3), start.v_hat))]
    state = start
    for x in xs:
        state, record = oja_step(state, x, cfg)
        rows.append(np.concatenate((record, state.v_hat)))
    return Trajectory(cfg, np.array(rows))


class TestIncrementTolerance:
    """Honest runs never exceed the increment identity's tolerance, from
    run_stream's closed-form blocks and from the oja_step fold alike."""

    @pytest.mark.parametrize("path", ["block", "fold"])
    @pytest.mark.parametrize("init_kind", ["random", "vstar"])
    @pytest.mark.parametrize("kind", list(TOLERANCE_MAPS))
    def test_honest_steps_stay_within_tolerance(self, kind, init_kind, path):
        xs, bound, v_star = tolerance_stream(kind)
        phi = TOLERANCE_MAPS[kind]
        cfg = OjaConfig(eta=select_learning_rate(bound), feature_map=phi, norm_bound=bound)
        start = init_state_at(v_star) if init_kind == "vstar" else init_state(phi.feature_dim, 7)
        if path == "block":
            traj = Trajectory.record(xs, cfg, start)
        else:
            traj = folded(xs[:300], cfg, start)
        increment = entry("increment_reconstruction", traj, v_star, 0.5)
        assert increment.status == PASS
        assert increment.details["tolerance"] == checks._increment_tol(phi.feature_dim)
        assert 0.0 <= increment.details["max_increment_diff"] <= increment.details["tolerance"]
        # Each honest log ratio is at least its step floor eta s^2.
        s, log_ratio = traj.table[1:, 0], traj.table[1:, 2]
        assert (log_ratio >= cfg.eta * s**2).all()

    @pytest.mark.parametrize("lambda1", [10.0, 1e3])
    def test_large_steps_stay_within_tolerance(self, lambda1):
        # eta = 0.09 with no norm bound: steps whose growth exp(lr/2)
        # reaches 10 at lambda1 = 10 and 796 at 1e3. At 1e3 the largest
        # error not divided by the growth was 1536 eps, against a
        # tolerance of 21 eps; divided, it was 3.4 eps.
        xs, _, v_star = tolerance_stream("identity-6", lambda1)
        cfg = OjaConfig(eta=0.09, feature_map=TOLERANCE_MAPS["identity-6"])
        for traj in (
            Trajectory.record(xs, cfg, init_state(6, 7)),
            folded(xs[:300], cfg, init_state(6, 7)),
        ):
            assert np.exp(0.5 * traj.table[1:, 2].max()) > 5.0
            increment = entry("increment_reconstruction", traj, v_star, 0.5)
            assert increment.status == PASS


# The runs the tamper matrix edits: (init kind, map, input d, n). The
# other-seed edit swaps in the same config's run at sample seed 5.
TAMPER_RUNS = {
    "identity-random": ("random", "identity", 6, 600),
    "identity-vstar": ("vstar", "identity", 6, 600),
    "poly2-random": ("random", "poly2", 3, 3000),
}


@functools.cache
def tamper_runs(name):
    """The run, its oracle, and the table and v* of the same config's
    run at another sample seed."""
    init_kind, kind, d, n = TAMPER_RUNS[name]
    traj, v_star, ab = make_run(init_kind, d=d, n=n, kind=kind)
    other, other_v_star, _ = make_run(init_kind, d=d, n=n, kind=kind, seeds=(1, 5, 3))
    return traj, v_star, ab, other.table, other_v_star


def edit_cell(column, factor):
    def edit(table, j, v_star, other):
        table[j, column] *= factor

    return edit


def edit_direction(table, j, v_star, other):
    v = table[j, 3:] + 1e-4 * np.random.default_rng(0).standard_normal(len(v_star))
    table[j, 3:] = v / np.linalg.norm(v)


def edit_swap(table, j, v_star, other):
    table[[j, j + 1]] = table[[j + 1, j]]


def edit_last(table, j, v_star, other):
    table[-1, 3:] = v_star


def edit_phi_column(table, j, v_star, other):
    table[1:, 1] *= 2.0


def edit_other_seed(table, j, v_star, other):
    table[...] = other


IDENTITY, INCREMENT, DRIFT = (
    "norm_update_identity", "increment_reconstruction", "drift_requires_growth"
)
BOTH = {IDENTITY, INCREMENT}

# Each edit of one table, at one step j, and the entries it fails on
# the three runs, in TAMPER_RUNS' order. "blind" is the step whose
# eta^2 ||f||^2 s^2, the part of the closed form that ||f||^2 moves, is
# least (below 1e-13 on all three runs): there norm_update_identity
# cannot see a phi cell. There a log ratio edited by 1e-4 moves the
# increment identity by less than its tolerance on all three runs, and
# so does an s or a phi cell edited by 1e-4 on poly2, whose increment
# at that step is 2.4e-12. "largest" is the step of the largest |s|.
# Neither is the last step, so a next step is there to swap with. A
# flipped s passes every entry: s enters each identity squared or as
# |s|, and the orthogonal energy rebuilds phi_i from the directions
# divided by eta s_i. So does a whole run of another sample seed. Only
# a replay of the stream can catch those two.
TAMPER_MATRIX = [
    ("s x (1+1e-4)", edit_cell(0, 1 + 1e-4), "blind", [{INCREMENT}] * 2 + [set()]),
    ("s x (1+1e-4)", edit_cell(0, 1 + 1e-4), "largest", [BOTH] * 3),
    ("s sign flipped", edit_cell(0, -1.0), "blind", [set()] * 3),
    ("s sign flipped", edit_cell(0, -1.0), "largest", [set()] * 3),
    ("phi x 2", edit_cell(1, 2.0), "blind", [{INCREMENT}] * 3),
    ("phi x 2", edit_cell(1, 2.0), "largest", [BOTH] * 3),
    ("phi x 0.5", edit_cell(1, 0.5), "blind", [{INCREMENT}] * 3),
    ("phi x 0.5", edit_cell(1, 0.5), "largest", [BOTH] * 3),
    ("phi x (1+1e-4)", edit_cell(1, 1 + 1e-4), "blind", [{INCREMENT}] * 2 + [set()]),
    ("phi x (1+1e-4)", edit_cell(1, 1 + 1e-4), "largest", [BOTH] * 3),
    ("log ratio x (1+1e-4)", edit_cell(2, 1 + 1e-4), "blind", [set()] * 3),
    ("log ratio x (1+1e-4)", edit_cell(2, 1 + 1e-4), "largest", [BOTH] * 3),
    ("direction", edit_direction, "blind", [BOTH, BOTH | {DRIFT}, BOTH]),
    ("rows swapped", edit_swap, "blind", [BOTH, BOTH | {DRIFT}, BOTH]),
    ("last direction v*", edit_last, "blind", [BOTH] * 3),
    ("phi column x 2", edit_phi_column, "blind", [BOTH] * 3),
    ("other seed", edit_other_seed, "blind", [set()] * 3),
]


def nudged(v_star):
    v = v_star + 1e-4 * np.random.default_rng(0).standard_normal(len(v_star))
    return v / np.linalg.norm(v)


# Each edit of the sidecar's oracle, as the (alpha, beta, v*) handed to
# run_all_checks, and the entries it fails on the three runs. None fails
# anything: every entry takes alpha, beta and v* as given, and each
# bound they enter still holds, or stays vacuous, on these runs. Only a
# replay of the stream that recomputes the oracle can catch them.
SIDECAR_MATRIX = [
    ("alpha x 6, beta / 2", lambda a, b, v, other: (6 * a, b / 2, v), [set()] * 3),
    ("alpha / 6", lambda a, b, v, other: (a / 6, b, v), [set()] * 3),
    ("beta x 2", lambda a, b, v, other: (a, 2 * b, v), [set()] * 3),
    ("v* nudged by 1e-4", lambda a, b, v, other: (a, b, nudged(v)), [set()] * 3),
    ("v* of another seed", lambda a, b, v, other: (a, b, other), [set()] * 3),
]


class TestTamperMatrix:
    """One edit of an honest run's table against the exact set of
    entries it fails: an entry that stops catching what it caught, or
    starts failing what it passed, shows up here."""

    @pytest.mark.parametrize("run", list(TAMPER_RUNS))
    def test_honest_runs_fail_nothing(self, run):
        traj, v_star, ab, _, _ = tamper_runs(run)
        report = run_all_checks(traj, v_star, ab.alpha, ab.beta)
        assert report.ok
        by_name = {e.name: e.status for e in report.entries}
        assert by_name[INCREMENT] == PASS

    @pytest.mark.parametrize(
        "edit, at, failing",
        [(edit, at, failing) for _, edit, at, failing in TAMPER_MATRIX],
        ids=[f"{name}-{at}" for name, _, at, _ in TAMPER_MATRIX],
    )
    def test_each_edit_fails_exactly_its_entries(self, edit, at, failing):
        for run, expected in zip(TAMPER_RUNS, failing, strict=True):
            traj, v_star, ab, other, _ = tamper_runs(run)
            eta, table = traj.config.eta, traj.table.copy()
            s, phi_norm_sq = table[1:-1, 0], table[1:-1, 1]
            blind = eta * eta * phi_norm_sq * s**2
            assert blind.min() < 1e-13
            j = 1 + int(np.argmin(blind) if at == "blind" else np.argmax(np.abs(s)))
            edit(table, j, v_star, other)
            assert not np.array_equal(table, traj.table)
            report = run_all_checks(
                dataclasses.replace(traj, table=table), v_star, ab.alpha, ab.beta
            )
            assert {e.name for e in report.failures()} == expected, run

    @pytest.mark.parametrize(
        "edit, failing",
        [(edit, failing) for _, edit, failing in SIDECAR_MATRIX],
        ids=[name for name, _, _ in SIDECAR_MATRIX],
    )
    def test_each_sidecar_edit_fails_exactly_its_entries(self, edit, failing):
        for run, expected in zip(TAMPER_RUNS, failing, strict=True):
            traj, v_star, ab, _, other_v_star = tamper_runs(run)
            alpha, beta, v = edit(ab.alpha, ab.beta, v_star, other_v_star)
            assert (alpha, beta) != (ab.alpha, ab.beta) or not np.array_equal(v, v_star)
            report = run_all_checks(traj, v, alpha, beta)
            assert {e.name for e in report.failures()} == expected, run


class TestOutOfRegime:
    """eta = 0.09 with no norm bound, where some eta s_i^2 exceeds 1.25:
    there an honest log ratio can fall below the step floor eta s_i^2,
    and norm_update_identity, which judges that floor at every step,
    fails alone, at the first such step."""

    @pytest.mark.parametrize("init_kind", ["random", "vstar"])
    def test_step_floor_fails_the_identity(self, init_kind):
        gen = SpikedSpec(
            input_dim=6, n=600, lambda1=10.0, lambda2=0.5, tail_decay=0.8,
            basis_seed=1, sample_seed=2,
        )
        xs, _ = make_spiked_stream(gen)
        phi = FeatureMapSpec.identity(6)
        summary = summarize(xs, phi)
        ab = compute_alpha_beta(summary, 0.09)
        if init_kind == "vstar":
            start = init_state_at(summary.top_vector)
        else:
            start = init_state(6, 3)
        traj = Trajectory.record(xs, OjaConfig(eta=0.09, feature_map=phi), start, seed=2)
        s, log_ratio = traj.table[1:, 0], traj.table[1:, 2]
        below = log_ratio < 0.09 * s**2
        assert (0.09 * s**2).max() > 1.25 and below.any()
        report = run_all_checks(traj, summary.top_vector, ab.alpha, ab.beta)
        assert_matches_reference(
            report,
            reference_checks.run_all_checks(traj, summary.top_vector, ab.alpha, ab.beta),
        )
        assert {e.name for e in report.failures()} == {"norm_update_identity"}
        identity = report.entries[0]
        assert (identity.location, identity.margin) == (
            1 + int(np.argmax(below)), -math.inf
        )
        assert identity.details["max_closed_form_diff"] < checks.IDENTITY_TOL
        assert identity.details["max_direct_norm_diff"] < checks.IDENTITY_TOL


class TestGrowthImpliesCorrectness:
    def test_axis_aligned_at_vstar_residual_zero(self):
        phi = FeatureMapSpec.identity(2)
        cfg = OjaConfig(
            eta=0.05, feature_map=phi
        )
        xs = np.tile([1.0, 0.0], (20, 1))
        traj = Trajectory.record(xs, cfg, init_state_at([1.0, 0.0]))
        growth = entry("residual_bounded_by_growth", traj, np.array([1.0, 0.0]), 0.0)
        assert growth.status == PASS
        assert growth.details["corollary_margin"] >= -1e-12

    def test_random_init_bound_holds(self, random_run):
        traj, v_star, ab = random_run
        assert entry("residual_bounded_by_growth", traj, v_star, ab.alpha).status == PASS

    def test_axis_aligned_two_time_steps_zero_drift(self):
        phi = FeatureMapSpec.identity(2)
        cfg = OjaConfig(
            eta=0.05, feature_map=phi
        )
        xs = np.tile([1.0, 0.0], (20, 1))
        traj = Trajectory.record(xs, cfg, init_state_at([1.0, 0.0]))
        drift = entry("drift_requires_growth", traj, np.array([1.0, 0.0]), 0.1)
        assert drift.status == PASS

    def test_rank_one_projected_energy_zero(self):
        phi = FeatureMapSpec.identity(2)
        cfg = OjaConfig(
            eta=0.05, feature_map=phi
        )
        xs = np.tile([1.0, 0.0], (10, 1))
        traj = Trajectory.record(xs, cfg, init_state_at([1.0, 0.0]))
        energy = entry("orthogonal_energy_budget", traj, np.array([1.0, 0.0]), 0.0)
        assert energy.status == PASS
        assert energy.details["lhs"] <= 1e-12


class TestBlockedChecks:
    @pytest.mark.parametrize(
        "zero_steps", [[], [2, 9, 300]], ids=["all-steps", "zero-s-steps"]
    )
    def test_results_independent_of_block_rows(self, zero_steps):
        # n is no multiple of a BLAS kernel's row group, and zeroed steps
        # (skipped by the energy check) shift which rows share a block.
        # At d=24, a projection taken per block moves the last bits of
        # some rows; at d=6 it did not. At ratio 1e3 the energy budget
        # lies below the most its sum can be, so its blocked loop runs.
        traj, v_star, energies = make_run("vstar", d=24, n=603, ratio=1e3)
        table = traj.table.copy()
        table[1:, 0][zero_steps] = 0.0
        traj = dataclasses.replace(traj, table=table)

        def results():
            return [
                entry(name, traj, v_star, energies.alpha)
                for name in (
                    "orthogonal_energy_budget",
                    "drift_requires_growth",
                    "residual_bounded_by_growth",
                )
            ]

        expected = results()
        assert expected[0].details["skipped_zero_s_steps"] == len(zero_steps)
        for block_rows in (1, 7):
            with mock.patch.object(linalg, "BLOCK_ROWS", block_rows):
                assert results() == expected

        # Both against the whole-array formulas they were blocked from,
        # with each row projected on its own.
        whole = reference_checks.columns(traj, v_star)
        alpha, snaps, eta, s = energies.alpha, whole.snapshots, traj.config.eta, whole.s
        orth = snaps - np.einsum("ij,j->i", snaps, v_star)[:, None] * v_star
        keep = s != 0.0
        feats = (
            np.exp(0.5 * whole.log_ratio)[keep, None] * snaps[1:][keep]
            - snaps[:-1][keep]
        ) / (eta * s[keep, None])
        lhs = eta * np.sum(np.einsum("ij,ij->i", feats, orth[:-1][keep]) ** 2)
        assert expected[0].details["lhs"] == pytest.approx(lhs, rel=1e-12, abs=0)
        a, b = sample_check_pairs(traj.n, traj.seed)
        margins = 50.0 * alpha * (whole.log_norm[b] - whole.log_norm[a]) - (
            np.linalg.norm(orth[b] - orth[a], axis=1) ** 2
        )
        assert expected[1].margin == margins.min()
        residuals = np.linalg.norm(orth, axis=1)
        corollary = math.sqrt(alpha) - residuals
        assert expected[2].details["corollary_margin"] == corollary.min()
        assert expected[2].margin == min(
            corollary.min(),
            (
                math.sqrt(alpha) + residuals[0] * np.exp(-whole.log_norm) - residuals
            ).min(),
        )


class TestEmptyTrajectory:
    def test_all_checks_survive_empty_stream(self):
        phi = FeatureMapSpec.identity(3)
        cfg = OjaConfig(
            eta=0.01, feature_map=phi
        )
        traj = Trajectory.record(np.empty((0, 3)), cfg, init_state_at([1.0, 0.0, 0.0]))
        report = run_all_checks(
            traj, np.array([1.0, 0.0, 0.0]), alpha=0.01, beta=0.0
        )
        assert not report.failures()
        assert [e.name for e in report.entries] == ALL_CHECK_NAMES


FOLD_MAPS = {
    "identity": FeatureMapSpec.identity(5),
    "poly2": FeatureMapSpec.poly2(4),
    "rff": FeatureMapSpec.rff(5, 16, 2.0, 3),
}


def fold_case(kind, init_kind, n, stream_n=700):
    """A recorded run of the first n samples of a stream, with alpha and
    beta from those n samples' oracle. An at-v* start takes v* from the
    whole stream's oracle, so that one step leaves it by more than
    rounding (one sample's own oracle is that sample's direction)."""
    phi = FOLD_MAPS[kind]
    gen = SpikedSpec(
        input_dim=phi.input_dim, n=stream_n, lambda1=1.0, lambda2=0.05,
        tail_decay=0.8, basis_seed=5, sample_seed=6,
    )
    stream, truth = make_spiked_stream(gen)
    xs = np.asarray(stream)
    bound = phi.norm_bound(truth.norm_bound)
    eta = select_learning_rate(bound)
    energies = compute_alpha_beta(summarize(xs[:n], phi), eta)
    cfg = OjaConfig(eta=eta, feature_map=phi, norm_bound=bound)
    v_star = summarize(xs, phi).top_vector
    traj = Trajectory.record(xs[:n], cfg, start_at(init_kind, v_star, 7), seed=11)
    return traj, v_star, energies


class TestCertificateFold:
    """run_all_checks is one pass over units of linalg.BLOCK_ROWS steps:
    a trajectory in memory and its CSV, parsed in chunks of any size,
    certify to the same bytes, and both agree with the whole-array
    reference."""

    # n = 1, n = 37, and n that is no multiple of BLOCK_ROWS, over one
    # unit and over three. The increment identity is judged at every n.
    # A run started by init_state_at off v* ("given") is a random start.
    @pytest.mark.parametrize("n", [1, 37, 300, 603])
    @pytest.mark.parametrize("init_kind", ["random", "vstar", "given"])
    @pytest.mark.parametrize("kind", list(FOLD_MAPS))
    def test_file_and_memory_agree_with_the_reference(self, tmp_path, kind, init_kind, n):
        traj, v_star, ab = fold_case(kind, init_kind, n)
        report = run_all_checks(traj, v_star, ab.alpha, ab.beta)
        assert_matches_reference(
            report, reference_checks.run_all_checks(traj, v_star, ab.alpha, ab.beta)
        )
        init = "vstar" if init_kind == "vstar" else "random"
        assert report.constants["init"] == init
        reconstruction = report.entries[ALL_CHECK_NAMES.index("increment_reconstruction")]
        assert reconstruction.status == PASS
        expected = json.dumps(report.to_dict(), sort_keys=True)
        path = tmp_path / "traj.csv"
        with write_trajectory(
            path, traj, v_star=v_star, alpha=ab.alpha, beta=ab.beta
        ) as write:
            write(traj.table)
        for rows in (1, 7, 64, 256):
            with mock.patch.object(harness, "_chunk_rows", lambda n_fields: rows):
                from_file = check_trajectory_file(path)
            assert json.dumps(from_file.to_dict(), sort_keys=True) == expected, rows

    @pytest.mark.parametrize(
        "kind, init_kind, n",
        [("identity", "vstar", 603)]
        + [
            (kind, init_kind, n)
            for kind in FOLD_MAPS
            for init_kind in ("random", "vstar")
            for n in (37, 64)
        ],
    )
    def test_where_units_are_cut_changes_no_bit(self, kind, init_kind, n):
        # run --check folds run_stream's units of unit_rows(m) steps,
        # check a file's of BLOCK_ROWS steps. Every sum is carried term
        # by term, so no cut may move a bit of any entry. The increment
        # identity is judged at every n, so each cut splits a judged
        # entry's steps.
        traj, v_star, ab = fold_case(kind, init_kind, n)

        def certify(size):
            certificate = checks._Certificate(traj, v_star, ab.alpha, ab.beta)
            for start in range(0, traj.n, size):
                certificate.add(traj.table[start : start + size + 1])
            return certificate.report()

        expected = certify(linalg.BLOCK_ROWS)
        reconstruction = expected.entries[ALL_CHECK_NAMES.index("increment_reconstruction")]
        assert reconstruction.status == PASS
        expected = json.dumps(expected.to_dict(), sort_keys=True)
        for size in (1, 7, 64, 300, 603):
            got = json.dumps(certify(size).to_dict(), sort_keys=True)
            assert got == expected, size

    def test_chunk_rows_from_the_header_width(self):
        # 64 rows of the benchmark's poly2 m = 78 rows, whose text stays
        # below the byte budget; a power of two, so chunks tile a unit.
        assert harness._chunk_rows(4 + 78) == 64
        for n_fields in (5, 24, 82, 132, 2052, 10**6):
            rows = harness._chunk_rows(n_fields)
            assert rows & (rows - 1) == 0
            text_bytes = rows * n_fields * harness._CELL_BYTES
            assert rows == 1 or text_bytes <= harness._CHUNK_BYTES

    def test_units_are_contiguous_rows_from_step_one(self):
        # A unit's table rows run from the one before its first step to
        # its last. A Trajectory keeps its table in C order, so a
        # Fortran-ordered array certifies to the same bits.
        traj, v_star, ab = fold_case("rff", "vstar", 603)
        units = list(traj.units())
        assert [len(u) for u in units] == [257, 257, 92]
        for first, u in zip([1, 257, 513], units):
            assert u.flags.c_contiguous
            assert np.shares_memory(u, traj.table)
            assert np.array_equal(u, traj.table[first - 1 : first + len(u) - 1])
        expected = run_all_checks(traj, v_star, ab.alpha, ab.beta).to_dict()
        fortran = dataclasses.replace(traj, table=np.asfortranarray(traj.table))
        assert run_all_checks(fortran, v_star, ab.alpha, ab.beta).to_dict() == expected
