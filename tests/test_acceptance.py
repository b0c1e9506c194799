"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. The headline constant-C hypotheses are far out of
reach at desk scale, so the probabilistic statements are exercised as
calibrated trends and aggregates; every deterministic inequality is checked
at full strictness. One smallest run that does meet them is checked last.
"""

import json
import math
import time
from unittest import mock

import numpy as np

from streamkpca.cli import build_parser, config_from_args, main
from streamkpca.datagen import SpikedSpec, make_spiked_stream, monte_carlo_offset_norm
from streamkpca.featuremaps import FeatureMapSpec
from streamkpca.harness import RunConfig, run, run_trial, sweep
from streamkpca.oja import OjaConfig, init_state, init_state_at, run_stream, select_learning_rate

SLACK = 1e-9

TRAJECTORY_INEQUALITY_CHECKS = (
    "residual_bounded_by_growth",
    "drift_requires_growth",
    "orthogonal_energy_budget",
    "aligned_energy_growth_floor",
    "final_norm_floor",
)


def _verdict(number, name, ok):
    print(f"\n[criterion {number}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def _mixed_configs():
    """50 (feature map, generator, init) triples: identity/poly2/rff mix,
    d <= 16, n <= 2000, including a desk-scale subset with m <= 32, n <= 64."""
    configs = []
    for i in range(20):  # identity
        d = (4, 8, 12, 16)[i % 4]
        n = (200, 500, 1000, 2000)[i % 4]
        configs.append(
            (FeatureMapSpec.identity(d), d, n, ("random", "vstar")[i % 2], i)
        )
    for i in range(15):  # poly2, m = d(d+1)/2 <= 28
        d = (3, 4, 5, 6, 7)[i % 5]
        n = (50, 60, 400)[i % 3]
        configs.append(
            (FeatureMapSpec.poly2(d), d, n, ("random", "vstar")[i % 2], 100 + i)
        )
    for i in range(15):  # rff
        d = (3, 5, 8)[i % 3]
        m = (16, 24, 32, 48, 64)[i % 5]
        n = (60, 300, 800)[i % 3]
        configs.append(
            (
                FeatureMapSpec.rff(d, m, 1.0 + 0.2 * (i % 4), 900 + i),
                d,
                n,
                ("random", "vstar")[i % 2],
                200 + i,
            )
        )
    return configs


def _record_run(phi, d, n, init_kind, seed):
    gen = SpikedSpec(
        input_dim=d,
        n=n,
        lambda1=1.0,
        lambda2=1.0 / (5.0 + (seed % 4) * 15.0),
        tail_decay=(1.0, 0.8, 0.6)[seed % 3],
        basis_seed=seed,
        sample_seed=seed + 10_000,
    )
    xs, truth = make_spiked_stream(gen)
    bound = phi.norm_bound(truth.norm_bound)
    eta = select_learning_rate(bound)
    cfg = OjaConfig(
        eta=eta,
        feature_map=phi,
        record_trajectory=True,
        norm_bound=bound,
    )
    if init_kind == "vstar":
        from streamkpca.spectral import summarize

        start = init_state_at(summarize(xs, phi).top_vector)
    else:
        start = init_state(phi.feature_dim, seed + 20_000)
    _, traj = run_stream(xs, cfg, start, seed=seed)
    return xs, traj, eta


def test_criterion_1_update_property_ledger():
    """Per-step update identities and growth floors on 50 mixed trajectories,
    rechecked from independently materialized features."""
    t0 = time.monotonic()
    subset_checked = 0
    for phi, d, n, init_kind, seed in _mixed_configs():
        xs, traj, eta = _record_run(phi, d, n, init_kind, seed)
        feats = np.array([phi.apply(x) for x in xs])
        snaps = traj.table[:, 3:]
        s_rec, _, log_ratio = traj.table[1:, :3].T

        # Property 1: closed-form log ratio vs a direct norm evaluation of
        # the materialized unnormalized update.
        s_true = np.einsum("ij,ij->i", feats, snaps[:-1])
        u = snaps[:-1] + eta * s_true[:, None] * feats
        direct = np.log(np.einsum("ij,ij->i", u, u))
        assert np.abs(log_ratio - direct).max() <= SLACK
        assert np.abs(s_rec - s_true).max() <= SLACK

        # Property 2: the norm never decreases.
        assert log_ratio.min() >= -SLACK

        # Property 3: per-step growth floor.
        assert (log_ratio - eta * s_rec**2).min() >= -SLACK

        # Property 4: interval growth floor for every pair a < b.
        log_norm = np.concatenate(([0.0], 0.5 * np.cumsum(log_ratio)))
        energy = np.concatenate(([0.0], np.cumsum(eta * s_rec**2)))
        d_arr = 2.0 * log_norm - energy
        assert (d_arr[1:] - np.maximum.accumulate(d_arr)[:-1]).min() >= -SLACK

        # Property 5 on the desk-scale subset: entrywise reconstruction of
        # the unnormalized iterate from true rank-one increments.
        if traj.m <= 32 and traj.n <= 64:
            subset_checked += 1
            v_full = snaps * np.exp(log_norm)[:, None]
            increments = (
                eta
                * np.einsum("ij,ij->i", feats, v_full[:-1])[:, None]
                * feats
            )
            sums = np.vstack([np.zeros(traj.m), np.cumsum(increments, axis=0)])
            for a in range(traj.n):
                lhs = v_full[a + 1 :] - v_full[a]
                rhs = sums[a + 1 :] - sums[a]
                tol = SLACK * np.maximum(
                    1.0, np.abs(lhs).max(axis=1)
                )
                assert (np.abs(lhs - rhs).max(axis=1) <= tol).all()
    elapsed = time.monotonic() - t0
    assert subset_checked >= 10
    _verdict(1, f"update-property ledger ({elapsed:.1f}s)", elapsed < 60.0)


def test_criterion_2_trajectory_inequalities_never_fail():
    """The five trajectory inequalities pass (or are vacuous with a named
    hypothesis) on 20 at-v* and 20 random-init oracle-calibrated runs."""
    t0 = time.monotonic()
    kinds = []
    for i in range(40):
        init = "vstar" if i < 20 else "random"
        style = i % 3
        d = (5, 8, 12)[i % 3]
        if style == 0:
            phi = FeatureMapSpec.identity(d)
        elif style == 1:
            d = (3, 4, 5)[i % 3]
            phi = FeatureMapSpec.poly2(d)
        else:
            phi = FeatureMapSpec.rff(d, (16, 24)[i % 2], 1.2, 400 + i)
        gen = SpikedSpec(
            input_dim=d,
            n=(150, 300, 500)[i % 3],
            lambda1=1.0,
            lambda2=1.0 / (8.0, 30.0, 80.0)[i % 3],
            tail_decay=0.8,
            basis_seed=i,
            sample_seed=3_000 + i,
        )
        cfg = RunConfig(
            feature_map=phi,
            generator=gen,
            init=init,
            trials=1,
            run_checks=True,
        )
        art = run_trial(cfg, 0)
        assert art.check_report is not None
        by_name = {e.name: e for e in art.check_report.entries}
        for name in TRAJECTORY_INEQUALITY_CHECKS:
            entry = by_name[name]
            assert entry.status in ("pass", "vacuous"), (
                f"{name} failed on config {i}: margin={entry.margin}"
            )
            if entry.status == "vacuous":
                assert entry.details.get("reason")
        kinds.append(init)
    elapsed = time.monotonic() - t0
    assert kinds.count("vstar") == 20 and kinds.count("random") == 20
    _verdict(2, f"trajectory inequality checks ({elapsed:.1f}s)", elapsed < 60.0)


def test_criterion_3_oracle_equivalence():
    """Near-rank-1 stream, at-v* start: the stream output stays within
    1e-4 alignment error of the offline eigenvector in all 10 seeds.

    (With the certified learning-rate cap, n = 500 provides well under one
    nat of norm growth, so a random start cannot reach 1e-4; the at-v*
    start is the reading under which streaming and offline answers are
    comparable at this scale.)"""
    cfg = RunConfig(
        feature_map=FeatureMapSpec.identity(8),
        generator=SpikedSpec(
            input_dim=8,
            n=500,
            lambda1=1.0,
            lambda2=1e-6,
            tail_decay=1.0,
            basis_seed=7,
            sample_seed=600,
        ),
        init="vstar",
        trials=10,
    )
    report = run(cfg)
    errors = [t["alignment_error"] for t in report["trials"]]
    ok = all(e is not None and e <= 1e-4 for e in errors)
    print(f"  worst alignment error over 10 seeds: {max(errors):.3e}")
    _verdict(3, "oracle equivalence on near-rank-1 stream", ok)


def test_criterion_4_ratio_trend():
    """Alignment error improves monotonically with the spectral ratio;
    at R=100 the median clears the hard 0.1 gate and the log(d)/R level
    is reported as an empirical (hypothesis-unmet) observation."""
    d, n = 20, 2000
    cfg = RunConfig(
        feature_map=FeatureMapSpec.identity(d),
        generator=SpikedSpec(
            input_dim=d,
            n=n,
            lambda1=1.0,
            lambda2=0.2,
            tail_decay=1.0,
            basis_seed=42,
            sample_seed=1_000,
        ),
        init="vstar",
        trials=20,
    )
    out = sweep(cfg, [5.0, 20.0, 100.0])
    medians = [row["aggregate"]["alignment_error"]["median"] for row in out["rows"]]
    print(f"  medians by ratio: {medians}")
    assert all(m is not None for m in medians)
    monotone = medians[0] > medians[1] > medians[2]
    hard_gate = medians[2] <= 0.1
    r100 = out["rows"][2]
    reference = math.log(d) / 100.0
    below_reference = medians[2] <= reference
    hypotheses_unmet = (
        r100["aggregate"]["alpha_hypothesis_fraction"] < 1.0
        or r100["aggregate"]["beta_hypothesis_fraction"] < 1.0
    )
    label = "empirical" if hypotheses_unmet else "certified"
    print(
        f"  R=100 median {medians[2]:.3e} <= log(d)/R = {reference:.3e}: "
        f"{below_reference} [{label}]"
    )
    _verdict(
        4,
        "ratio trend",
        monotone and hard_gate and below_reference and hypotheses_unmet,
    )


def test_criterion_5_final_bound_aggregate():
    """At-v* runs respect the deterministic sqrt(alpha) residual bound in
    every seed; random starts violate the probabilistic envelope no more
    often than its own failure allowance plus sampling slack."""
    vstar_cfg = RunConfig(
        feature_map=FeatureMapSpec.identity(8),
        generator=SpikedSpec(
            input_dim=8,
            n=400,
            lambda1=1.0,
            lambda2=0.02,
            tail_decay=1.0,
            basis_seed=11,
            sample_seed=2_000,
        ),
        init="vstar",
        trials=50,
    )
    report = run(vstar_cfg)
    residual_ok = all(
        t["residual"] <= math.sqrt(t["alpha"]) + 1e-12
        for t in report["trials"]
    )
    print(
        "  at-v*: max residual/sqrt(alpha) = "
        + format(
            max(
                t["residual"] / math.sqrt(t["alpha"])
                for t in report["trials"]
            ),
            ".4f",
        )
    )

    # A regime whose envelopes lie below 1 (0.930-0.936: beta near 25,
    # alpha near 0.002), so every trial's residual can exceed its
    # envelope and the aggregate judges all 50.
    random_cfg = RunConfig(
        feature_map=FeatureMapSpec.identity(6),
        generator=SpikedSpec(
            input_dim=6,
            n=20_000,
            lambda1=1.0,
            lambda2=1e-4,
            tail_decay=1.0,
            basis_seed=13,
            sample_seed=4_000,
        ),
        init="random",
        trials=50,
    )
    report = run(random_cfg)
    judged = all(t["envelope"] < 1.0 for t in report["trials"])
    agg = report["aggregate"]
    failure_fraction = agg["envelope_failure_fraction"]
    allowance = agg["envelope_slack_median"] + 0.05
    print(
        f"  random: max envelope {max(t['envelope'] for t in report['trials']):.4f}, "
        f"envelope failure fraction {failure_fraction} <= allowance {allowance:.3f}"
    )
    _verdict(
        5,
        "final-bound aggregate",
        residual_ok
        and judged
        and failure_fraction is not None
        and failure_fraction <= allowance,
    )


def test_criterion_6_gaussian_offset_probability():
    """Pr[||a u + v|| >= delta ||u||] >= 1 - delta across 20 Monte Carlo
    configurations of 1e4 draws each."""
    rng = np.random.default_rng(555)
    ok = True
    worst = math.inf
    for trial in range(20):
        k = int(rng.integers(2, 7))
        u = rng.standard_normal(k)
        style = trial % 3
        if style == 0:
            v = float(rng.uniform(-2.0, 2.0)) * u
        elif style == 1:
            w = rng.standard_normal(k)
            v = w - (float(w @ u) / float(u @ u)) * u
        else:
            v = rng.standard_normal(k)
        delta = float(rng.uniform(0.05, 0.9))
        frac = monte_carlo_offset_norm(u, v, delta, 10**4, seed=7_000 + trial)
        margin = frac - (1.0 - delta - 0.02)
        worst = min(worst, margin)
        ok = ok and margin >= 0.0
    print(f"  worst probability margin: {worst:.4f}")
    _verdict(6, "gaussian offset-norm probability", ok)


def test_criterion_7_byte_identical_reruns(tmp_path, monkeypatch):
    """Identical configs and seeds yield byte-identical trajectory CSVs
    and reports across two invocations."""
    flags = [
        "run",
        "--phi",
        "rff",
        "--dim",
        "4",
        "--feature-dim",
        "24",
        "--n",
        "200",
        "--ratio",
        "20",
        "--seed",
        "3",
        "--trials",
        "2",
        "--init",
        "random",
        "--check",
        "--save-trajectories",
        "--out",
        "out",
    ]
    for sub in ("first", "second"):
        workdir = tmp_path / sub
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        assert main(list(flags)) == 0
    first = tmp_path / "first" / "out"
    second = tmp_path / "second" / "out"
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    identical = all(
        (first / name).read_bytes() == (second / name).read_bytes()
        for name in names
    )
    print(f"  compared files: {names}")
    _verdict(7, "byte-identical reruns", identical)


def test_criterion_8_fault_sensitivity(tmp_path, monkeypatch):
    """A 1e-3 relative perturbation of one recorded scalar makes the
    trajectory checker exit nonzero."""
    monkeypatch.chdir(tmp_path)
    assert (
        main(
            [
                "run",
                "--phi",
                "identity",
                "--dim",
                "6",
                "--n",
                "300",
                "--ratio",
                "30",
                "--seed",
                "9",
                "--init",
                "vstar",
                "--check",
                "--out",
                "out",
            ]
        )
        == 0
    )
    source = tmp_path / "out" / "trial_000.csv"
    assert main(["check", str(source)]) == 0

    lines = source.read_text().split("\n")
    rows = [ln.split(",") for ln in lines[1:] if ln]
    target = max(range(len(rows)), key=lambda i: abs(float(rows[i][3])))
    rows[target][3] = repr(float(rows[target][3]) * (1.0 + 1e-3))
    tampered = tmp_path / "tampered.csv"
    tampered.write_text(
        lines[0] + "\n" + "\n".join(",".join(r) for r in rows) + "\n"
    )
    meta_src = tmp_path / "out" / "trial_000.meta.json"
    (tmp_path / "tampered.meta.json").write_text(meta_src.read_text())

    code = main(["check", str(tampered)])
    checks = json.loads((tmp_path / "tampered.csv.checks.json").read_text())
    failed = [c["name"] for c in checks["checks"] if c["status"] == "fail"]
    print(f"  tampered check exit code {code}; failing checks: {failed}")
    _verdict(8, "fault sensitivity", code == 1 and len(failed) > 0)


def test_certified_regime_run():
    """A run inside the theorem's regime, alpha < 1/(1000 log n) and
    beta >= 1000 log m, passes every check it can judge, and its final
    bound is labelled certified. Identity d=2 at n = 5e5 and R = 2e7 is
    the smallest such run found; the explicit increment reconstruction
    stays vacuous above desk scale."""
    args = build_parser().parse_args(
        [
            "run", "--phi", "identity", "--dim", "2", "--n", "500000",
            "--ratio", "2e7", "--init", "vstar", "--check",
        ]
    )
    trials = []

    def keep(*trial_args):
        trials.append(run_trial(*trial_args))
        return trials[-1]

    with mock.patch("streamkpca.harness.run_trial", side_effect=keep):
        report = run(config_from_args(args))
    agg = report["aggregate"]
    assert agg["alpha_hypothesis_fraction"] == 1.0
    assert agg["beta_hypothesis_fraction"] == 1.0
    (trial,) = trials
    statuses = {e.name: e.status for e in trial.check_report.entries}
    assert statuses.pop("increment_reconstruction") == "vacuous"
    assert set(statuses.values()) == {"pass"}, statuses
    (final,) = [
        e for e in trial.check_report.entries if e.name == "final_residual_bound"
    ]
    assert final.details["certification"] == "certified"
