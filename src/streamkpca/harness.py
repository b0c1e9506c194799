"""Experiment harness: configured runs, ratio sweeps, their reports.

A run is fully determined by its RunConfig: trial t regenerates the
stream from sample_seed + t and, for random starts, derives its own
init seed, so identical configs produce byte-identical trajectory CSVs
and reports. Nothing time- or host-dependent is ever written.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

from .checks import (
    CheckReport,
    _Certificate,
    _jsonable,
    alpha_hypothesis_ok,
    beta_hypothesis_ok,
    envelope,
    envelope_slack,
    run_all_checks,
    within_envelope,
)
from .config import ConfigError, RunConfig, _write_json, check_target_ratio
from .datagen import make_spiked_stream
from .oja import (
    NumericError,
    OjaConfig,
    init_state,
    init_state_at,
    run_stream,
    select_learning_rate,
)
from .spectral import alignment_error, compute_alpha_beta, summarize
from .trajectory import _Head, meta_where, read_trajectory, write_trajectory

REPORT_SCHEMA_ID = "streamkpca-run-report/2"


@dataclass
class TrialResult:
    """Per-trial metrics; alignment errors compare against the empirical
    top eigenvector (and the population spike direction for identity maps)."""

    trial: int
    sample_seed: int
    init_seed: int | None
    error: str | None = None
    alignment_error: float | None = None
    alignment_error_population: float | None = None
    residual: float | None = None
    log_norm: float | None = None
    ratio: float | None = None
    alpha: float | None = None
    beta: float | None = None
    eta: float | None = None
    norm_bound: float | None = None
    envelope: float | None = None
    within_envelope: bool | None = None
    check_ok: bool | None = None
    check_failures: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {k: _jsonable(v) for k, v in self.__dict__.items()}


@dataclass
class TrialArtifacts:
    """Rich per-trial objects for library callers (never serialized)."""

    result: TrialResult
    check_report: CheckReport | None = None


def trial_seeds(config: RunConfig, trial: int) -> tuple[int, int]:
    """Deterministic per-trial seeds: stream seed and init seed."""
    sample_seed = config.generator.sample_seed + trial
    init_seed = 1_000_003 * (config.generator.sample_seed + 1) + trial
    return sample_seed, init_seed


def run_trial(config: RunConfig, trial: int, csv_path=None) -> TrialArtifacts:
    """Execute one trial: summarize, stream, measure, check. summarize
    and the Oja pass each replay the trial's stream from its seed, so the
    trial holds O(m^2 + d^2) floats whatever n is. The pass hands its rows
    to the certificate, if the config checks, and to write_trajectory at
    csv_path, if given; one that raises leaves no CSV."""
    sample_seed, init_seed = trial_seeds(config, trial)
    result = TrialResult(
        trial=trial,
        sample_seed=sample_seed,
        init_seed=init_seed if config.init == "random" else None,
    )
    generator = replace(config.generator, sample_seed=sample_seed)
    stream, truth = make_spiked_stream(generator)
    phi = config.feature_map
    feature_bound = phi.norm_bound(truth.norm_bound)
    user_eta = None if config.eta_policy == "auto" else float(config.eta_policy)
    eta = select_learning_rate(feature_bound, user_eta)

    summary = summarize(stream, phi)
    x_star = summary.top_vector
    energies = compute_alpha_beta(summary, eta)

    oja_config = OjaConfig(eta=eta, feature_map=phi, norm_bound=feature_bound)
    if config.init == "vstar":
        start = init_state_at(x_star)
    else:
        start = init_state(phi.feature_dim, init_seed)
    head = _Head(oja_config, start.v_hat, len(stream), sample_seed)
    certificate = None
    if config.run_checks:
        certificate = _Certificate(head, x_star, energies.alpha, energies.beta)

    result.eta = eta
    result.norm_bound = feature_bound
    result.ratio = summary.ratio
    result.alpha = energies.alpha
    result.beta = energies.beta
    try:
        with contextlib.ExitStack() as stack:
            readers = [certificate.add] if certificate else []
            if csv_path is not None:
                Path(csv_path).parent.mkdir(parents=True, exist_ok=True)
                oracle = dict(v_star=x_star, alpha=energies.alpha, beta=energies.beta)
                readers.append(
                    stack.enter_context(write_trajectory(csv_path, head, **oracle))
                )
            final = run_stream(stream, oja_config, start, into=readers)
    except NumericError as exc:
        result.error = str(exc)
        return TrialArtifacts(result=result)

    result.alignment_error = alignment_error(x_star, final.v_hat)
    if phi.kind == "identity":
        result.alignment_error_population = alignment_error(
            truth.top_direction, final.v_hat
        )
    result.residual = math.sqrt(result.alignment_error)
    result.log_norm = final.log_norm
    result.envelope = envelope(energies.alpha, energies.beta)
    result.within_envelope = within_envelope(
        result.residual, energies.alpha, energies.beta
    )

    check_report = None
    if certificate is not None:
        check_report = certificate.report()
        result.check_ok = check_report.ok
        result.check_failures = [e.name for e in check_report.failures()]
    return TrialArtifacts(result=result, check_report=check_report)


def _quantiles(values) -> dict:
    """The median, q10 and q90 of the finite floats among values (a None
    is skipped), each _quantile's, or None if there are none."""
    ordered = sorted(float(v) for v in values if v is not None)
    if not ordered:
        return {"median": None, "q10": None, "q90": None}
    q10, med, q90 = (_quantile(ordered, q) for q in (0.1, 0.5, 0.9))
    return {"median": med, "q10": q10, "q90": q90}


def _quantile(ordered: list[float], q: float) -> float:
    """np.quantile(ordered, q) of a sorted list of finite floats, bit
    for bit: numpy's linear method and its _lerp rule. (Where 0.0 and
    -0.0 tie, the sort decides which sign is picked; no value averaged
    here is -0.0.) np.quantile and np.median import numpy.ma, which a
    run does not otherwise need."""
    last = len(ordered) - 1
    index = last * q
    if index >= last:
        # numpy takes the last value on both sides, weighted index + 1.
        lo = hi = last
        t = index + 1
    else:
        lo = math.floor(index)
        hi = lo + 1
        t = index - lo
    a, b = ordered[lo], ordered[hi]
    if t < 0.5:
        return a + (b - a) * t
    return b - (b - a) * (1 - t)


def aggregate_trials(results: list[TrialResult], n: int, m: int) -> dict:
    """The report's aggregate of trials run on streams of n samples
    lifted to m features. The envelope failure fraction counts only the
    trials without error whose envelope is below 1, and is None where
    there are none."""
    good = [r for r in results if r.error is None]
    errors = [r.alignment_error for r in good]
    agg = {
        "trials": len(results),
        "aborted": len(results) - len(good),
        "alignment_error": _quantiles(errors),
        "residual_median": _quantiles([r.residual for r in good])["median"],
        "log_norm_median": _quantiles([r.log_norm for r in good])["median"],
        "envelope_failure_fraction": None,
        "envelope_slack_median": None,
        "alpha_hypothesis_fraction": None,
        "beta_hypothesis_fraction": None,
        "check_failure_count": sum(
            1 for r in good if r.check_ok is False
        ),
    }
    # A unit vector's residual is at most 1, so only an envelope below 1
    # can fail; as in the per-trial check, a NaN envelope is judged.
    judged = [r for r in good if not envelope(r.alpha, r.beta) >= 1.0]
    if judged:
        agg["envelope_failure_fraction"] = sum(
            1 for r in judged if not r.within_envelope
        ) / len(judged)
    if good:
        agg["envelope_slack_median"] = _quantiles(
            [envelope_slack(r.beta) for r in good]
        )["median"]
        agg["alpha_hypothesis_fraction"] = sum(
            1 for r in good if alpha_hypothesis_ok(r.alpha, n)
        ) / len(good)
        agg["beta_hypothesis_fraction"] = sum(
            1 for r in good if beta_hypothesis_ok(r.beta, m)
        ) / len(good)
    return agg


def run(config: RunConfig, out_dir=None, *, save_trajectories=False) -> dict:
    """Run all trials, aggregate, optionally persist artifacts.

    Returns the report as a plain dict (already JSON-safe). Given an
    output directory, each trial's trajectory CSV (when the config
    checks or save_trajectories is set) is written there during its
    pass, its check report when it ends, and report.json last; given
    none, nothing is written.
    """
    out = None if out_dir is None else Path(out_dir)
    writes = out is not None and (config.run_checks or save_trajectories)
    results = []
    for t in range(config.trials):
        a = run_trial(config, t, out / f"trial_{t:03d}.csv" if writes else None)
        results.append(a.result)
        if out is None:
            continue
        # Made once a trial has run its pass (there is at least one), so
        # a run refused in its first trial leaves no directory behind.
        out.mkdir(parents=True, exist_ok=True)
        if a.check_report is not None:
            _write_json(out / f"trial_{t:03d}.checks.json", a.check_report.to_dict())
    agg = aggregate_trials(
        results, config.generator.n, config.feature_map.feature_dim
    )
    report = {
        "schema": REPORT_SCHEMA_ID,
        "config": _jsonable(config.to_dict()),
        "trials": [r.to_dict() for r in results],
        "aggregate": _jsonable(agg),
    }
    if out is not None:
        _write_json(out / "report.json", report)
    return report


def sweep(config: RunConfig, ratios: list[float], out_dir=None) -> dict:
    """Run the same config across several target spectral ratios.

    Seeds are held fixed across ratios, so rows are paired comparisons:
    only lambda2 changes between them. Each row is its run's aggregate,
    with the target ratio, whether it is 1 (no spike) and the median of
    the trials' finite empirical ratios. Given an output directory,
    sweep.json and sweep.csv are written there. Each ratio is taken as
    a Python float before any trial runs, so a numpy scalar writes as
    its float does.
    """
    ratios = [check_target_ratio(target, "target ratio") for target in ratios]
    if len(ratios) < 2:
        raise ConfigError("a sweep needs at least two target ratios")
    rows = []
    for target in ratios:
        generator = replace(
            config.generator, lambda2=config.generator.lambda1 / target
        )
        # Nothing is written: only the checks read the pass's rows.
        report = run(replace(config, generator=generator))
        rows.append(
            {
                "r_target": target,
                "no_spike": target == 1.0,
                "empirical_r_median": _quantiles(
                    t["ratio"]
                    for t in report["trials"]
                    if t["error"] is None and not isinstance(t["ratio"], str)
                )["median"],
                "aggregate": report["aggregate"],
            }
        )
    out = {
        "schema": "streamkpca-sweep/3",
        "config": _jsonable(config.to_dict()),
        "ratios": ratios,
        "rows": _jsonable(rows),
    }
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_json(out_dir / "sweep.json", out)
        (out_dir / "sweep.csv").write_bytes(sweep_csv(out).encode("utf-8"))
    return out


def sweep_csv(sweep_report: dict) -> str:
    """The sweep's table: one line per row, each cell _format_cell of
    the row's value or its aggregate's."""
    lines = [
        "r_target,empirical_r_median,alignment_error_median,"
        "alpha_hypothesis_fraction,beta_hypothesis_fraction"
    ]
    for row in sweep_report["rows"]:
        agg = row["aggregate"]
        cells = (
            row["r_target"],
            row["empirical_r_median"],
            agg["alignment_error"]["median"],
            agg["alpha_hypothesis_fraction"],
            agg["beta_hypothesis_fraction"],
        )
        lines.append(",".join(map(_format_cell, cells)))
    return "\n".join(lines) + "\n"


def _format_cell(v: float | None) -> str:
    return "" if v is None else repr(v)


def check_trajectory_file(csv_path) -> CheckReport:
    """Certify a persisted trajectory against its sidecar's oracle:
    read_trajectory, then run_all_checks in one pass over its rows.

    Raises:
        TrajectoryParseError: a malformed file (read_trajectory, units).
        ConfigError: a malformed sidecar (read_trajectory), an alpha +
            beta above what the rows allow (units), or an alpha that
            overflows a check.
    """
    traj = read_trajectory(csv_path)
    try:
        return run_all_checks(traj, traj.v_star, traj.alpha, traj.beta)
    except OverflowError as exc:
        # Of the sidecar's values, only alpha can overflow a check: the
        # energy budget squares it, once every row is read, and raises
        # if that is not finite.
        raise ConfigError(
            f"{meta_where(csv_path)}: key 'alpha' overflows the certificate: {exc}"
        ) from exc
