"""Experiment harness: configured runs, ratio sweeps, persistence.

A run is fully determined by its RunConfig: trial t regenerates the
stream from sample_seed + t and, for random starts, derives its own
init seed, so identical configs produce byte-identical trajectory CSVs
and reports. Nothing time- or host-dependent is ever written.

File formats:
  * run config and reports -- JSON (UTF-8, sorted keys), a config file
    and a sidecar read by one reader, _read_json_object, and checked by
    one walk, _check_keys, over its key table: a missing, mistyped or
    unknown key is a ConfigError naming the file, the object and the key;
  * trajectories -- CSV with header ``s,phi_norm_sq,log_ratio`` and
    the direction columns ``vhat_0..vhat_{m-1}``; line i holds the run's
    table row i (oja.Trajectory), each cell orjson's shortest round-trip
    spelling of the float64, which float() reads back bit for bit (1e16
    and 0.00001 where repr writes 1e+16 and 1e-05), in the one grammar
    the reader takes (_parse_block);
  * each trajectory CSV has a ``<name>.meta.json`` sidecar carrying the
    constants a post-hoc check needs (eta, feature map, init direction,
    whose width is m, oracle alpha/beta and v*) and its row count n;
    write_trajectory writes both files as the run's units reach it, and
    read_trajectory reads them back as one record, a TrajectoryFile.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import numbers
import os
import reprlib
import sys
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import NoReturn

import numpy as np
import orjson

from . import linalg
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
from .datagen import SpikedSpec, make_spiked_stream
from .featuremaps import KINDS, FeatureMapSpec
from .oja import (
    STEP_COLUMNS,
    NumericError,
    OjaConfig,
    _Head,
    init_state,
    init_state_at,
    run_stream,
    select_learning_rate,
)
from .spectral import alignment_error, compute_alpha_beta, summarize

REPORT_SCHEMA_ID = "streamkpca-run-report/2"


class ConfigError(ValueError):
    """A run configuration is invalid."""


class TrajectoryParseError(ValueError):
    """A trajectory file is malformed; the message names a byte offset."""


@dataclass(frozen=True)
class RunConfig:
    """One experiment: feature map, generator, policies, trial count."""

    feature_map: FeatureMapSpec
    generator: SpikedSpec
    eta_policy: object = "auto"  # "auto" or a positive float
    init: str = "random"
    trials: int = 1
    run_checks: bool = False

    def __post_init__(self):
        if self.feature_map.input_dim != self.generator.input_dim:
            raise ConfigError(
                "feature map input_dim does not match the generator"
            )
        _check_oracle_cap(self.feature_map.to_dict())
        # eta is 0.1 over this bound; refuse it here, before any draw
        # could overflow on the way to it.
        bound = self.feature_map.norm_bound(self.generator.norm_guard())
        if not 0.0 < bound < math.inf:
            raise ConfigError(
                f"key 'lambda1' = {self.generator.lambda1!r} gives the "
                f"{self.feature_map.kind} feature-norm bound {bound!r}, "
                "which is not a positive finite float"
            )
        # trace(M) = sum ||phi||^2 <= n * bound, and the oracle forms
        # M + M^T: refuse a bound whose second moment could overflow.
        if not math.isfinite(2.0 * self.generator.n * bound):
            raise ConfigError(
                f"key 'lambda1' = {self.generator.lambda1!r} with key 'n' = "
                f"{self.generator.n} gives the {self.feature_map.kind} "
                f"feature-norm bound {bound!r}, whose second moment, up to "
                f"2 * n * bound, overflows"
            )
        if self.init not in ("random", "vstar"):
            raise ConfigError("init must be 'random' or 'vstar'")
        if self.trials < 1:
            raise ConfigError("trials must be at least 1")
        if self.eta_policy != "auto":
            # A number, not a bool or a string: true and "0.01" are typos.
            if not (_is_finite_number(self.eta_policy) and self.eta_policy > 0):
                raise ConfigError(
                    "key 'eta_policy' must be 'auto' or a finite "
                    f"positive number, got {reprlib.repr(self.eta_policy)}"
                )
            object.__setattr__(self, "eta_policy", float(self.eta_policy))

    def to_dict(self) -> dict:
        return asdict(self) | {"feature_map": self.feature_map.to_dict()}

    @classmethod
    def from_dict(cls, d: dict, where: str = "bad config") -> "RunConfig":
        """The config of a document in to_dict's keys; a key it leaves
        out takes the field's default. Every ConfigError begins with where."""
        _check_keys(d, _RUN_CONFIG_KEYS, where)
        _check_oracle_cap(d["feature_map"], f"{where}: ")
        specs = {}
        for key, spec in (("feature_map", FeatureMapSpec), ("generator", SpikedSpec)):
            try:
                specs[key] = spec.from_dict(d[key])
            except ValueError as exc:
                raise ConfigError(f"{where}: key {key!r}: {exc}") from exc
        try:
            return cls(**(d | specs))
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc

    def save(self, path) -> None:
        _write_json(Path(path), self.to_dict())

    @classmethod
    def load(cls, path) -> "RunConfig":
        where = f"bad config {path}"
        return cls.from_dict(_read_json_object(Path(path), where), where)


def _check_oracle_cap(feature_map: dict, prefix: str = "") -> None:
    """Refuse a feature map's document wider than the oracle holds (m x m
    floats, and the generator's d x d basis), with a ConfigError that
    begins with prefix, before FeatureMapSpec builds it: an rff map's
    check of a bandwidth below 1 draws rows of input_dim floats. d comes
    first, as identity and poly2 derive m from it."""
    for key in ("input_dim", "feature_dim"):
        if feature_map[key] > linalg.MAX_ORACLE_DIM:
            raise ConfigError(
                f"{prefix}feature_map {key} {feature_map[key]} exceeds the "
                f"oracle cap MAX_ORACLE_DIM {linalg.MAX_ORACLE_DIM}"
            )


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


def check_target_ratio(ratio, name: str) -> float:
    """ratio as a float if it is a real number (not a bool), finite and
    >= 1, else a ConfigError naming name."""
    if isinstance(ratio, (bool, np.bool_)) or not isinstance(ratio, numbers.Real):
        raise ConfigError(f"{name} must be a real number, got {ratio!r}")
    if not (1.0 <= ratio and linalg.is_finite_float(ratio)):  # NaN fails too
        raise ConfigError(f"{name} must be finite and >= 1, got {ratio!r}")
    return float(ratio)


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


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _read_json_object(path: Path, where: str) -> dict:
    """The JSON object in the file at path. Text that is not UTF-8 or
    JSON, an integer past int's digit limit, or a document that is not
    an object, is a ConfigError that begins with where."""
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{where}: invalid UTF-8 at byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{where}: parse error at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise ConfigError(f"{where}: nested too deeply to parse") from exc
    except ValueError as exc:  # json's one other error: int()'s digit limit
        raise ConfigError(
            f"{where}: an integer has more than "
            f"{sys.get_int_max_str_digits()} digits"
        ) from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{where}: expected a JSON object, got {reprlib.repr(doc)}")
    return doc


# ---------------------------------------------------------------------------
# Trajectory persistence


@contextlib.contextmanager
def write_trajectory(path, head, *, v_star, alpha, beta):
    """Yield the function that writes a unit's rows after its first to
    a trajectory CSV (each step's s, phi_norm_sq and log ratio, then the
    direction after it as vhat_* columns); on exit, with head.n rows
    written, write the sidecar from ``head`` (a _Head or a Trajectory)
    and the oracle's v_star, alpha, beta, which check_trajectory_file
    certifies against. The sidecar is held to read_trajectory's rules
    before the CSV is opened. If the block raises, neither file is left
    at the path.

    Each cell is orjson's shortest round-trip spelling of the float64,
    which reads back bit for bit, written half of _chunk_rows' rows per
    orjson call. Reruns on one install write the same bytes. The
    spelling may differ between orjson versions, the values it reads
    back to never do.

    Raises:
        ConfigError: a sidecar read_trajectory refuses (_sidecar_fields).
        ValueError: a non-finite cell (_csv_rows), or other than head.n
            rows written.
    """
    path = Path(path)
    meta = _jsonable(
        {
            "eta": head.config.eta,
            "norm_bound": head.config.norm_bound,
            "feature_map": head.config.feature_map.to_dict(),
            "init_v_hat": [float(v) for v in head.init_v_hat],
            "seed": head.seed,
            "n": head.n,
            "alpha": alpha,
            "beta": beta,
            "v_star": [float(v) for v in v_star],
        }
    )
    _sidecar_fields(meta, f"bad trajectory metadata {meta_path_for(path).name}")
    header = [*STEP_COLUMNS, *(f"vhat_{k}" for k in range(head.m))]
    # orjson reserves about twice the text it returns, so half a parse
    # chunk's rows keep the reserve, like the text, below _CHUNK_BYTES.
    rows = max(1, _chunk_rows(len(header)) // 2)
    written = 0

    def write(unit: np.ndarray) -> None:
        nonlocal written
        for start in range(1, len(unit), rows):
            fh.write(_csv_rows(unit[start : start + rows], written + start))
        written += len(unit) - 1

    try:
        with open(path, "wb") as fh:
            fh.write((",".join(header) + "\n").encode("utf-8"))
            yield write
        if written != head.n:
            raise ValueError(f"wrote {written} steps of a run of n = {head.n}")
    except BaseException:
        path.unlink(missing_ok=True)
        meta_path_for(path).unlink(missing_ok=True)
        raise
    _write_json(meta_path_for(path), meta)


def _csv_rows(block: np.ndarray, first_step: int) -> bytes:
    """CSV lines of a finite float64 block, the table rows of steps
    first_step, ..., in one orjson pass.

    orjson spells each cell with the shortest digits that round-trip,
    in the bytes 0-9 . e - only, so _parse_block reads every block the
    writer makes. It would spell NaN as null, so the block must be
    finite.

    Raises:
        ValueError: a cell is NaN or infinite; the message names its
            step and its CSV column (0 is the s column).
    """
    finite = np.isfinite(block)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise ValueError(
            f"cannot write the non-finite cell {float(block[i, j])!r} "
            f"at step {first_step + i}, column {j}"
        )
    doc = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY)
    # A split and join outruns bytes.replace of the 3-byte separator.
    return b"\n".join(doc[2:-2].split(b"],[")) + b"\n"


def meta_path_for(path) -> Path:
    return Path(path).with_suffix(".meta.json")


def read_trajectory(csv_path) -> TrajectoryFile:
    """Open a trajectory CSV and its meta sidecar as one record: every
    sidecar key, and every width the sidecar and the CSV's header state,
    is checked here, before any row is parsed; the rows are parsed only
    as ``TrajectoryFile.units`` reaches them.

    Raises:
        TrajectoryParseError: a bad header, or a file too short for the
            sidecar's n rows; the message names the byte offset.
        ConfigError: a missing or malformed sidecar (_sidecar_fields), or
            other than its init_v_hat's width of vhat_* columns.
    """
    csv_path = Path(csv_path)
    meta_file = meta_path_for(csv_path)
    if not meta_file.exists():
        raise ConfigError(f"missing trajectory metadata: {meta_file}")
    where = f"bad trajectory metadata {meta_file.name}"
    fields = _sidecar_fields(_read_json_object(meta_file, where), where)
    data_start = _read_header(csv_path, len(fields["init_v_hat"]), fields["n"], where)
    return TrajectoryFile(**fields, path=csv_path, data_start=data_start)


def _sidecar_fields(meta: dict, where: str) -> dict:
    """The _Head and oracle fields of a TrajectoryFile from a sidecar
    document, checked by every rule a sidecar keeps; write_trajectory
    holds the sidecar it writes to the same rules.

    Raises:
        ConfigError: beginning with where and naming the key: a key
            missing, mistyped or unknown, a width other than
            init_v_hat's (feature_map, v_star), an init_v_hat or v_star
            not of unit length, a feature map wider than the oracle
            cap, or a norm_bound not positive or too large for its eta.
    """
    _check_keys(meta, _META_KEYS, where)
    m = len(meta["init_v_hat"])
    # Every width the sidecar states is the start's, which the header's
    # vhat_* columns must be too. They are compared before the feature
    # map is built, whose rff draws take time in its width.
    widths = {"feature_map": meta["feature_map"]["feature_dim"]}
    widths["v_star"] = len(meta["v_star"])
    for key, width in widths.items():
        if width != m:
            raise ConfigError(
                f"{where}: key {key!r} gives width {width}, key 'init_v_hat' {m}"
            )
    _check_oracle_cap(meta["feature_map"], f"{where}: ")
    try:
        feature_map = FeatureMapSpec.from_dict(meta["feature_map"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: key 'feature_map': {exc}") from exc
    # Every run starts at a unit direction, and the checks measure it
    # against a unit v*.
    unit = {}
    for key in ("init_v_hat", "v_star"):
        try:
            unit[key] = linalg.as_unit_vector(meta[key], key)
        except ValueError as exc:
            raise ConfigError(
                f"{where}: key {key!r} must have unit norm, within "
                f"{linalg.UNIT_NORM_TOL!r}"
            ) from exc
        unit[key].flags.writeable = False
    try:
        config = OjaConfig(meta["eta"], feature_map, norm_bound=meta["norm_bound"])
    except ValueError as exc:
        raise ConfigError(f"{where}: key 'norm_bound' with key 'eta': {exc}") from exc
    return dict(
        config=config, init_v_hat=unit["init_v_hat"], n=meta["n"],
        seed=meta["seed"], v_star=unit["v_star"], alpha=float(meta["alpha"]),
        beta=float(meta["beta"]),
    )


def _read_header(csv_path: Path, m: int, n: int, where: str) -> int:
    """The byte offset where the rows of a trajectory CSV with m vhat_*
    columns start, once its header is checked and its size found large
    enough for n rows. Other than m columns is a ConfigError that begins
    with where, the sidecar's."""
    width = len(STEP_COLUMNS)
    # Lines split on "\n" only; a "\r" stays part of its field.
    with open(csv_path, "rb") as fh:
        raw_header = fh.readline()
        size = os.fstat(fh.fileno()).st_size
    if not raw_header:
        raise TrajectoryParseError("empty trajectory file at byte 0")
    header_line = _decode_line(raw_header, 0)
    header = header_line.split(",")
    if tuple(header[:width]) != STEP_COLUMNS:
        raise TrajectoryParseError(
            f"bad header at byte 0: expected {','.join(STEP_COLUMNS)}"
        )
    for k, name in enumerate(header[width:]):
        if name != f"vhat_{k}":
            raise TrajectoryParseError(
                f"bad snapshot column {name!r} at byte "
                f"{_byte_offset(0, header_line, width + k)}"
            )
    if len(header) - width != m:
        raise ConfigError(
            f"{where}: key 'init_v_hat' has {m} entries, the trajectory "
            f"{len(header) - width} vhat_* columns"
        )
    # A row of len(header) cells takes at least 2 * len(header) - 1
    # bytes: an n the file cannot hold is refused before any row is read.
    if n * (2 * len(header) - 1) > size - len(raw_header):
        raise TrajectoryParseError(
            f"trajectory ends at byte {size}, too short for the n = {n} "
            f"rows its sidecar records"
        )
    return len(raw_header)


# A chunk's text, parsed by units or written by write_trajectory, stays
# below this many bytes: glibc's default mmap threshold, so the text and
# its values are heap memory that the next chunk reuses, where a larger
# one is a fresh mapping whose pages fault in again each time. The most
# bytes a cell takes, with its comma, is about 24.
_CHUNK_BYTES = 1 << 17
_CELL_BYTES = 24


def _chunk_rows(n_fields: int) -> int:
    """Rows per parse chunk for rows of n_fields cells: a power of two,
    so chunks tile a unit of linalg.BLOCK_ROWS rows (64 at m = 78)."""
    fit = max(1, _CHUNK_BYTES // (_CELL_BYTES * n_fields))
    return 1 << (fit.bit_length() - 1)


@dataclass
class TrajectoryFile(_Head):
    """A trajectory CSV and its sidecar, checked by read_trajectory: the
    run's _Head, the oracle's v_star, alpha and beta, and ``units``,
    which parses the rows as it goes. Its table's row 0 is three zeros
    and the sidecar's init_v_hat."""

    v_star: np.ndarray  # read-only, unit norm
    alpha: float
    beta: float
    path: Path
    data_start: int  # byte offset of row 1

    def units(self):
        """The rows as units of linalg.BLOCK_ROWS steps, the first at
        step 1: the k + 1 table rows Trajectory.units gives, parsed
        _chunk_rows rows at a time into one buffer that each unit
        reuses. A defect raises where the pass reaches it, so the error
        names the first defect in the file; so does a row count other
        than n. Once every row is read, alpha + beta must be at most what
        the rows allow.

        Raises:
            TrajectoryParseError: malformed rows, or a row count other
                than n; the message names the byte offset.
            ConfigError: alpha + beta above eta * sum(phi_norm_sq).
        """
        n, m = self.n, self.m
        n_fields = len(STEP_COLUMNS) + m
        chunk = _chunk_rows(n_fields)
        unit_rows = linalg.BLOCK_ROWS
        # Row 0 holds the row before the unit's first step.
        buffer = np.empty((min(unit_rows, n) + 1, n_fields))
        buffer[0, :3] = 0.0
        buffer[0, 3:] = self.init_v_hat
        trace = 0.0
        offset = self.data_start
        # A 64 KiB read buffer: at the default 8 KiB, a poly2 row of
        # 1.5 KB straddles the buffer's end every few lines, and reading
        # the benchmark's poly2 file took 7 ms more.
        with open(self.path, "rb", buffering=_CHUNK_BYTES // 2) as fh:
            fh.seek(offset)
            first = 1
            while first <= n:
                k = min(unit_rows, n + 1 - first)
                filled = 0
                while filled < k:
                    row = first + filled
                    lines = list(itertools.islice(fh, min(chunk, k - filled)))
                    if not lines:
                        raise TrajectoryParseError(
                            f"trajectory ends at byte {offset} after row {row - 1}, "
                            f"short of the n = {n} rows its sidecar records"
                        )
                    values = _parse_block(lines, n_fields)
                    if values is None:
                        _raise_at_defect(lines, row, n_fields, offset)
                    buffer[1 + filled : 1 + filled + len(lines)] = values
                    offset += sum(map(len, lines))
                    filled += len(lines)
                rows = buffer[: k + 1]
                with np.errstate(over="ignore"):
                    trace = float(linalg.carried(trace, rows[1:, 1])[-1])
                yield rows
                buffer[0] = rows[k]
                first += k
            if fh.read(1):
                raise TrajectoryParseError(
                    f"row {n + 1} at byte {offset}: beyond the n = {n} rows its "
                    "sidecar records"
                )
        # For a unit v*, alpha + beta <= eta * trace(M), and the trace of
        # the second moment is the sum of the recorded ||phi||^2; the
        # 1e-9 relative slack absorbs the two sums' rounding.
        most = self.config.eta * trace
        if self.alpha + self.beta > most * (1.0 + 1e-9):
            raise ConfigError(
                f"bad trajectory metadata {meta_path_for(self.path).name}: "
                f"key 'alpha' + key 'beta' = {self.alpha + self.beta!r} exceeds "
                f"key 'eta' * sum(phi_norm_sq) = {most!r}, the most a run gives"
            )


# The bytes of a cell: a JSON number, with e as its only exponent mark.
_NUMBER_BYTES = b"0123456789.e+-"


def _parse_block(lines: list[bytes], n_fields: int) -> np.ndarray | None:
    """The (len(lines), n_fields) values of data rows, or None unless
    every row is in the trajectory grammar: n_fields finite JSON numbers
    spelled in _NUMBER_BYTES, split by commas.

    The lines are parsed as one JSON array of rows. k rows of numbers
    take exactly the frame's k + 1 opening brackets, so no line held a
    bracket. Each cell reads to float()'s bits, but -0, which JSON reads
    as the integer 0, so as 0.0.
    """
    framed = [b"[[" + lines[0], *lines[1:]]
    framed[-1] += b"]]"
    doc = b"],[".join(framed)
    if doc.translate(None, _NUMBER_BYTES + b",\n[]"):
        return None
    try:
        block = np.array(orjson.loads(doc), dtype=np.float64)
    except ValueError:  # not JSON, or rows of unequal shape
        return None
    if block.shape != (len(lines), n_fields) or not np.isfinite(block).all():
        return None
    return block


def _raise_at_defect(
    lines: list[bytes], first_row: int, n_fields: int, line_start: int
) -> NoReturn:
    """Raise at the first defect of data rows first_row, ... (the first
    line starts at byte line_start), a block _parse_block refused, by
    walking them in its grammar: invalid UTF-8, a row of other than
    n_fields cells, then the row's first cell out of the grammar."""
    for row, raw in enumerate(lines, first_row):
        line = _decode_line(raw, line_start)
        cells = line.split(",")
        if len(cells) != n_fields:
            raise TrajectoryParseError(
                f"row {row} at byte {line_start}: "
                f"expected {n_fields} fields, found {len(cells)}"
            )
        for j, cell in enumerate(cells):
            defect = _cell_defect(cell)
            if defect:
                at = _byte_offset(line_start, line, j)
                raise TrajectoryParseError(f"{defect} at byte {at}")
        line_start += len(raw)
    raise AssertionError(f"_parse_block refused rows {first_row}.. in the grammar")


def _cell_defect(cell: str) -> str | None:
    """Why _parse_block refuses a cell as a row of one field, or None if
    it takes it: non-finite where float() reads inf or nan, else
    unparseable."""
    if _parse_block([cell.encode("utf-8")], 1) is not None:
        return None
    try:
        if not math.isfinite(float(cell)):
            return f"non-finite field {cell!r}"
    except ValueError:
        pass
    return f"unparseable field {cell!r}"


def _decode_line(raw: bytes, line_start: int) -> str:
    """A line read from the file, decoded, without its newline."""
    try:
        line = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TrajectoryParseError(
            f"invalid UTF-8 at byte {line_start + exc.start}"
        ) from exc
    return line[:-1] if line.endswith("\n") else line


def _byte_offset(line_start: int, line: str, j: int) -> int:
    """Byte offset of field j of a line that starts at byte line_start."""
    before = ",".join(line.split(",")[:j])
    return line_start + len(before.encode("utf-8")) + (1 if j > 0 else 0)


def _is_integer(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_nonnegative_integer(v) -> bool:
    return _is_integer(v) and v >= 0


def _is_bool(v) -> bool:
    return isinstance(v, bool)


def _is_finite_number(v) -> bool:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    return linalg.is_finite_float(v)


def _is_nonnegative_number(v) -> bool:
    return _is_finite_number(v) and v >= 0


def _is_finite_vector(v) -> bool:
    return isinstance(v, list) and all(_is_finite_number(x) for x in v)


def _nullable(test):
    return lambda v: v is None or test(v)


# Key tables, checked by _check_keys: key -> (required, test, what the
# test accepts), or (required, nested key table, None) for an object.
# A key a constructor checks takes any value here.
_ANY_VALUE = (False, lambda v: True, "any value")

# Feature map key, in a config or a meta sidecar.
_FEATURE_MAP_KEYS = {
    "kind": (True, lambda v: v in KINDS, "one of " + ", ".join(map(repr, KINDS))),
    "input_dim": (True, _is_integer, "an integer"),
    "feature_dim": (True, _is_integer, "an integer"),
    "bandwidth": (False, _nullable(_is_finite_number), "null or a finite number"),
    "seed": (False, _nullable(_is_nonnegative_integer), "null or an integer >= 0"),
}

# Config generator key.
_GENERATOR_KEYS = {
    "input_dim": (True, _is_integer, "an integer"),
    "n": (True, _is_integer, "an integer"),
    "lambda1": (True, _is_finite_number, "a finite number"),
    "lambda2": (True, _is_finite_number, "a finite number"),
    "tail_decay": (True, _is_finite_number, "a finite number"),
    "basis_seed": (True, _is_nonnegative_integer, "an integer >= 0"),
    "sample_seed": (True, _is_nonnegative_integer, "an integer >= 0"),
}

# Config key; RunConfig checks eta_policy and init.
_RUN_CONFIG_KEYS = {
    "feature_map": (True, _FEATURE_MAP_KEYS, None),
    "generator": (True, _GENERATOR_KEYS, None),
    "eta_policy": _ANY_VALUE,
    "init": _ANY_VALUE,
    "trials": (False, _is_integer, "an integer"),
    "run_checks": (False, _is_bool, "a boolean"),
}

# Meta sidecar key: every one is required, and only norm_bound may be null.
_META_KEYS = {
    "eta": (
        True,
        lambda v: _is_finite_number(v) and 0.0 < v < 0.1,
        "a number strictly inside (0, 0.1)",
    ),
    "feature_map": (True, _FEATURE_MAP_KEYS, None),
    "init_v_hat": (True, _is_finite_vector, "a list of finite numbers"),
    "seed": (True, _is_nonnegative_integer, "an integer >= 0"),
    "n": (True, _is_nonnegative_integer, "an integer >= 0"),
    "norm_bound": (True, _nullable(_is_finite_number), "null or finite"),
    "alpha": (True, _is_nonnegative_number, "finite >= 0"),
    "beta": (True, _is_nonnegative_number, "finite >= 0"),
    "v_star": (True, _is_finite_vector, "a list of finite numbers"),
}


def _check_keys(obj, table: dict, where: str) -> None:
    """Reject a JSON object with a missing or mistyped key of table, or
    a key it does not name, naming the key: 100.9 is not an integer,
    nor "3" a number. A nested table's object is checked in turn."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected a JSON object, got {reprlib.repr(obj)}")
    for key, (required, test, accepts) in table.items():
        if key not in obj:
            if required:
                raise ConfigError(f"{where}: missing key {key!r}")
        elif isinstance(test, dict):
            _check_keys(obj[key], test, f"{where}: key {key!r}")
        elif not test(obj[key]):
            raise ConfigError(
                f"{where}: key {key!r} must be {accepts}, "
                f"got {reprlib.repr(obj[key])}"
            )
    for key in obj:
        if key not in table:
            raise ConfigError(f"{where}: unknown key {reprlib.repr(key)}")


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
            f"bad trajectory metadata {meta_path_for(csv_path).name}: "
            f"key 'alpha' overflows the certificate: {exc}"
        ) from exc
