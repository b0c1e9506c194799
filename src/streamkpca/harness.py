"""Experiment harness: configured runs, ratio sweeps, persistence.

A run is fully determined by its RunConfig: trial t regenerates the
stream from sample_seed + t and, for random starts, derives its own
init seed, so identical configs produce byte-identical trajectory CSVs
and reports. Nothing time- or host-dependent is ever written.

File formats:
  * run config and reports -- JSON (UTF-8, sorted keys);
  * trajectories -- CSV with header ``step,s,phi_norm_sq,log_ratio``
    plus optional snapshot columns ``vhat_0..vhat_{m-1}``; row i holds
    step i of the Trajectory's columns (its snapshot row i), each cell
    the text of Python's repr of the float64;
  * each trajectory CSV has a ``<name>.meta.json`` sidecar carrying the
    constants a post-hoc check needs (eta, feature map, init direction,
    oracle alpha/beta and v*).
"""

from __future__ import annotations

import itertools
import json
import math
import os
import re
import reprlib
from contextlib import closing
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NoReturn

import numpy as np
import orjson

from . import linalg
from .checks import CheckReport, _jsonable, run_all_checks
from .datagen import SpikedSpec, make_spiked_stream
from .featuremaps import FeatureMapSpec
from .oja import (
    STEP_COLUMNS,
    NumericError,
    OjaConfig,
    Trajectory,
    init_state,
    init_state_at,
    run_stream,
    select_learning_rate,
)
from .spectral import alignment_error, compute_alpha_beta, summarize

OUT_DIR_ENV = "STREAMKPCA_OUT"
REPORT_SCHEMA_ID = "streamkpca-run-report/1"

TRAJECTORY_HEADER = ["step", *STEP_COLUMNS]


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
    save_trajectories: bool = False
    out_dir: str | None = None

    def __post_init__(self):
        if self.feature_map.input_dim != self.generator.input_dim:
            raise ConfigError(
                "feature map input_dim does not match the generator"
            )
        if self.init not in ("random", "vstar"):
            raise ConfigError("init must be 'random' or 'vstar'")
        if self.trials < 1:
            raise ConfigError("trials must be at least 1")
        if self.eta_policy != "auto":
            try:
                eta = float(self.eta_policy)
            except (TypeError, ValueError):
                raise ConfigError(
                    "eta_policy must be 'auto' or a positive number"
                ) from None
            if eta <= 0:
                raise ConfigError("a fixed eta must be positive")
            object.__setattr__(self, "eta_policy", eta)

    def to_dict(self) -> dict:
        return {
            "feature_map": self.feature_map.to_dict(),
            "generator": self.generator.to_dict(),
            "eta_policy": self.eta_policy,
            "init": self.init,
            "trials": self.trials,
            "run_checks": self.run_checks,
            "save_trajectories": self.save_trajectories,
            "out_dir": self.out_dir,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        try:
            return cls(
                feature_map=FeatureMapSpec.from_dict(d["feature_map"]),
                generator=SpikedSpec.from_dict(d["generator"]),
                eta_policy=d.get("eta_policy", "auto"),
                init=d.get("init", "random"),
                trials=int(d.get("trials", 1)),
                run_checks=bool(d.get("run_checks", False)),
                save_trajectories=bool(d.get("save_trajectories", False)),
                out_dir=d.get("out_dir"),
            )
        except ConfigError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad config: {exc}") from exc

    def save(self, path) -> None:
        _write_json(Path(path), self.to_dict())

    @classmethod
    def load(cls, path) -> "RunConfig":
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"config parse error at line {exc.lineno}, column {exc.colno}: "
                f"{exc.msg}"
            ) from exc
        return cls.from_dict(raw)


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
    trajectory: Trajectory | None = None
    check_report: CheckReport | None = None
    x_star: np.ndarray | None = None


def trial_seeds(config: RunConfig, trial: int) -> tuple[int, int]:
    """Deterministic per-trial seeds: stream seed and init seed."""
    sample_seed = config.generator.sample_seed + trial
    init_seed = 1_000_003 * (config.generator.sample_seed + 1) + trial
    return sample_seed, init_seed


def run_trial(config: RunConfig, trial: int) -> TrialArtifacts:
    """Execute one trial: generate, summarize, stream, measure, check."""
    sample_seed, init_seed = trial_seeds(config, trial)
    result = TrialResult(
        trial=trial,
        sample_seed=sample_seed,
        init_seed=init_seed if config.init == "random" else None,
    )
    generator = replace(config.generator, sample_seed=sample_seed)
    xs, truth = make_spiked_stream(generator)
    phi = config.feature_map
    feature_bound = phi.norm_bound(truth.norm_bound)
    user_eta = None if config.eta_policy == "auto" else float(config.eta_policy)
    eta = select_learning_rate(feature_bound, user_eta)

    summary = summarize(xs, phi)
    x_star = summary.top_vector
    energies = compute_alpha_beta(summary, eta, x_star)

    want_records = config.run_checks or config.save_trajectories
    oja_config = OjaConfig(
        eta=eta,
        feature_map=phi,
        record_trajectory=want_records,
        snapshots=config.run_checks,
        norm_bound=feature_bound,
    )
    if config.init == "vstar":
        start = init_state_at(x_star)
    else:
        start = init_state(phi.feature_dim, init_seed)

    result.eta = eta
    result.norm_bound = feature_bound
    result.ratio = summary.ratio
    result.alpha = energies.alpha
    result.beta = energies.beta
    try:
        final, trajectory = run_stream(xs, oja_config, start, seed=sample_seed)
    except NumericError as exc:
        result.error = str(exc)
        return TrialArtifacts(result=result, x_star=x_star)

    result.alignment_error = alignment_error(x_star, final.v_hat)
    if phi.kind == "identity":
        result.alignment_error_population = alignment_error(
            truth.top_direction, final.v_hat
        )
    result.residual = math.sqrt(result.alignment_error)
    result.log_norm = final.log_norm
    result.envelope = math.sqrt(energies.alpha) + math.exp(
        -energies.beta / 200.0
    )
    result.within_envelope = result.residual <= result.envelope + 1e-9

    check_report = None
    if config.run_checks:
        check_report = run_all_checks(
            trajectory, x_star, energies.alpha, energies.beta
        )
        result.check_ok = check_report.ok
        result.check_failures = [e.name for e in check_report.failures()]
    return TrialArtifacts(
        result=result,
        trajectory=trajectory,
        check_report=check_report,
        x_star=x_star,
    )


def _quantiles(values: list[float]) -> dict:
    if not values:
        return {"median": None, "q10": None, "q90": None}
    arr = np.array(values)
    q10, med, q90 = np.quantile(arr, [0.1, 0.5, 0.9])
    return {"median": float(med), "q10": float(q10), "q90": float(q90)}


def aggregate_trials(results: list[TrialResult]) -> dict:
    good = [r for r in results if r.error is None]
    errors = [r.alignment_error for r in good]
    agg = {
        "trials": len(results),
        "aborted": len(results) - len(good),
        "alignment_error": _quantiles(errors),
        "residual_median": _median([r.residual for r in good]),
        "log_norm_median": _median([r.log_norm for r in good]),
        "envelope_failure_fraction": None,
        "envelope_slack_median": None,
        "check_failure_count": sum(
            1 for r in good if r.check_ok is False
        ),
    }
    if good:
        agg["envelope_failure_fraction"] = sum(
            1 for r in good if not r.within_envelope
        ) / len(good)
        agg["envelope_slack_median"] = _median(
            [math.exp(-r.beta / 200.0) for r in good]
        )
    return agg


def _median(values):
    vals = [v for v in values if v is not None]
    return float(np.median(vals)) if vals else None


def run(config: RunConfig, out_dir=None) -> dict:
    """Run all trials, aggregate, optionally persist artifacts.

    Returns the report as a plain dict (already JSON-safe). When an
    output directory resolves (argument, config, or the STREAMKPCA_OUT
    environment variable), each trial's requested trajectory CSV and
    check report are written there as soon as the trial ends (so memory
    does not grow with the trial count), and report.json last.
    """
    resolved = resolve_out_dir(out_dir if out_dir is not None else config.out_dir)
    if resolved is not None:
        resolved.mkdir(parents=True, exist_ok=True)
    results = []
    for t in range(config.trials):
        a = run_trial(config, t)
        results.append(a.result)
        if resolved is None:
            continue
        if a.trajectory is not None:
            base = resolved / f"trial_{t:03d}.csv"
            write_trajectory(base, a.trajectory)
            write_trajectory_meta(base, a.trajectory, a.result, a.x_star)
        if a.check_report is not None:
            _write_json(
                resolved / f"trial_{t:03d}.checks.json", a.check_report.to_dict()
            )
    n_stream = config.generator.n
    agg = aggregate_trials(results)
    agg["alpha_hypothesis_fraction"] = _fraction(
        results,
        lambda r: r.alpha is not None
        and n_stream > 1
        and r.alpha < 1.0 / (1000.0 * math.log(n_stream)),
    )
    agg["beta_hypothesis_fraction"] = _fraction(
        results,
        lambda r: r.beta is not None
        and config.feature_map.feature_dim > 1
        and r.beta >= 1000.0 * math.log(config.feature_map.feature_dim),
    )
    report = {
        "schema": REPORT_SCHEMA_ID,
        "config": _jsonable(config.to_dict()),
        "trials": [r.to_dict() for r in results],
        "aggregate": _jsonable(agg),
    }
    if resolved is not None:
        _write_json(resolved / "report.json", report)
    return report


def _fraction(results, pred) -> float | None:
    good = [r for r in results if r.error is None]
    if not good:
        return None
    return sum(1 for r in good if pred(r)) / len(good)


def sweep(config: RunConfig, ratios: list[float], out_dir=None) -> dict:
    """Run the same config across several target spectral ratios.

    Seeds are held fixed across ratios, so rows are paired comparisons:
    only lambda2 changes between them. Emits one row per ratio with the
    empirical ratio, the median alignment error, the log(d)/R reference
    bound and the fraction of trials meeting it.
    """
    if len(ratios) < 2:
        raise ConfigError("a sweep needs at least two target ratios")
    if any(r < 1.0 for r in ratios):
        raise ConfigError("target ratios must be >= 1")
    resolved = resolve_out_dir(out_dir if out_dir is not None else config.out_dir)
    d = config.generator.input_dim
    rows = []
    for target in ratios:
        generator = replace(
            config.generator, lambda2=config.generator.lambda1 / target
        )
        # Nothing is written, so only the checks need a recorded run.
        sub = replace(
            config, generator=generator, out_dir=None, save_trajectories=False
        )
        report = run(sub, out_dir=False)
        good = [t for t in report["trials"] if t["error"] is None]
        ratios_emp = [
            t["ratio"] for t in good if not isinstance(t["ratio"], str)
        ]
        bound = math.log(d) / target
        errors = [t["alignment_error"] for t in good]
        rows.append(
            {
                "r_target": target,
                "empirical_r_median": _median(ratios_emp),
                "median_alignment_error": _median(errors),
                "logd_over_r": bound,
                "bound_satisfied_fraction": (
                    sum(1 for e in errors if e <= bound) / len(errors)
                    if errors
                    else None
                ),
                "no_spike": target == 1.0,
                "aggregate": report["aggregate"],
            }
        )
    out = {
        "schema": "streamkpca-sweep/1",
        "config": _jsonable(config.to_dict()),
        "ratios": list(ratios),
        "rows": _jsonable(rows),
    }
    if resolved is not None:
        resolved.mkdir(parents=True, exist_ok=True)
        _write_json(resolved / "sweep.json", out)
        (resolved / "sweep.csv").write_bytes(sweep_csv(out).encode("utf-8"))
    return out


def sweep_csv(sweep_report: dict) -> str:
    cols = [
        "r_target",
        "empirical_r_median",
        "median_alignment_error",
        "logd_over_r",
        "bound_satisfied_fraction",
    ]
    lines = [",".join(cols)]
    for row in sweep_report["rows"]:
        lines.append(",".join(_format_cell(row[c]) for c in cols))
    return "\n".join(lines) + "\n"


def _format_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def resolve_out_dir(out_dir) -> Path | None:
    """None -> environment default -> nothing; False suppresses output."""
    if out_dir is False:
        return None
    if out_dir is not None:
        return Path(out_dir)
    env = os.environ.get(OUT_DIR_ENV)
    return Path(env) if env else None


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


# ---------------------------------------------------------------------------
# Trajectory persistence


def write_trajectory(path, traj: Trajectory) -> None:
    """Write the step columns as CSV; snapshots become vhat_* columns.

    Each cell is the text of Python's repr of the float64 (the shortest
    digits that round-trip), written linalg.BLOCK_ROWS rows at a time by
    one compiled pass per block (see _csv_rows), so the text of the
    whole file never exists at once.
    """
    header = list(TRAJECTORY_HEADER)
    columns = [traj.s, traj.phi_norm_sq, traj.log_ratio]
    if traj.snapshots is not None and traj.n > 0:
        header += [f"vhat_{k}" for k in range(traj.m)]
        columns.append(traj.snapshots[1:])
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("utf-8"))
        for start in range(0, traj.n, linalg.BLOCK_ROWS):
            block = np.column_stack(
                [c[start : start + linalg.BLOCK_ROWS] for c in columns]
            )
            fh.write(_csv_rows(block, start + 1))


# orjson prints the same shortest round-trip digits as repr but spells
# three kinds of number differently; these patterns rewrite them. Each
# starts with a literal, which keeps its search fast where nothing
# matches (a pattern starting with a lookbehind cost more per block than
# formatting the block with repr).
_ONE_DIGIT_EXPONENT = re.compile(rb"e-(\d)([,\n])")
_SMALL_POSITIVE = re.compile(rb",0\.0000(\d)(\d*)")
_SMALL_NEGATIVE = re.compile(rb",-0\.0000(\d)(\d*)")


def _csv_rows(block: np.ndarray, first_step: int) -> bytes:
    """CSV lines ``step,cell,...`` of a finite float64 block, numbered
    from first_step, each cell the bytes of repr(float(cell))."""
    doc = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY)
    text = b"".join(
        b"%d,%b\n" % line
        for line in enumerate(doc[2:-2].split(b"],["), first_step)
    )
    if b"e" in text:  # 1e16 -> 1e+16, 1e-7 -> 1e-07
        text = text.replace(b"e", b"e+").replace(b"e+-", b"e-")
        text = _ONE_DIGIT_EXPONENT.sub(rb"e-0\1\2", text)
    if b",0.0000" in text or b",-0.0000" in text:
        # [1e-5, 1e-4): 0.000015 -> 1.5e-05, 0.00003 -> 3.e-05 -> 3e-05
        text = _SMALL_POSITIVE.sub(rb",\1.\2e-05", text)
        text = _SMALL_NEGATIVE.sub(rb",-\1.\2e-05", text)
        text = text.replace(b".e-05", b"e-05")
    return text


def meta_path_for(path) -> Path:
    return Path(path).with_suffix(".meta.json")


def write_trajectory_meta(
    csv_path, traj: Trajectory, result: TrialResult, x_star
) -> None:
    meta = {
        "eta": traj.config.eta,
        "norm_bound": traj.config.norm_bound,
        "feature_map": traj.config.feature_map.to_dict(),
        "init": traj.init_kind,
        "init_v_hat": [float(v) for v in traj.init_v_hat],
        "init_log_norm": traj.init_log_norm,
        "seed": traj.seed,
        "n": traj.n,
        "m": traj.m,
        "alpha": result.alpha,
        "beta": result.beta,
        "v_star": [float(v) for v in x_star] if x_star is not None else None,
    }
    _write_json(meta_path_for(csv_path), _jsonable(meta))


def read_trajectory(csv_path) -> tuple[Trajectory, dict]:
    """Load a trajectory CSV plus its meta sidecar.

    Raises:
        TrajectoryParseError: malformed CSV; the message names the byte
            offset of the offending field.
        ConfigError: missing or malformed meta sidecar.
    """
    csv_path = Path(csv_path)
    meta_file = meta_path_for(csv_path)
    if not meta_file.exists():
        raise ConfigError(f"missing trajectory metadata: {meta_file}")
    try:
        meta = json.loads(meta_file.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"bad trajectory metadata: {exc}") from exc
    _validate_meta(meta, meta_file)

    init_v_hat = np.array(meta["init_v_hat"], dtype=np.float64)
    try:
        steps, snapshots = _parse_trajectory_csv(csv_path, init_v_hat)
    except (TrajectoryParseError, ConfigError, UnicodeDecodeError):
        # Invalid UTF-8 anywhere in the file is reported first, located
        # by a scan of the raw lines.
        with closing(_raw_lines(csv_path)) as lines:
            for line_start, raw in lines:
                _decode_line(raw, line_start)
        raise

    # NaN or inf anywhere: the arrays find the first such row, and only
    # that row is read and split again to locate the field.
    finite = np.isfinite(steps).all(axis=0)
    if snapshots is not None:
        finite &= np.isfinite(snapshots[1:]).all(axis=1)
    if not finite.all():
        row_idx = int(np.argmin(finite)) + 1
        line_start, line = _line_at(csv_path, row_idx)
        cells = line.split(",")
        j = next(j for j in range(1, len(cells)) if not math.isfinite(float(cells[j])))
        raise TrajectoryParseError(
            f"non-finite field {cells[j]!r} at byte "
            f"{_byte_offset(line_start, line, j)}"
        )

    try:
        feature_map = FeatureMapSpec.from_dict(meta["feature_map"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(
            f"bad trajectory metadata {meta_file.name}: key 'feature_map': "
            f"{exc}"
        ) from exc
    config = OjaConfig(
        eta=float(meta["eta"]),
        feature_map=feature_map,
        record_trajectory=True,
        snapshots=snapshots is not None,
        norm_bound=meta.get("norm_bound"),
    )
    traj = Trajectory(
        config=config,
        init_kind=meta["init"],
        init_v_hat=init_v_hat,
        init_log_norm=float(meta.get("init_log_norm", 0.0)),
        s=steps[0],
        phi_norm_sq=steps[1],
        log_ratio=steps[2],
        snapshots=snapshots,
        seed=int(meta.get("seed", 0)),
    )
    return traj, meta


def _parse_trajectory_csv(
    csv_path: Path, init_v_hat: np.ndarray
) -> tuple[np.ndarray, np.ndarray | None]:
    """Fill the (3, n) step array and the (n+1, m) snapshots, or None.

    The file is read linalg.BLOCK_ROWS lines at a time into arrays
    preallocated from a line count, so the parse holds no more than the
    arrays and one block. Each block is parsed by _parse_block, or, where
    that cannot vouch for its result, by the line loop _parse_lines,
    which defines the format and raises every error. Snapshot row 0 is
    init_v_hat. Every malformed field but a non-finite number raises
    here; a line's byte offset is found only then.

    Raises:
        UnicodeDecodeError: invalid UTF-8, at an offset within a line.
    """
    n_lines = _count_lines(csv_path)
    if n_lines == 0:
        raise TrajectoryParseError("empty trajectory file at byte 0")
    # Lines split on "\n" only; a "\r" stays part of its field.
    with open(csv_path, "rb") as fh:
        header_line = fh.readline().decode("utf-8").removesuffix("\n")
        header = header_line.split(",")
        width = len(TRAJECTORY_HEADER)
        if header[:width] != TRAJECTORY_HEADER:
            raise TrajectoryParseError(
                f"bad header at byte 0: expected {','.join(TRAJECTORY_HEADER)}"
            )
        for k, name in enumerate(header[width:]):
            if name != f"vhat_{k}":
                raise TrajectoryParseError(
                    f"bad snapshot column {name!r} at byte "
                    f"{_byte_offset(0, header_line, width + k)}"
                )
        m_cols = len(header) - width
        if m_cols and init_v_hat.shape[0] != m_cols:
            raise ConfigError("metadata init vector does not match snapshot width")

        n = n_lines - 1
        steps = np.empty((width - 1, n))
        snapshots = np.empty((n + 1, m_cols)) if m_cols else None
        if snapshots is not None:
            snapshots[0] = init_v_hat
        first = 1
        while lines := list(itertools.islice(fh, linalg.BLOCK_ROWS)):
            values = _parse_block(lines, first, len(header))
            if values is None:
                values = _parse_lines(csv_path, lines, first, len(header))
            stop = first + len(lines)
            steps[:, first - 1 : stop - 1] = values[:, : width - 1].T
            if snapshots is not None:
                snapshots[first:stop] = values[:, width - 1 :]
            first = stop
    return steps, snapshots


def _parse_lines(
    csv_path: Path, lines: list[bytes], first_row: int, n_fields: int
) -> np.ndarray:
    """The (len(lines), n_fields - 1) values of data rows first_row, ...

    This loop is the CSV format's definition: a row is n_fields cells,
    the step int(cell) equal to the row's number, every other cell a
    float(cell). A malformed row raises with its byte offset.
    """
    values = np.empty((len(lines), n_fields - 1))
    for i, raw in enumerate(lines):
        row_idx = first_row + i
        cells = raw.decode("utf-8").removesuffix("\n").split(",")
        if len(cells) != n_fields:
            line_start, _ = _line_at(csv_path, row_idx)
            raise TrajectoryParseError(
                f"row {row_idx} at byte {line_start}: "
                f"expected {n_fields} fields, found {len(cells)}"
            )
        try:
            step = int(cells[0])
            values[i] = list(map(float, cells[1:]))
        except ValueError:
            _raise_on_unparseable(*_line_at(csv_path, row_idx))
        if step != row_idx:
            line_start, _ = _line_at(csv_path, row_idx)
            raise TrajectoryParseError(
                f"non-consecutive step index at byte {line_start}"
            )
    return values


# The bytes the writer puts in a data row, plus the brackets that frame
# a block as JSON: a document of these holds only numbers and arrays.
_BLOCK_BYTES = b"0123456789.e+-,\n[]"
# orjson reads the cell -0 as the int 0, where float() reads -0.0.
_NEGATIVE_ZERO_CELL = re.compile(rb"-0[,\n\]]")


def _parse_block(
    lines: list[bytes], first_row: int, n_fields: int
) -> np.ndarray | None:
    """_parse_lines' result for the same lines from one orjson parse, or
    None where that parse cannot be shown to equal it.

    The lines are framed as one JSON array of rows. Its result stands
    when the document holds only the writer's bytes and brackets, parses
    to k = len(lines) rows of n_fields numbers, has no cell -0, and its
    step cells are the ints first_row, first_row + 1, ... Then no line
    held a bracket (k rows of numbers take exactly the k + 1 opening
    brackets of the frame), every cell is a JSON number, which is a
    float() literal that orjson rounds to the same float64, and every
    step is an int() literal. Anything else, every malformed row
    included, is left to _parse_lines.
    """
    framed = [b"[[" + lines[0], *lines[1:]]
    framed[-1] += b"]]"
    doc = b"],[".join(framed)
    if doc.translate(None, _BLOCK_BYTES):
        return None
    try:
        rows = orjson.loads(doc)
        block = np.array(rows, dtype=np.float64)
    except ValueError:  # not JSON, or rows of unequal shape
        return None
    if block.shape != (len(lines), n_fields):
        return None
    if not block.all() and _NEGATIVE_ZERO_CELL.search(doc):
        return None
    row_steps = [row[0] for row in rows]
    if row_steps != list(range(first_row, first_row + len(lines))) or not all(
        type(step) is int for step in row_steps
    ):
        return None
    return block[:, 1:]


def _count_lines(path: Path) -> int:
    """Lines of a file split on newlines, not counting an empty last one."""
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


def _raw_lines(path: Path):
    """Yield (byte offset, bytes with newline) for each line of a file."""
    line_start = 0
    with open(path, "rb") as fh:
        for raw in fh:
            yield line_start, raw
            line_start += len(raw)


def _decode_line(raw: bytes, line_start: int) -> str:
    """A line read from the file, decoded, without its newline."""
    try:
        line = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TrajectoryParseError(
            f"invalid UTF-8 at byte {line_start + exc.start}"
        ) from exc
    return line[:-1] if line.endswith("\n") else line


def _line_at(path: Path, row_idx: int) -> tuple[int, str]:
    """(byte offset, decoded text) of line row_idx of a valid file."""
    with closing(_raw_lines(path)) as lines:
        line_start, raw = next(itertools.islice(lines, row_idx, None))
    return line_start, _decode_line(raw, line_start)


def _byte_offset(line_start: int, line: str, j: int) -> int:
    """Byte offset of field j of a line that starts at byte line_start."""
    before = ",".join(line.split(",")[:j])
    return line_start + len(before.encode("utf-8")) + (1 if j > 0 else 0)


def _raise_on_unparseable(line_start: int, line: str) -> NoReturn:
    """Raise on the first field of a row that does not parse."""
    for j, cell in enumerate(line.split(",")):
        try:
            int(cell) if j == 0 else float(cell)
        except ValueError:
            raise TrajectoryParseError(
                f"unparseable field {cell!r} at byte "
                f"{_byte_offset(line_start, line, j)}"
            ) from None


def _is_finite_number(v) -> bool:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def _is_nonnegative_number(v) -> bool:
    return _is_finite_number(v) and v >= 0


def _is_finite_vector(v) -> bool:
    return isinstance(v, list) and all(_is_finite_number(x) for x in v)


def _nullable(test):
    return lambda v: v is None or test(v)


# Meta sidecar key -> (required, test, what the test accepts).
_META_KEYS = {
    "eta": (
        True,
        lambda v: _is_finite_number(v) and 0.0 < v < 0.1,
        "a number strictly inside (0, 0.1)",
    ),
    "feature_map": (True, lambda v: isinstance(v, dict), "an object"),
    "init": (True, lambda v: v in ("random", "vstar"), "'random' or 'vstar'"),
    "init_v_hat": (True, _is_finite_vector, "a list of finite numbers"),
    "init_log_norm": (False, _is_finite_number, "a finite number"),
    "seed": (
        False,
        lambda v: isinstance(v, int) and not isinstance(v, bool),
        "an integer",
    ),
    "norm_bound": (False, _nullable(_is_finite_number), "null or finite"),
    "alpha": (False, _nullable(_is_nonnegative_number), "null or finite >= 0"),
    "beta": (False, _nullable(_is_nonnegative_number), "null or finite >= 0"),
    "v_star": (
        False,
        _nullable(_is_finite_vector),
        "null or a list of finite numbers",
    ),
}


def _validate_meta(meta, meta_file: Path) -> None:
    """Reject a sidecar with a missing or mistyped key, naming the key."""
    where = f"bad trajectory metadata {meta_file.name}"
    if not isinstance(meta, dict):
        raise ConfigError(f"{where}: expected a JSON object")
    for key, (required, test, accepts) in _META_KEYS.items():
        if key not in meta:
            if required:
                raise ConfigError(f"{where}: missing key {key!r}")
            continue
        if not test(meta[key]):
            raise ConfigError(
                f"{where}: key {key!r} must be {accepts}, "
                f"got {reprlib.repr(meta[key])}"
            )


def check_trajectory_file(csv_path) -> CheckReport:
    """Load a persisted trajectory and run the full invariant suite."""
    traj, meta = read_trajectory(csv_path)
    if any(meta.get(k) is None for k in ("v_star", "alpha", "beta")):
        raise ConfigError("trajectory metadata lacks v_star/alpha/beta")
    v_star = np.array(meta["v_star"], dtype=np.float64)
    try:
        return run_all_checks(
            traj, v_star, float(meta["alpha"]), float(meta["beta"])
        )
    except OverflowError as exc:
        # Of the sidecar's values, only alpha can overflow a check: the
        # energy budget squares it and raises if that is not finite.
        raise ConfigError(
            f"bad trajectory metadata {meta_path_for(csv_path).name}: "
            f"key 'alpha' overflows the certificate: {exc}"
        ) from exc
