import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import streamkpca.harness as harness
from streamkpca import checks, linalg, trajectory
from streamkpca.checks import envelope, envelope_slack, run_all_checks
from streamkpca.cli import build_parser, config_from_args, main
from streamkpca.config import ConfigError, RunConfig, check_target_ratio
from streamkpca.datagen import SpikedSpec, make_spiked_stream
from streamkpca.featuremaps import FeatureMapSpec
from streamkpca.harness import check_trajectory_file, run, run_trial, sweep
from streamkpca.oja import (
    NumericError,
    OjaConfig,
    init_state,
    init_state_at,
    oja_step,
    select_learning_rate,
)
from streamkpca.spectral import compute_alpha_beta, summarize
from streamkpca.trajectory import (
    STEP_COLUMNS,
    Trajectory,
    TrajectoryParseError,
    read_trajectory,
    write_trajectory,
)

from schema_util import validate

SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "docs" / "run_report.schema.json").read_text()
)


# The at-v* run the sidecar and truncation probes edit.
PROBE_RUN = [
    "run", "--phi", "identity", "--dim", "4", "--n", "300", "--init", "vstar",
    "--seed", "3", "--check",
]


def small_config(**kw):
    base = dict(
        feature_map=FeatureMapSpec.identity(4),
        generator=SpikedSpec(
            input_dim=4,
            n=120,
            lambda1=1.0,
            lambda2=0.05,
            tail_decay=1.0,
            basis_seed=5,
            sample_seed=50,
        ),
        init="vstar",
        trials=2,
        run_checks=True,
    )
    base.update(kw)
    return RunConfig(**base)


# Floats at the edges of how a float is spelled: signed zeros, the
# smallest subnormal and normal, the largest float, and both ends of the
# [1e-4, 1e16) range repr writes without an exponent, with values just
# outside it. The negated maximum keeps a cumulative log norm finite.
EXTREME_CELLS = [
    0.0,
    -0.0,
    5e-324,
    2.2250738585072014e-308,
    1.7976931348623157e308,
    -1.7976931348623157e308,
    1e-05,
    9.999999999999999e-05,
    1e-04,
    1e16,
    9999999999999998.0,
    -1.5e-05,
]


# Cells that JSON and float() or int() read differently, or that only
# one of them accepts: -0 is the int 0 to JSON, a quoted number is a
# string, 1.0 is no int() literal, null, true and brackets are JSON
# tokens, and float() alone takes 1_0, +1, .5, 1., inf, nan, 1e400, 1E5
# and surrounding spaces.
JSON_EDGE_CELLS = [
    "-0",
    '"1.5"',
    "1.0",
    "null",
    "true",
    "[",
    "]",
    "1],[2",
    "1_0",
    "+1",
    ".5",
    "1.",
    "inf",
    "nan",
    "1e400",
    "1E5",
    " 1",
    "-0.0",
    "1e-0",
]
# The JSON_EDGE_CELLS that the trajectory grammar takes; it takes no
# other edge cell anywhere.
GRAMMAR_EDGE_CELLS = {"-0", "1.0", "-0.0", "1e-0"}


@st.composite
def json_numbers(draw) -> str:
    """Any JSON number, with mantissas of up to 60 digits."""
    digits = st.text("0123456789", min_size=1, max_size=30)
    text = draw(st.sampled_from(["", "-"])) + str(draw(st.integers(0, 10**30)))
    if draw(st.booleans()):
        text += "." + draw(digits)
    if draw(st.booleans()):
        text += "e" + draw(st.sampled_from(["", "+", "-"])) + draw(digits)[:4]
    return text


@st.composite
def averaged_lists(draw) -> list[float]:
    """1 to 39 floats of magnitude up to 1e300, with ties, whose zeros
    share one sign: where 0.0 and -0.0 tie, the sort picks the sign."""
    finite = st.floats(-1e300, 1e300)
    pool = draw(st.lists(finite, min_size=1, max_size=4))
    values = draw(
        st.lists(finite | st.sampled_from(pool), min_size=1, max_size=39)
    )
    zero = draw(st.sampled_from([0.0, -0.0]))
    return [zero if v == 0 else v for v in values]


def read_whole(csv_path) -> Trajectory:
    """read_trajectory's trajectory with every row read, as an in-memory
    Trajectory."""
    traj = read_trajectory(csv_path)
    rows = [np.concatenate(([0.0, 0.0, 0.0], traj.init_v_hat))[None, :]]
    rows += [unit[1:].copy() for unit in traj.units()]
    return Trajectory(traj.config, np.concatenate(rows), traj.seed)


def save(csv_path, traj, **oracle):
    """write_trajectory of an in-memory trajectory, its table one unit,
    with the oracle given, else v* = the start and alpha = beta = 0."""
    oracle = oracle or dict(v_star=traj.table[0, 3:], alpha=0.0, beta=0.0)
    with write_trajectory(csv_path, traj, **oracle) as write:
        write(traj.table)


def read_outcome(csv_path, block_rows: int):
    """The data cells read_whole returns, as the bytes of an
    (n, 3 + m) float64 table, or its error's type and text, with
    linalg.BLOCK_ROWS = block_rows."""
    with mock.patch.object(linalg, "BLOCK_ROWS", block_rows):
        try:
            traj = read_whole(csv_path)
        except (TrajectoryParseError, ConfigError) as exc:
            return type(exc), str(exc)
    return traj.table[1:].tobytes()


def expected_read(csv_path, table: np.ndarray, eta: float):
    """read_outcome's result for a file of table's rows beside a sidecar
    of alpha = beta = 0: the table's bytes, or, where eta times the sum
    of its phi_norm_sq column is below 0, no run's, the refusal that
    ends the pass."""
    with np.errstate(over="ignore", invalid="ignore"):
        most = eta * float(np.cumsum(table[:, 1])[-1])
    if not 0.0 > most * (1.0 + 1e-9):
        return table.tobytes()
    return ConfigError, (
        f"bad trajectory metadata {trajectory.meta_path_for(csv_path).name}: "
        f"key 'alpha' + key 'beta' = 0.0 exceeds key 'eta' * sum(phi_norm_sq) "
        f"= {most!r}, the most a run gives"
    )


def blocked_read_outcome(csv_path):
    """read_outcome's result, which must not depend on the block size."""
    first, *others = (read_outcome(csv_path, rows) for rows in (1, 7, 256))
    assert all(other == first for other in others)
    return first


def cell_offset(raw: bytes, row: int, j: int) -> int:
    """Byte offset of field j of line row (0 is the header) of raw."""
    lines = raw.split(b"\n")
    before = b",".join(lines[row].split(b",")[:j])
    return len(b"\n".join(lines[:row])) + 1 + len(before) + (j > 0)


def extreme_table(n: int, width: int, cells=EXTREME_CELLS) -> np.ndarray:
    """An (n, width) table cycling through cells, shifted by one per
    column, so every column holds every cell once n >= their count."""
    i, j = np.indices((n, width))
    return np.array(cells)[(i + j) % len(cells)]


# Tables for the writer. repr spells a zero or a magnitude in
# [1e-4, 1e16) as a plain decimal and every other cell with an exponent;
# orjson switches form at other magnitudes (0.00001, 1e16), so cells on
# both sides of that range are where a spelling could go wrong.
PLAIN_TABLE = np.array(
    [[0.0, -0.0, 1e-4, 9999999999999998.0], [-1e-4, 0.5, -2.5e15, 12345.678]]
)
SPECIAL_CELLS = [1e-05, -3e-300, 1e16, -1.5e300, 5e-324, -9.9e-05, 2e22]
EDGE_CELLS = [
    np.nextafter(1e-4, 0.0),
    -np.nextafter(1e-4, 0.0),
    np.nextafter(1e16, math.inf),
    -np.nextafter(1e16, math.inf),
]
ROW_ENDS_TABLE = np.array(
    [
        [1e-05, 1.0, 2.0, 3.0, 4e20],
        [0.5, 0.25, -1.0, 2.0, 3.0],
        [-7e300, 0.5, 0.25, 1.0, -2e-07],
    ]
)


def trajectory_of(table: np.ndarray) -> Trajectory:
    """A trajectory whose steps are table's rows: s, phi_norm_sq,
    log_ratio, then the direction after the step."""
    m = table.shape[1] - 3
    # The reader holds the start to unit length.
    start = np.concatenate(([0.0, 0.0, 0.0], np.eye(m)[0]))
    return Trajectory(
        config=OjaConfig(
            eta=0.01,
            feature_map=FeatureMapSpec.identity(m),
        ),
        table=np.vstack([start, table]),
    )


class TestRunConfig:
    def test_round_trip_identity(self, tmp_path):
        cfg = small_config(eta_policy=0.002, init="random")
        path = tmp_path / "config.json"
        cfg.save(path)
        loaded = RunConfig.load(path)
        assert loaded == cfg
        assert loaded.to_dict() == cfg.to_dict()

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError):
            small_config(feature_map=FeatureMapSpec.identity(5))

    def test_bad_init(self):
        with pytest.raises(ConfigError):
            small_config(init="midpoint")

    def test_bad_trials(self):
        with pytest.raises(ConfigError):
            small_config(trials=0)

    def test_bad_eta_policy(self):
        with pytest.raises(ConfigError):
            small_config(eta_policy="fast")
        with pytest.raises(ConfigError):
            small_config(eta_policy=-0.5)

    @pytest.mark.parametrize("eta", [math.nan, math.inf])
    def test_non_finite_eta_policy(self, eta):
        with pytest.raises(ConfigError, match=f"got {eta!r}"):
            small_config(eta_policy=eta)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("run_checks", "false"),
            ("save_trajectories", "no"),
            ("save_trajectories", 0),
            ("trials", 2.9),
            ("trials", "2"),
            ("trials", True),
            ("eta_policy", True),
            ("eta_policy", "0.01"),
            ("out_dir", 5),
        ],
    )
    def test_mistyped_config_key(self, key, value):
        # out_dir and save_trajectories are no config keys: unknown.
        raw = small_config().to_dict()
        refusal = f"key '{key}' must be" if key in raw else f"unknown key '{key}'"
        raw[key] = value
        with pytest.raises(ConfigError, match=f"^bad config: {refusal}"):
            RunConfig.from_dict(raw)

    def test_bad_config_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"feature_map": ')
        with pytest.raises(ConfigError) as err:
            RunConfig.load(path)
        assert "line" in str(err.value)


class TestRun:
    def test_report_matches_schema(self, tmp_path):
        report = run(small_config(), out_dir=tmp_path / "out")
        validate(report, SCHEMA)

    def test_quantiles_monotone_and_errors_bounded(self, tmp_path):
        report = run(small_config(trials=6, init="random"))
        agg = report["aggregate"]["alignment_error"]
        assert agg["q10"] <= agg["median"] <= agg["q90"]
        for t in report["trials"]:
            assert 0.0 <= t["alignment_error"] <= 1.0

    @settings(max_examples=300, deadline=None)
    @given(values=averaged_lists())
    def test_quantiles_and_median_are_numpys(self, values):
        q = harness._quantiles(values)
        got = [q["q10"], q["median"], q["q90"]]
        assert all(type(v) is float for v in got)
        expected = np.quantile(np.array(values), [0.1, 0.5, 0.9])
        assert np.array(got).tobytes() == expected.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        columns=st.integers(1, 8).flatmap(
            lambda count: st.lists(
                st.lists(st.floats(0.0, 1e6), min_size=count, max_size=count),
                min_size=5,
                max_size=5,
            )
        )
    )
    # Two values whose mean np.median and np.quantile round apart.
    @example(columns=[[0.6776830036027994, 32.569344511099416]] * 5)
    def test_every_median_is_numpys_quantile(self, columns):
        # Each median field of the aggregate and of a sweep row, for odd
        # and even trial counts: np.quantile(values, 0.5), bit for bit.
        errors, residuals, log_norms, betas, ratios = (
            [min(v, 1.0) for v in columns[0]], *columns[1:]
        )
        results = [
            harness.TrialResult(
                trial=k, sample_seed=k, init_seed=None, alignment_error=e,
                residual=r, log_norm=log_norm, alpha=0.0, beta=beta,
                within_envelope=True,
            )
            for k, (e, r, log_norm, beta) in enumerate(
                zip(errors, residuals, log_norms, betas)
            )
        ]
        agg = harness.aggregate_trials(results, n=100, m=4)
        trials = [{"error": None, "ratio": ratio} for ratio in ratios]
        fake = {"trials": trials, "aggregate": {}}
        with mock.patch.object(harness, "run", lambda config: fake):
            row = sweep(small_config(), [2.0, 5.0])["rows"][0]
        slacks = [envelope_slack(beta) for beta in betas]
        for got, values in (
            (agg["alignment_error"]["median"], errors),
            (agg["residual_median"], residuals),
            (agg["log_norm_median"], log_norms),
            (agg["envelope_slack_median"], slacks),
            (row["empirical_r_median"], ratios),
        ):
            assert type(got) is float
            assert np.float64(got).tobytes() == np.quantile(values, 0.5).tobytes()

    def test_cli_leaves_numpy_ma_unimported(self, tmp_path):
        # np.quantile and np.median import numpy.ma, which costs a run
        # and a sweep process about 15 ms and is otherwise unused.
        script = (
            "import sys\n"
            "from streamkpca.cli import main\n"
            "args = ['--phi', 'identity', '--dim', '4', '--n', '200',"
            " '--trials', '3', '--check']\n"
            "assert main(['run', *args, '--out', sys.argv[1]]) == 0\n"
            "assert main(['sweep', *args, '--ratios', '5,20',"
            " '--out', sys.argv[2]]) == 0\n"
            "assert 'numpy.ma' not in sys.modules\n"
        )
        src = str(Path(harness.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "run"),
             str(tmp_path / "sweep")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr

    def test_identical_configs_identical_reports(self):
        r1 = run(small_config())
        r2 = run(small_config())
        assert r1 == r2

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--dim", "4", "--n", "300", "--trials", "2", "--check"],
            ["sweep", "--dim", "4", "--n", "300", "--trials", "2", "--ratios", "5,20"],
        ],
        ids=["run", "sweep"],
    )
    def test_files_do_not_depend_on_where_they_are_written(
        self, tmp_path, monkeypatch, argv
    ):
        # The output directory is not the experiment's: report.json and
        # sweep.json do not record it.
        monkeypatch.chdir(tmp_path)
        dirs = [Path("a"), tmp_path / "elsewhere" / "b"]
        for out in dirs:
            assert main([*argv, "--out", str(out)]) == 0
        names = sorted(p.name for p in dirs[0].iterdir())
        assert names == sorted(p.name for p in dirs[1].iterdir())
        assert ("report.json" if argv[0] == "run" else "sweep.json") in names
        for name in names:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_trials_use_distinct_seeds(self):
        report = run(small_config(trials=3, init="random"))
        seeds = [t["sample_seed"] for t in report["trials"]]
        assert len(set(seeds)) == 3

    def test_population_alignment_only_for_identity(self):
        report = run(small_config(trials=1))
        assert report["trials"][0]["alignment_error_population"] is not None
        rff_cfg = small_config(
            trials=1,
            feature_map=FeatureMapSpec.rff(4, 16, 1.0, 9),
        )
        report = run(rff_cfg)
        assert report["trials"][0]["alignment_error_population"] is None

    def test_numeric_abort_recorded(self, monkeypatch):
        def boom(*args, **kwargs):
            raise NumericError("synthetic abort")

        monkeypatch.setattr(harness, "run_stream", boom)
        report = run(small_config(trials=2, run_checks=False))
        assert report["aggregate"]["aborted"] == 2
        assert all(t["error"] == "synthetic abort" for t in report["trials"])
        validate(report, SCHEMA)

    def test_aborted_pass_writes_nothing(self, tmp_path, monkeypatch):
        # The pass hands its readers a unit of 100 steps, then aborts:
        # the partial CSV is deleted, and no sidecar or check report is
        # written. The report records the abort, and the CLI exits 3
        # when every trial aborts.
        real_run_stream = harness.run_stream
        handed = []

        def abort_after_a_unit(xs, cfg, init, *, into=()):
            real_run_stream(np.asarray(xs)[:100], cfg, init, into=[*into, handed.append])
            raise NumericError("synthetic abort")

        monkeypatch.setattr(harness, "run_stream", abort_after_a_unit)
        out = tmp_path / "out"
        report = run(small_config(trials=2), out_dir=out)
        assert len(handed) == 2
        assert report["aggregate"]["aborted"] == 2
        assert all(t["error"] == "synthetic abort" for t in report["trials"])
        assert [p.name for p in out.iterdir()] == ["report.json"]
        cli_out = tmp_path / "cli"
        argv = ["run", "--dim", "4", "--n", "300", "--trials", "2", "--check",
                "--save-trajectories", "--out", str(cli_out)]
        assert main(argv) == 3
        assert len(handed) == 4
        assert [p.name for p in cli_out.iterdir()] == ["report.json"]

    def test_hypothesis_fractions_count_trials_without_error(self):
        met = harness.TrialResult(
            trial=0, sample_seed=0, init_seed=None, alpha=1e-6, beta=1e5,
            alignment_error=0.1, within_envelope=True,
        )
        unmet = dataclasses.replace(met, trial=1, alpha=0.5, beta=1.0)
        aborted = harness.TrialResult(trial=2, sample_seed=2, init_seed=None, error="x")
        agg = harness.aggregate_trials([met, unmet, aborted], n=1000, m=8)
        assert agg["alpha_hypothesis_fraction"] == agg["beta_hypothesis_fraction"] == 0.5
        agg = harness.aggregate_trials([aborted], n=1000, m=8)
        assert agg["alpha_hypothesis_fraction"] is agg["beta_hypothesis_fraction"] is None

    def test_envelope_fraction_counts_envelopes_below_one(self):
        # A unit vector's residual is at most 1: a trial whose envelope
        # is 1 or more cannot fail it, so the fraction leaves it out.
        below = harness.TrialResult(
            trial=0, sample_seed=0, init_seed=0, alpha=1e-4, beta=100.0,
            alignment_error=0.1, within_envelope=True,
        )
        above = dataclasses.replace(below, trial=1, alpha=0.5, within_envelope=False)
        assert envelope(below.alpha, below.beta) < 1.0 <= envelope(above.alpha, above.beta)
        failed = dataclasses.replace(below, trial=2, within_envelope=False)
        aborted = harness.TrialResult(trial=3, sample_seed=3, init_seed=3, error="x")
        for results, fraction in [
            ([below, above, aborted], 0.0),
            ([below, failed, above], 0.5),
            ([above, aborted], None),
        ]:
            agg = harness.aggregate_trials(results, n=1000, m=8)
            assert agg["envelope_failure_fraction"] == fraction

    def test_library_ignores_env_var(self, tmp_path, monkeypatch):
        # Only the CLI reads STREAMKPCA_OUT; the library writes where it
        # is told, and nowhere else.
        monkeypatch.setenv("STREAMKPCA_OUT", str(tmp_path / "envout"))
        monkeypatch.chdir(tmp_path)
        run(small_config(trials=1))
        sweep(small_config(trials=1), [4.0, 40.0])
        assert list(tmp_path.iterdir()) == []

    def test_trial_files_written_when_the_trial_ends(self, tmp_path, monkeypatch):
        present = []
        real_run_trial = harness.run_trial

        def spy(config, trial, csv_path):
            present.append(sorted(p.name for p in tmp_path.iterdir()))
            return real_run_trial(config, trial, csv_path)

        monkeypatch.setattr(harness, "run_trial", spy)
        run(small_config(trials=2), out_dir=tmp_path)
        assert present == [
            [],
            ["trial_000.checks.json", "trial_000.csv", "trial_000.meta.json"],
        ]
        assert (tmp_path / "report.json").exists()

    def test_no_output_without_destination(self, tmp_path, monkeypatch):
        monkeypatch.delenv("STREAMKPCA_OUT", raising=False)
        monkeypatch.chdir(tmp_path)
        run(small_config(trials=1))
        assert list(tmp_path.iterdir()) == []


class TestTrajectoryFiles:
    @pytest.fixture()
    def saved(self, tmp_path):
        cfg = small_config(trials=1)
        csv_path = tmp_path / "traj.csv"
        art = run_trial(cfg, 0, csv_path)
        return csv_path, art

    @pytest.mark.parametrize("n", [0, 1, 120])
    def test_round_trip(self, tmp_path, n):
        rng = np.random.default_rng(n)
        cfg = OjaConfig(eta=0.01, feature_map=FeatureMapSpec.identity(4))
        traj = Trajectory.record(
            rng.standard_normal((n, 4)), cfg, init_state(4, 3), seed=17
        )
        self._assert_round_trip(tmp_path, traj, n)
        # The same shape again, every cell one of the extreme floats.
        table = extreme_table(n, 3 + traj.m)
        self._assert_round_trip(
            tmp_path,
            dataclasses.replace(traj, table=np.vstack([traj.table[:1], table])),
            n,
        )

    def _assert_round_trip(self, tmp_path, traj, n):
        csv_path = tmp_path / "traj.csv"
        save(csv_path, traj)
        # Reads whose blocks split the rows every which way.
        for block_rows in (1, 7, 256):
            with mock.patch.object(linalg, "BLOCK_ROWS", block_rows):
                loaded = read_whole(csv_path)
            assert loaded.n == traj.n == n
            assert loaded.config.eta == traj.config.eta
            assert loaded.seed == traj.seed
            assert loaded.table.tobytes() == traj.table.tobytes()

    def test_writer_leaves_no_file_of_a_short_run(self, tmp_path):
        traj = trajectory_of(PLAIN_TABLE)
        with pytest.raises(ValueError, match="wrote 1 steps of a run of n = 2"):
            with write_trajectory(
                tmp_path / "short.csv", traj, v_star=np.eye(traj.m)[0], alpha=0.0, beta=0.0
            ) as write:
                write(traj.table[:2])
        assert list(tmp_path.iterdir()) == []

    @settings(max_examples=200, deadline=None)
    @given(
        table=hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 9), st.integers(4, 12)),
            elements=st.floats(allow_nan=False, allow_infinity=False),
        ),
        block_rows=st.sampled_from([1, 4, 256]),
    )
    @example(table=extreme_table(12, 12), block_rows=5)
    @example(table=extreme_table(12, 4), block_rows=256)
    @example(table=extreme_table(1, 15), block_rows=256)
    # No cell outside [1e-4, 1e16).
    @example(table=PLAIN_TABLE, block_rows=256)
    # Every cell outside it.
    @example(table=extreme_table(5, 7, SPECIAL_CELLS), block_rows=2)
    # The floats next to both ends of the range.
    @example(table=extreme_table(4, 4, EDGE_CELLS), block_rows=256)
    @example(table=extreme_table(4, 5, EDGE_CELLS), block_rows=1)
    # Cells outside it first and last in a row, at the line's start and
    # beside the newline, in the first and the last row of the file.
    @example(table=ROW_ENDS_TABLE, block_rows=256)
    def test_cells_round_trip(self, tmp_path_factory, table, block_rows):
        csv_path = tmp_path_factory.getbasetemp() / "round_trip.csv"
        traj = trajectory_of(table)
        with mock.patch.object(linalg, "BLOCK_ROWS", block_rows):
            save(csv_path, traj)
        header, *lines = csv_path.read_text(encoding="utf-8").split("\n")
        assert header == ",".join(
            [*STEP_COLUMNS, *(f"vhat_{k}" for k in range(traj.m))]
        )
        assert lines.pop() == ""
        assert len(lines) == len(table)
        for line, row in zip(lines, table):
            # float() gives back each cell's bits, -0.0 included.
            cells = line.split(",")
            assert np.array(list(map(float, cells))).tobytes() == row.tobytes()
        # The reader takes every spelling the writer makes, to the same bits.
        expected = expected_read(csv_path, table, traj.config.eta)
        assert read_outcome(csv_path, block_rows) == expected

    @pytest.mark.parametrize(
        "oracle, message",
        [
            (
                dict(v_star=[2.0, 0.0, 0.0]),
                f"key 'v_star' must have unit norm, within {linalg.UNIT_NORM_TOL!r}",
            ),
            (dict(alpha=-0.5), "key 'alpha' must be finite >= 0, got -0.5"),
            (dict(v_star=[1.0, 0.0]), "key 'v_star' gives width 2, key 'init_v_hat' 3"),
        ],
    )
    def test_writer_refuses_a_sidecar_check_refuses(self, tmp_path, oracle, message):
        # Held to read_trajectory's rules before the CSV is opened: the
        # refusal names the key and leaves no file.
        cfg = OjaConfig(eta=0.01, feature_map=FeatureMapSpec.identity(3))
        xs = np.random.default_rng(2).standard_normal((40, 3))
        traj = Trajectory.record(xs, cfg, init_state(3, 5), seed=2)
        oracle = dict(v_star=[1.0, 0.0, 0.0], alpha=0.0, beta=0.0) | oracle
        with pytest.raises(ConfigError) as err:
            with write_trajectory(tmp_path / "traj.csv", traj, **oracle) as write:
                write(traj.table)
        assert str(err.value) == f"bad trajectory metadata traj.meta.json: {message}"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_writer_refuses_non_finite_cell(self, bad):
        # Trajectory refuses such a column, so the writer is called directly.
        block = extreme_table(4, 6)
        block[2, 5] = block[3, 0] = bad
        with pytest.raises(ValueError, match=f"{bad!r} at step 12, column 5$"):
            trajectory._csv_rows(block, 10)

    def test_writer_leaves_its_block_unchanged(self):
        block = extreme_table(12, 12)
        before = block.copy()
        trajectory._csv_rows(block, 1)
        assert block.tobytes() == before.tobytes()

    @pytest.mark.parametrize("m", [3, 300])
    def test_writer_chunks_write_the_bytes_of_whole_blocks(self, tmp_path, m):
        # The writer's orjson calls take fewer rows than a block at
        # m = 300; the file is still one _csv_rows call per block.
        table = np.random.default_rng(m).standard_normal((700, 3 + m))
        save(tmp_path / "traj.csv", trajectory_of(table))
        header = ",".join([*STEP_COLUMNS, *(f"vhat_{k}" for k in range(m))])
        rows = linalg.BLOCK_ROWS
        expected = (header + "\n").encode() + b"".join(
            trajectory._csv_rows(table[start : start + rows], start + 1)
            for start in range(0, len(table), rows)
        )
        assert (tmp_path / "traj.csv").read_bytes() == expected

    # The first, a middle and the last cell of a row.
    @pytest.mark.parametrize("column", ["s", "log_ratio", "vhat_3"])
    @pytest.mark.parametrize("cell", JSON_EDGE_CELLS)
    def test_json_edge_cells_read_as_the_line_parser(self, saved, column, cell):
        # The cell goes into the first and the last row, and the file
        # loses its final newline, so the cell ends a field, a line and
        # the file in turn. A cell in the grammar reads as a float()
        # line parser reads it, but -0 reads as 0.0; any other cell is
        # refused at its byte, or at its row's where its commas change
        # the row's width.
        csv_path, _ = saved
        lines = csv_path.read_bytes().split(b"\n")[:-1]
        j = lines[0].split(b",").index(column.encode())
        table = np.array([[float(c) for c in line.split(b",")] for line in lines[1:]])
        for row in (1, len(lines) - 1):
            cells = lines[row].split(b",")
            cells[j] = cell.encode()
            lines[row] = b",".join(cells)
            if cell in GRAMMAR_EDGE_CELLS:
                table[row - 1, j] = 0.0 if cell == "-0" else float(cell)
        raw = b"\n".join(lines)
        csv_path.write_bytes(raw)
        outcome = blocked_read_outcome(csv_path)
        if cell in GRAMMAR_EDGE_CELLS:
            assert outcome == table.tobytes()
            return
        at = cell_offset(raw, 1, 0 if "," in cell else j)
        assert outcome[0] is TrajectoryParseError
        assert outcome[1].endswith(f" at byte {at}") or (
            "," in cell and outcome[1].startswith(f"row 1 at byte {at}: ")
        )
        assert main(["check", str(csv_path)]) == 2

    @pytest.mark.parametrize(
        "column, cell",
        [
            ("s", "+0.5"),
            ("s", ".5"),
            ("s", "1_0"),
            ("s", " 0.5"),
            ("s", "00.5"),
            ("s", "5E-1"),
        ],
    )
    def test_cells_outside_the_grammar_are_unparseable(
        self, saved, capsys, column, cell
    ):
        # float() reads each cell, and the reader once took them; in
        # row 2 each is now a located parse error.
        csv_path, _ = saved
        lines = csv_path.read_bytes().split(b"\n")
        j = lines[0].split(b",").index(column.encode())
        cells = lines[2].split(b",")
        cells[j] = cell.encode()
        lines[2] = b",".join(cells)
        raw = b"\n".join(lines)
        csv_path.write_bytes(raw)
        expected = f"unparseable field {cell!r} at byte {cell_offset(raw, 2, j)}"
        with pytest.raises(TrajectoryParseError) as err:
            read_whole(csv_path)
        assert str(err.value) == expected
        capsys.readouterr()
        assert main(["check", str(csv_path)]) == 2
        assert capsys.readouterr().err == f"error: {expected}\n"

    def test_checks_identical_after_round_trip(self, saved):
        csv_path, art = saved
        report = check_trajectory_file(csv_path)
        assert report.ok
        assert report.to_dict() == art.check_report.to_dict()

    def test_write_is_deterministic(self, saved, tmp_path):
        csv_path, art = saved
        again = tmp_path / "again.csv"
        run_trial(small_config(trials=1), 0, again)
        assert again.read_bytes() == csv_path.read_bytes()

    def test_missing_meta(self, saved):
        csv_path, _ = saved
        trajectory.meta_path_for(csv_path).unlink()
        with pytest.raises(ConfigError):
            read_trajectory(csv_path)

    def test_parse_error_names_byte_offset(self, saved):
        csv_path, _ = saved
        lines = csv_path.read_text().split("\n")
        cells = lines[2].split(",")
        cells[1] = "not-a-number"
        lines[2] = ",".join(cells)
        csv_path.write_text("\n".join(lines))
        with pytest.raises(TrajectoryParseError) as err:
            read_whole(csv_path)
        msg = str(err.value)
        assert "byte" in msg
        offset = int(msg.rsplit("byte", 1)[1].strip().rstrip("."))
        raw = csv_path.read_bytes()
        assert raw[offset : offset + 12] == b"not-a-number"

    @pytest.mark.parametrize("column", ["s", "vhat_0"])
    @pytest.mark.parametrize("token", ["nan", "inf"])
    def test_non_finite_field_names_byte_offset(self, saved, column, token):
        csv_path, _ = saved
        lines = csv_path.read_text().split("\n")
        j = lines[0].split(",").index(column)
        cells = lines[2].split(",")
        cells[j] = token
        lines[2] = ",".join(cells)
        csv_path.write_text("\n".join(lines))
        with pytest.raises(TrajectoryParseError) as err:
            read_whole(csv_path)
        msg = str(err.value)
        assert "non-finite" in msg
        offset = int(msg.rsplit("byte", 1)[1].strip())
        raw = csv_path.read_bytes()
        assert raw[offset : offset + len(token) + 1] == token.encode() + b","
        assert main(["check", str(csv_path)]) == 2

    @pytest.mark.parametrize(
        "key", ["eta", "feature_map", "v_star", "init_v_hat", "n", "kind"]
    )
    def test_meta_missing_key(self, saved, key):
        csv_path, _ = saved
        meta_file = trajectory.meta_path_for(csv_path)
        meta = json.loads(meta_file.read_text())
        # "kind" is the feature map's own key.
        del (meta["feature_map"] if key == "kind" else meta)[key]
        meta_file.write_text(json.dumps(meta))
        with pytest.raises(ConfigError, match=f"missing key '{key}'"):
            read_trajectory(csv_path)
        assert main(["check", str(csv_path)]) == 2

    @pytest.mark.parametrize(
        "key, value",
        [
            ("eta", "0.01"),
            ("eta", float("nan")),
            ("init_v_hat", 1.0),
            ("v_star", "warm"),
            ("seed", 1.5),
            ("beta", [1.0]),
            ("feature_map", {"kind": "identity"}),
            ("alpha", -1.0),
            ("beta", -1e308),
            ("eta", 0.2),
            ("eta", 0.0),
            ("n", -1),
            ("n", 1.5),
            ("n", True),
            ("n", "3"),
            ("seed", -1),
            ("norm_bound", -1.0),
            ("norm_bound", 0.0),
            ("norm_bound", 1e9),
        ],
    )
    def test_meta_mistyped_key(self, saved, key, value):
        csv_path, _ = saved
        meta_file = trajectory.meta_path_for(csv_path)
        meta = json.loads(meta_file.read_text())
        meta[key] = value
        meta_file.write_text(json.dumps(meta))
        with pytest.raises(ConfigError, match=f"{meta_file.name}: key '{key}'"):
            read_trajectory(csv_path)
        assert main(["check", str(csv_path)]) == 2

    def test_meta_alpha_overflow_names_the_key(self, saved, capsys):
        # 1e308 would overflow alpha**2, and 1e154 the energy budget built
        # from it; both lie far above the most a run can give.
        csv_path, _ = saved
        meta_file = trajectory.meta_path_for(csv_path)
        original = json.loads(meta_file.read_text())
        for alpha in (1e308, 1e154):
            meta_file.write_text(json.dumps({**original, "alpha": alpha}))
            with pytest.raises(ConfigError, match="key 'alpha'"):
                check_trajectory_file(csv_path)
            assert main(["check", str(csv_path)]) == 2
            assert "key 'alpha' + key 'beta'" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", [1e200, 1e154])
    def test_meta_alpha_overflowing_the_certificate_exits_2(self, tmp_path, capsys, alpha):
        # Two phi_norm_sq cells of 1e308 make the trace bound inf, so no
        # alpha is refused before the checks; there alpha**2 raises
        # (1e200) or the energy budget is inf (1e154).
        out = tmp_path / "out"
        argv = ["run", "--phi", "poly2", "--dim", "2", "--n", "5", "--init", "vstar",
                "--save-trajectories", "--seed", "3", "--out", str(out)]
        assert main(argv) == 0
        csv_path = out / "trial_000.csv"
        lines = csv_path.read_text().splitlines(keepends=True)
        for row in (1, 2):
            cells = lines[row].split(",")
            cells[1] = "1e308"
            lines[row] = ",".join(cells)
        csv_path.write_text("".join(lines))
        meta_file = trajectory.meta_path_for(csv_path)
        meta = json.loads(meta_file.read_text())
        meta_file.write_text(json.dumps({**meta, "alpha": alpha}))
        capsys.readouterr()
        assert main(["check", str(csv_path), "--out", str(tmp_path / "recheck.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"error: bad trajectory metadata {meta_file.name}: key 'alpha' "
            "overflows the certificate: "
        )
        assert err.count("\n") == 1
        assert not (tmp_path / "recheck.json").exists()

    def test_meta_alpha_no_run_gives_is_refused(self, tmp_path, capsys):
        # An at-v* identity run: alpha = 1e100 keeps every arithmetic
        # step finite, yet alpha + beta <= eta * sum(phi_norm_sq) for
        # any unit v*.
        out = tmp_path / "out"
        assert main(PROBE_RUN + ["--out", str(out)]) == 0
        csv_path = out / "trial_000.csv"
        meta_file = trajectory.meta_path_for(csv_path)
        meta = json.loads(meta_file.read_text())
        most = meta["eta"] * float(np.sum(read_whole(csv_path).table[1:, 1]))
        assert meta["alpha"] + meta["beta"] <= most
        meta_file.write_text(json.dumps({**meta, "alpha": 1e100}))
        capsys.readouterr()
        assert main(["check", str(csv_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "key 'alpha' + key 'beta'" in err and "key 'eta'" in err

    @pytest.mark.parametrize(
        "edit, key, width",
        [
            (
                {
                    "feature_map": {
                        "kind": "identity", "input_dim": 7, "feature_dim": 7
                    },
                },
                "feature_map",
                7,
            ),
            ({"v_star": [1.0, 0.0, 0.0]}, "v_star", 3),
        ],
    )
    def test_meta_width_must_be_the_trajectorys(
        self, tmp_path, capsys, edit, key, width
    ):
        # The at-v* identity d=4 run: a sidecar stating another width for
        # the feature map or v* names the key and both widths.
        out = tmp_path / "out"
        assert main(PROBE_RUN + ["--out", str(out)]) == 0
        csv_path = out / "trial_000.csv"
        meta_file = trajectory.meta_path_for(csv_path)
        meta = json.loads(meta_file.read_text())
        meta_file.write_text(json.dumps({**meta, **edit}))
        expected = (
            f"bad trajectory metadata trial_000.meta.json: key {key!r} gives "
            f"width {width}, key 'init_v_hat' 4"
        )
        with pytest.raises(ConfigError) as err:
            read_trajectory(csv_path)
        assert str(err.value) == expected
        capsys.readouterr()
        assert main(["check", str(csv_path)]) == 2
        assert capsys.readouterr().err == f"error: {expected}\n"

    def test_meta_not_an_object(self, saved):
        csv_path, _ = saved
        trajectory.meta_path_for(csv_path).write_text("[1, 2]")
        with pytest.raises(ConfigError, match="JSON object"):
            read_trajectory(csv_path)

    @staticmethod
    def _first_row_malformed(csv_path) -> None:
        """Spoil the s cell of the file's first data row: a refusal that
        still comes first was made before any row was parsed."""
        lines = csv_path.read_bytes().split(b"\n")
        cells = lines[1].split(b",")
        cells[0] = b"not-a-number"
        lines[1] = b",".join(cells)
        csv_path.write_bytes(b"\n".join(lines))

    def test_check_needs_beta(self, saved, capsys):
        # And every other sidecar key: one missing, or a null oracle, is
        # an input error that names the sidecar and the key, made before
        # any row is parsed.
        csv_path, _ = saved
        self._first_row_malformed(csv_path)
        meta_file = trajectory.meta_path_for(csv_path)
        original = json.loads(meta_file.read_text())
        cases = [(key, "missing") for key in ("seed", "norm_bound", "v_star", "alpha", "beta")]
        cases += [(key, "null") for key in ("v_star", "alpha", "beta")]
        for key, state in cases:
            meta = dict(original)
            if state == "null":
                meta[key] = None
                located = f"key {key!r} must be"
            else:
                del meta[key]
                located = f"missing key {key!r}"
            meta_file.write_text(json.dumps(meta))
            expected = f"bad trajectory metadata traj.meta.json: {located}"
            with pytest.raises(ConfigError, match=f"^{expected}"):
                read_trajectory(csv_path)
            capsys.readouterr()
            assert main(["check", str(csv_path)]) == 2
            assert capsys.readouterr().err.startswith(f"error: {expected}")

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"m": 4}, "unknown key 'm'"),
            ({"init_log_norm": 0.0}, "unknown key 'init_log_norm'"),
            (
                {"v_star": [1.0, 1.0, 0.0, 0.0]},
                f"key 'v_star' must have unit norm, within {linalg.UNIT_NORM_TOL!r}",
            ),
            (None, "key 'init_v_hat' has 4 entries, the trajectory 5 vhat_* columns"),
        ],
    )
    def test_sidecar_refused_before_any_row(self, saved, capsys, edit, message):
        # An older sidecar's m or init_log_norm key, a v* off unit length,
        # and a header with one more vhat_* column than init_v_hat has
        # entries (edit None): each names the sidecar and the key.
        csv_path, _ = saved
        self._first_row_malformed(csv_path)
        meta_file = trajectory.meta_path_for(csv_path)
        if edit is None:
            raw = csv_path.read_bytes()
            header_end = raw.index(b"\n")
            csv_path.write_bytes(raw[:header_end] + b",vhat_4" + raw[header_end:])
        else:
            meta_file.write_text(json.dumps({**json.loads(meta_file.read_text()), **edit}))
        expected = f"bad trajectory metadata traj.meta.json: {message}"
        with pytest.raises(ConfigError) as err:
            read_trajectory(csv_path)
        assert str(err.value) == expected
        capsys.readouterr()
        assert main(["check", str(csv_path)]) == 2
        assert capsys.readouterr().err == f"error: {expected}\n"

    def test_written_pair_round_trips(self, tmp_path):
        # write_trajectory writes the sidecar too: the pair reads back as
        # one record, the oracle's constants with it, and
        # check_trajectory_file gives run_all_checks's report.
        gen = SpikedSpec(input_dim=5, n=200, lambda1=1.0, lambda2=0.1,
                         basis_seed=3, sample_seed=4)
        xs, truth = make_spiked_stream(gen)
        phi = FeatureMapSpec.poly2(5)
        bound = phi.norm_bound(truth.norm_bound)
        eta = select_learning_rate(bound)
        summary = summarize(xs, phi)
        energies = compute_alpha_beta(summary, eta)
        cfg = OjaConfig(eta=eta, feature_map=phi, norm_bound=bound)
        traj = Trajectory.record(xs, cfg, init_state(phi.feature_dim, 6), seed=4)
        csv_path = tmp_path / "traj.csv"
        save(
            csv_path,
            traj,
            v_star=summary.top_vector,
            alpha=energies.alpha,
            beta=energies.beta,
        )
        assert read_whole(csv_path).table.tobytes() == traj.table.tobytes()
        record = read_trajectory(csv_path)
        assert record.v_star.tobytes() == summary.top_vector.tobytes()
        assert not record.v_star.flags.writeable
        assert (record.alpha, record.beta) == (energies.alpha, energies.beta)
        expected = run_all_checks(
            traj, summary.top_vector, energies.alpha, energies.beta
        )
        assert check_trajectory_file(csv_path).to_dict() == expected.to_dict()

    @pytest.mark.parametrize(
        "early, late",
        [
            ("unparseable", "utf8"),
            ("utf8", "unparseable"),
            ("non-finite", "unparseable"),
            ("unparseable", "non-finite"),
        ],
    )
    def test_errors_reported_in_file_order(self, saved, early, late):
        # Two defects, in rows 2 and 9: the error names the first.
        csv_path, _ = saved
        lines = csv_path.read_bytes().split(b"\n")
        cell = {"unparseable": b"not-a-number", "non-finite": b"inf", "utf8": b"\xff"}
        for row, kind in ((2, early), (9, late)):
            cells = lines[row].split(b",")
            cells[1] = cell[kind]
            lines[row] = b",".join(cells)
        csv_path.write_bytes(b"\n".join(lines))
        # Field 1 of row 2.
        offset = len(b"\n".join(lines[:2])) + 1 + lines[2].index(b",") + 1
        message = {
            "unparseable": "unparseable field 'not-a-number'",
            "non-finite": "non-finite field 'inf'",
            "utf8": "invalid UTF-8",
        }[early]
        with pytest.raises(TrajectoryParseError, match=f"^{message} at byte {offset}$"):
            read_whole(csv_path)

    @pytest.mark.parametrize("cut", ["short", "extra", "header_only", "huge_n"])
    def test_rows_other_than_n_are_located(self, saved, cut, capsys):
        csv_path, _ = saved
        raw = csv_path.read_bytes()
        meta_file = trajectory.meta_path_for(csv_path)
        meta = json.loads(meta_file.read_text())
        last_row = raw[raw.rindex(b"\n", 0, -1) + 1 :]
        n = meta["n"]
        # The last row cut, a row appended after it, no row, or an n no
        # file of this size holds: each is refused against the sidecar.
        if cut == "short":
            raw = raw[: -len(last_row)]
            refusal = f"short of the n = {n} rows"
        elif cut == "extra":
            raw += last_row
            offset = len(raw) - len(last_row)
            refusal = f"beyond the n = {n} rows"
        elif cut == "header_only":
            raw = raw[: raw.index(b"\n") + 1]
            refusal = f"too short for the n = {n} rows"
        else:
            meta_file.write_text(json.dumps({**meta, "n": 10**30}))
            refusal = f"too short for the n = {10**30} rows"
        csv_path.write_bytes(raw)
        if cut != "extra":
            offset = len(raw)  # where the rows run out
        with pytest.raises(TrajectoryParseError, match=f"at byte {offset}\\b") as err:
            read_whole(csv_path)
        assert refusal in str(err.value)
        capsys.readouterr()
        assert main(["check", str(csv_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert refusal in err

    def test_bad_header(self, saved):
        csv_path, _ = saved
        header, body = csv_path.read_text().split("\n", 1)
        csv_path.write_text("a,b,c\n" + body)
        with pytest.raises(TrajectoryParseError):
            read_trajectory(csv_path)
        # An older file, whose lines start with a step cell.
        rows = "".join(f"{i},{line}\n" for i, line in enumerate(body.splitlines(), 1))
        csv_path.write_text(f"step,{header}\n{rows}")
        with pytest.raises(TrajectoryParseError, match="^bad header at byte 0: "):
            read_trajectory(csv_path)

    def test_ragged_row(self, saved):
        csv_path, _ = saved
        lines = csv_path.read_text().split("\n")
        lines[3] = lines[3] + ",0.5"
        csv_path.write_text("\n".join(lines))
        with pytest.raises(TrajectoryParseError):
            read_whole(csv_path)

    def test_non_consecutive_steps(self, saved, capsys):
        # Rows 2 and 3 swapped: each row is in the grammar, so the file
        # reads, but steps 2 to 4 no longer join their directions, and
        # both per-step identities fail there.
        csv_path, _ = saved
        lines = csv_path.read_bytes().split(b"\n")
        lines[2], lines[3] = lines[3], lines[2]
        csv_path.write_bytes(b"\n".join(lines))
        report = check_trajectory_file(csv_path)
        failed = {e.name: e.location for e in report.failures()}
        for name in ("norm_update_identity", "increment_reconstruction"):
            assert failed[name] in (2, 3, 4)
        capsys.readouterr()
        assert main(["check", str(csv_path)]) == 1


class TestCheckErrorsInOnePass:
    """`check` reads the rows as it certifies them, yet a defect still
    exits 2 with the message and byte offset a whole read gave, and no
    checks.json is written. The trajectory spans three units."""

    N = 700

    @pytest.fixture()
    def saved(self, tmp_path):
        generator = dataclasses.replace(small_config().generator, n=self.N)
        run(small_config(trials=1, generator=generator), out_dir=tmp_path)
        return tmp_path / "trial_000.csv", tmp_path / "recheck.json"

    def _refused(self, csv_path, out, capsys, message):
        capsys.readouterr()
        assert main(["check", str(csv_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("chunk_rows", [None, 7])
    @pytest.mark.parametrize(
        "cell, defect", [(b"not-a-number", "unparseable"), (b"inf", "non-finite")]
    )
    def test_late_defect_is_located(self, saved, capsys, cell, defect, chunk_rows):
        csv_path, out = saved
        lines = csv_path.read_bytes().split(b"\n")
        cells = lines[650].split(b",")
        cells[1] = cell
        lines[650] = b",".join(cells)
        raw = b"\n".join(lines)
        csv_path.write_bytes(raw)
        message = f"{defect} field {cell.decode()!r} at byte {cell_offset(raw, 650, 1)}"
        with contextlib.ExitStack() as stack:
            if chunk_rows:
                stack.enter_context(
                    mock.patch.object(trajectory, "_chunk_rows", lambda n_fields: chunk_rows)
                )
            self._refused(csv_path, out, capsys, message)

    @pytest.mark.parametrize("cut", ["short", "extra"])
    def test_row_count_other_than_n_is_located(self, saved, capsys, cut):
        csv_path, out = saved
        lines = csv_path.read_bytes().splitlines(keepends=True)
        if cut == "short":
            raw = b"".join(lines[:651])
            message = (
                f"trajectory ends at byte {len(raw)} after row 650, short of the "
                f"n = {self.N} rows its sidecar records"
            )
        else:
            raw = b"".join(lines + lines[-1:])
            message = (
                f"row {self.N + 1} at byte {len(b''.join(lines))}: beyond the "
                f"n = {self.N} rows its sidecar records"
            )
        csv_path.write_bytes(raw)
        self._refused(csv_path, out, capsys, message)

    def test_alpha_beta_above_the_trace_is_refused_after_the_pass(self, saved, capsys):
        # The cross-check needs the sum of every row's phi_norm_sq, so it
        # runs once the pass has read them, one row at a time.
        csv_path, out = saved
        meta_file = trajectory.meta_path_for(csv_path)
        meta = json.loads(meta_file.read_text())
        phi_norm_sq = read_whole(csv_path).table[1:, 1]
        meta_file.write_text(json.dumps({**meta, "alpha": 1e100}))
        most = meta["eta"] * float(np.cumsum(phi_norm_sq)[-1])
        message = (
            f"bad trajectory metadata {meta_file.name}: key 'alpha' + key 'beta' = "
            f"{1e100 + meta['beta']!r} exceeds key 'eta' * sum(phi_norm_sq) = "
            f"{most!r}, the most a run gives"
        )
        self._refused(csv_path, out, capsys, message)


LAYOUT_MAPS = {
    "identity": FeatureMapSpec.identity(3),
    "poly2": FeatureMapSpec.poly2(3),
    "rff": FeatureMapSpec.rff(3, 8, 1.5, 2),
}


@pytest.fixture(scope="module")
def layout_streams():
    """Per feature map and start: a 2003-sample stream, its config with a
    certified eta, the start, and oja_step folded over the whole stream
    as an (n+1, 3+m) table, whose first k + 1 rows are the fold of the
    first k samples."""
    streams = {}
    xs = np.random.default_rng(41).standard_normal((2003, 3))
    for kind, phi in LAYOUT_MAPS.items():
        feats = phi.apply_batch(xs)
        bound = float(np.max(np.einsum("ij,ij->i", feats, feats)))
        cfg = OjaConfig(
            eta=select_learning_rate(bound), feature_map=phi, norm_bound=bound,
        )
        starts = {
            "random": init_state(phi.feature_dim, 9),
            "vstar": init_state_at(np.linalg.eigh(feats.T @ feats)[1][:, -1]),
        }
        for start_kind, state in starts.items():
            rows = [np.concatenate(([0.0, 0.0, 0.0], state.v_hat))]
            for x in xs:
                state, record = oja_step(state, x, cfg)
                rows.append(np.concatenate((record, state.v_hat)))
            streams[kind, start_kind] = xs, cfg, starts[start_kind], np.array(rows)
    return streams


class TestOneLayout:
    """A recorded run is one (n+1, 3+m) table: the units run_stream hands
    Trajectory.record are the fold of oja_step, to rounding; the CSV's
    data cells are its rows 1..n, bit for bit; and a file's units are the
    in-memory units' rows."""

    @pytest.mark.parametrize("n", [0, 1, 60, 255, 256, 257, 2003])
    @pytest.mark.parametrize("start_kind", ["random", "vstar"])
    @pytest.mark.parametrize("kind", list(LAYOUT_MAPS))
    def test_memory_pass_and_file_share_the_table(
        self, tmp_path, layout_streams, kind, start_kind, n
    ):
        xs, cfg, init, folded = layout_streams[kind, start_kind]
        traj = Trajectory.record(xs[:n], cfg, init, seed=5)
        expected = folded[: n + 1]
        assert traj.table.shape == expected.shape
        tol = 1e-12 * np.maximum(1.0, np.abs(expected))
        assert (np.abs(traj.table - expected) <= tol).all()

        csv_path = tmp_path / "traj.csv"
        save(csv_path, traj)
        lines = csv_path.read_text(encoding="utf-8").split("\n")[1:-1]
        assert len(lines) == n
        for row, line in zip(traj.table[1:], lines):
            cells = np.array([float(cell) for cell in line.split(",")])
            assert cells.tobytes() == row.tobytes()

        from_file = read_trajectory(csv_path)
        # A file's unit is a buffer the next one overwrites: its bytes
        # are taken as it is given.
        file_units = [unit.tobytes() for unit in from_file.units()]
        memory_units = [unit.tobytes() for unit in traj.units()]
        assert file_units == memory_units
        assert len(memory_units) == -(-n // linalg.BLOCK_ROWS)


class TestSweep:
    def test_single_ratio_rejected(self):
        with pytest.raises(ConfigError):
            sweep(small_config(), [5.0])

    def test_ratio_below_one_rejected(self):
        with pytest.raises(ConfigError):
            sweep(small_config(), [0.5, 5.0])

    def test_nan_ratio_rejected(self):
        with pytest.raises(ConfigError, match="nan"):
            sweep(small_config(), [math.nan, 5.0])

    @pytest.mark.parametrize(
        "bad", [10**400, Fraction(10**400)], ids=["int", "Fraction"]
    )
    def test_ratio_beyond_float_range_rejected(self, tmp_path, monkeypatch, bad):
        # Refused by name, not with float()'s OverflowError.
        refusal = "target ratio must be finite and >= 1"
        with pytest.raises(ConfigError, match=refusal):
            check_target_ratio(bad, "target ratio")
        monkeypatch.setattr(harness, "run", mock.Mock(side_effect=AssertionError))
        with pytest.raises(ConfigError, match=refusal):
            sweep(small_config(), [20.0, bad], out_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("bad", ["2.0", True, np.True_])
    def test_ratio_not_a_real_number_rejected(self, tmp_path, monkeypatch, bad):
        # Refused before any trial runs.
        monkeypatch.setattr(harness, "run", mock.Mock(side_effect=AssertionError))
        with pytest.raises(ConfigError, match="target ratio must be a real number"):
            sweep(small_config(), [20.0, bad], out_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "ratios",
        [np.array([2.0, 20.0]), np.array([2, 20]), [np.float32(2.0), 20.0]],
        ids=["float64", "int64", "float32"],
    )
    def test_numpy_ratios_write_as_python_floats(self, tmp_path, ratios):
        files = {}
        for name, given in (("floats", [2.0, 20.0]), ("numpy", ratios)):
            sweep(small_config(), given, out_dir=tmp_path / name)
            files[name] = [
                (tmp_path / name / f).read_bytes() for f in ("sweep.json", "sweep.csv")
            ]
        assert files["numpy"] == files["floats"]

    def test_rows_and_csv(self, tmp_path):
        out = sweep(small_config(trials=2), [4.0, 40.0], out_dir=tmp_path)
        assert out["schema"] == "streamkpca-sweep/3"
        assert json.loads((tmp_path / "sweep.json").read_text()) == out
        assert [row["r_target"] for row in out["rows"]] == [4.0, 40.0]
        for row in out["rows"]:
            assert sorted(row) == [
                "aggregate", "empirical_r_median", "no_spike", "r_target"
            ]
        header, *lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert header == (
            "r_target,empirical_r_median,alignment_error_median,"
            "alpha_hypothesis_fraction,beta_hypothesis_fraction"
        )
        assert len(lines) == len(out["rows"])
        for line, row in zip(lines, out["rows"]):
            agg = row["aggregate"]
            assert line.split(",") == [
                harness._format_cell(v)
                for v in (
                    row["r_target"],
                    row["empirical_r_median"],
                    agg["alignment_error"]["median"],
                    agg["alpha_hypothesis_fraction"],
                    agg["beta_hypothesis_fraction"],
                )
            ]

    def test_isotropic_ratio_flagged_no_spike(self):
        # With no spike the learner cannot do better than a random unit
        # vector, whose expected alignment error is 1 - 1/d.
        cfg = RunConfig(
            feature_map=FeatureMapSpec.identity(6),
            generator=SpikedSpec(
                input_dim=6,
                n=400,
                lambda1=1.0,
                lambda2=0.1,
                tail_decay=1.0,
                basis_seed=21,
                sample_seed=210,
            ),
            init="random",
            trials=12,
        )
        out = sweep(cfg, [1.0, 20.0])
        assert out["rows"][0]["no_spike"] is True
        assert out["rows"][1]["no_spike"] is False
        iso_median = out["rows"][0]["aggregate"]["alignment_error"]["median"]
        assert abs(iso_median - (1.0 - 1.0 / 6.0)) <= 0.15


class TestCli:
    def test_zero_n_is_config_error(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["run", "--phi", "identity", "--dim", "4", "--n", "0"])
        assert code == 2

    def test_bad_ratio_is_config_error(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(
            ["run", "--phi", "identity", "--dim", "4", "--n", "50", "--ratio", "0.5"]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["run", "--ratio", "nan"], "--ratio"),
            (["run", "--ratio", "1e309"], "--ratio"),
            (["sweep", "--ratios", "nan,5"], "ratios"),
            (["sweep", "--ratios", "5,0.5"], "ratios"),
            (["sweep", "--ratios", "5,inf"], "--ratios"),
            (["run", "--eta", "nan"], "nan"),
            (["run", "--eta", "inf"], "inf"),
            (["run", "--phi", "rff", "--bandwidth", "nan"], "bandwidth"),
            (["run", "--phi", "rff", "--bandwidth", "inf"], "inf"),
            (["run", "--seed", "-1"], "--seed"),
            (["sweep", "--ratios", "2,abc"], "bad --ratios: "),
            (["run", "--phi", "rff", "--feature-dim", "0"],
             "rff feature_dim must be positive"),
        ],
        ids=[
            "ratio-nan", "ratio-inf", "ratios-nan", "ratios-below-one",
            "ratios-inf", "eta-nan", "eta-inf", "bandwidth-nan",
            "bandwidth-inf", "seed-negative", "ratios-unparsed",
            "feature-dim-zero",
        ],
    )
    def test_non_finite_flag_is_config_error(
        self, tmp_path, monkeypatch, capsys, argv, named
    ):
        monkeypatch.chdir(tmp_path)
        code = main([*argv, "--dim", "4", "--n", "200"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert list(tmp_path.iterdir()) == []

    def test_failed_check_exits_1(self, tmp_path, monkeypatch, capsys):
        # No honest run fails a check; a negative tolerance fails
        # norm_update_identity for every run.
        monkeypatch.setattr(checks, "IDENTITY_TOL", -1.0)
        argv = ["run", "--phi", "identity", "--dim", "4", "--n", "50", "--check",
                "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        assert capsys.readouterr().out.endswith("check failures in 1 trial(s)\n")

    @pytest.mark.parametrize("n", [10**30])
    def test_stream_too_long_to_allocate_is_config_error(
        self, tmp_path, monkeypatch, capsys, n
    ):
        # A stream is replayed, never allocated, so only an n beyond the
        # certificate's int64 step indices is refused, before any draw.
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--dim", "4", "--n", str(n)]) == 2
        err = capsys.readouterr().err
        assert err == (
            f"error: bad config: key 'generator': n = {n} exceeds the int64 "
            "maximum 9223372036854775807\n"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("action", ["default", "error"])
    def test_overflowing_bandwidth_is_config_error(
        self, tmp_path, monkeypatch, capsys, action
    ):
        # Frequencies z / 1e-320 overflow; the spec is refused, naming the
        # bandwidth, before numpy could warn of the overflow.
        monkeypatch.chdir(tmp_path)
        argv = ["run", "--phi", "rff", "--feature-dim", "4", "--bandwidth", "1e-320"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action, RuntimeWarning)
            assert main([*argv, "--dim", "4", "--n", "200"]) == 2
        assert caught == []
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "bandwidth 1e-320" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "kind, lambda1, bound",
        [("poly2", 1e160, "inf"), ("poly2", 1e-300, "0.0"), ("identity", 1.7e308, "inf")],
        ids=["poly2-overflow", "poly2-underflow", "identity-overflow"],
    )
    def test_spectrum_without_a_feature_norm_bound_is_config_error(
        self, tmp_path, monkeypatch, capsys, kind, lambda1, bound
    ):
        # poly2 squares its guard, which overflowed with an OverflowError
        # (exit 4) or underflowed to a bound of 0; identity's guard was
        # inf and the draws warned. Each is refused with its config.
        monkeypatch.chdir(tmp_path)
        phi = FeatureMapSpec.poly2(2) if kind == "poly2" else FeatureMapSpec.identity(2)
        gen = SpikedSpec(input_dim=2, n=200, lambda1=lambda1, lambda2=lambda1)
        raw = {"feature_map": phi.to_dict(), "generator": gen.to_dict()}
        (tmp_path / "cfg.json").write_text(json.dumps(raw))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", "--config", "cfg.json", "--out", "out"]) == 2
        assert caught == []
        err = capsys.readouterr().err
        assert err == (
            f"error: bad config cfg.json: key 'lambda1' = {lambda1!r} gives the "
            f"{kind} feature-norm bound {bound}, which is not a positive "
            "finite float\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_spectrum_whose_second_moment_overflows_is_config_error(
        self, tmp_path, monkeypatch, capsys
    ):
        # identity d=2, n=200: trace(M) <= n * bound and the oracle forms
        # M + M^T, so 2 * n * bound must be finite. At 2e306 the second
        # moment overflowed (exit 4 with warnings as errors). The largest
        # lambda1 accepted runs without a warning; the next float up is
        # refused with its config.
        monkeypatch.chdir(tmp_path)
        largest, smallest = 6.794810592029502e303, 6.794810592029504e303
        assert math.nextafter(largest, math.inf) == smallest
        phi = FeatureMapSpec.identity(2)
        for lambda1 in (largest, smallest, 2e306):
            gen = SpikedSpec(input_dim=2, n=200, lambda1=lambda1, lambda2=lambda1)
            raw = {"feature_map": phi.to_dict(), "generator": gen.to_dict()}
            (tmp_path / "cfg.json").write_text(json.dumps(raw))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(["run", "--config", "cfg.json", "--out", "out"])
            assert caught == []
            err = capsys.readouterr().err
            if lambda1 == largest:
                assert code == 0 and err == ""
                continue
            bound = phi.norm_bound(gen.norm_guard())
            assert code == 2
            assert err == (
                f"error: bad config cfg.json: key 'lambda1' = {lambda1!r} with "
                f"key 'n' = 200 gives the identity feature-norm bound {bound!r}, "
                "whose second moment, up to 2 * n * bound, overflows\n"
            )

    @pytest.mark.parametrize(
        "kind, lambda1", [("identity", 1e160), ("identity", 1e300), ("poly2", 1e80)]
    )
    def test_large_spectrum_scale_certifies_as_unit_scale(
        self, tmp_path, monkeypatch, kind, lambda1
    ):
        # d=2, n=200, lambda1 = lambda2: at these scales eta * eta
        # underflowed, the recorded log ratios lost the eta^2 ||f||^2 s^2
        # part of the growth, and norm_update_identity failed (exit 1).
        # Each run certifies with the statuses of the lambda1 = 1 run.
        monkeypatch.chdir(tmp_path)
        phi = FeatureMapSpec.poly2(2) if kind == "poly2" else FeatureMapSpec.identity(2)
        statuses = []
        for scale in (1.0, lambda1):
            gen = SpikedSpec(input_dim=2, n=200, lambda1=scale, lambda2=scale)
            raw = {"feature_map": phi.to_dict(), "generator": gen.to_dict()}
            (tmp_path / "cfg.json").write_text(json.dumps(raw))
            out = f"out_{scale!r}"
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                assert main(["run", "--config", "cfg.json", "--check", "--out", out]) == 0
            report = json.loads((tmp_path / out / "trial_000.checks.json").read_text())
            statuses.append([(c["name"], c["status"]) for c in report["checks"]])
        assert statuses[1] == statuses[0]

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_out_dir_precedence(self, tmp_path, monkeypatch, command):
        # --out, then STREAMKPCA_OUT.
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("STREAMKPCA_OUT", "from_env")
        small_config(trials=1).save(tmp_path / "cfg.json")
        argv = [command, "--config", "cfg.json"]
        if command == "sweep":
            argv += ["--ratios", "5,20"]
        written = "report.json" if command == "run" else "sweep.json"
        assert main([*argv, "--out", "from_flag"]) == 0
        assert (tmp_path / "from_flag" / written).exists()
        assert not (tmp_path / "from_env").exists()
        assert main(argv) == 0
        assert (tmp_path / "from_env" / written).exists()
        assert not (tmp_path / "skpca-out").exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("eta_policy", True),
            ("eta_policy", "0.01"),
            ("out_dir", 5),
            ("save_trajectories", True),
        ],
    )
    def test_mistyped_run_key_is_config_error(
        self, tmp_path, monkeypatch, capsys, key, value
    ):
        # Not coerced: true and "0.01" are no learning rate. Where files
        # go is no config key: out_dir and save_trajectories are unknown.
        monkeypatch.chdir(tmp_path)
        raw = small_config(trials=1).to_dict()
        known = key in raw
        raw[key] = value
        (tmp_path / "cfg.json").write_text(json.dumps(raw))
        assert main(["run", "--config", "cfg.json", "--out", "out"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        if known:
            assert f"bad config cfg.json: key {key!r} must be" in err
            assert repr(value) in err
        else:
            assert err == f"error: bad config cfg.json: unknown key {key!r}\n"
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_out_dir_falls_back_to_env_then_default(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["run", "--dim", "4", "--n", "50"]
        monkeypatch.setenv("STREAMKPCA_OUT", "from_env")
        assert main(argv) == 0
        monkeypatch.delenv("STREAMKPCA_OUT")
        assert main(argv) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "from_env", "skpca-out"
        ]

    def test_out_dir_from_env_var(self, tmp_path, monkeypatch):
        # Neither --out nor a config out_dir: the CLI writes where
        # STREAMKPCA_OUT points.
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("STREAMKPCA_OUT", "from_env")
        assert main(["run", "--dim", "4", "--n", "50"]) == 0
        assert main(["sweep", "--dim", "4", "--n", "50", "--ratios", "5,20"]) == 0
        assert sorted(p.name for p in (tmp_path / "from_env").iterdir()) == [
            "report.json", "sweep.csv", "sweep.json"
        ]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["from_env"]

    @pytest.mark.parametrize("aborts", [False, True])
    def test_sweep_prints_its_csv(self, tmp_path, monkeypatch, capsys, aborts):
        # Exit 3 only when every trial of every row aborts.
        if aborts:
            def boom(*args, **kwargs):
                raise NumericError("synthetic abort")

            monkeypatch.setattr(harness, "run_stream", boom)
        out = tmp_path / "sweep"
        argv = ["sweep", "--dim", "4", "--n", "100", "--trials", "2",
                "--ratios", "5,20", "--out", str(out)]
        assert main(argv) == (3 if aborts else 0)
        printed = capsys.readouterr().out
        assert printed.encode("utf-8") == (out / "sweep.csv").read_bytes()
        assert printed.startswith("r_target,empirical_r_median,")

    def test_sweep_requires_ratios(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["sweep", "--phi", "identity", "--dim", "4", "--n", "50"])
        assert code == 2

    def test_sweep_refuses_save_trajectories(self, tmp_path, monkeypatch):
        # A sweep writes no trajectories, so it takes no flag for them.
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_:
            main(["sweep", "--ratios", "5,20", "--save-trajectories", "--out", "sw"])
        assert exit_.value.code == 2
        assert list(tmp_path.iterdir()) == []

    def test_missing_trajectory_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["check", "nonexistent.csv"])
        assert code == 2

    def test_run_and_check_pipeline(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(
            [
                "run",
                "--phi",
                "identity",
                "--dim",
                "4",
                "--n",
                "80",
                "--ratio",
                "20",
                "--seed",
                "3",
                "--init",
                "vstar",
                "--check",
                "--out",
                "out",
            ]
        )
        assert code == 0
        assert (tmp_path / "out" / "report.json").exists()
        code = main(["check", str(tmp_path / "out" / "trial_000.csv")])
        assert code == 0
        checks = json.loads(
            (tmp_path / "out" / "trial_000.csv.checks.json").read_text()
        )
        assert checks["ok"] is True

    def test_near_rank_one_run_matches_oracle(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(
            [
                "run",
                "--phi",
                "identity",
                "--dim",
                "4",
                "--n",
                "500",
                "--ratio",
                "1000000",
                "--seed",
                "5",
                "--init",
                "vstar",
                "--out",
                "out",
            ]
        )
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["trials"][0]["alignment_error"] <= 1e-4

    def test_numeric_abort_everywhere_exits_3(self, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise NumericError("synthetic abort")

        monkeypatch.setattr(harness, "run_stream", boom)
        monkeypatch.chdir(tmp_path)
        code = main(
            ["run", "--phi", "identity", "--dim", "4", "--n", "50", "--trials", "2"]
        )
        assert code == 3

    def test_check_without_snapshots_is_config_error(self, tmp_path, monkeypatch):
        # A saved trajectory always carries its directions, so `check`
        # certifies it; the same file without its vhat_* columns is an
        # input error.
        monkeypatch.chdir(tmp_path)
        code = main(
            [
                "run",
                "--phi",
                "identity",
                "--dim",
                "4",
                "--n",
                "40",
                "--init",
                "vstar",
                "--save-trajectories",
                "--out",
                "out",
            ]
        )
        assert code == 0
        csv_path = tmp_path / "out" / "trial_000.csv"
        assert main(["check", str(csv_path)]) == 0
        lines = csv_path.read_text().splitlines()
        csv_path.write_text(
            "".join(",".join(line.split(",")[:3]) + "\n" for line in lines)
        )
        code = main(["check", str(csv_path)])
        assert code == 2

    @pytest.mark.parametrize("rows", [150, 301])
    def test_cut_trajectory_is_located(self, tmp_path, capsys, rows):
        # The probe's 300 rows cut to 150, or one row repeated, beside
        # the unchanged sidecar.
        assert main(PROBE_RUN + ["--out", str(tmp_path / "out")]) == 0
        csv_path = tmp_path / "out" / "trial_000.csv"
        lines = csv_path.read_bytes().splitlines(keepends=True)
        csv_path.write_bytes(b"".join((lines + lines[-1:])[: rows + 1]))
        capsys.readouterr()
        assert main(["check", str(csv_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"at byte {len(b''.join(lines[: min(rows, 300) + 1]))}" in err

    def _assert_os_error_exit(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_check_out_is_a_directory(self, saved_pair, capsys):
        csv_path, out_dir = saved_pair
        self._assert_os_error_exit(
            ["check", str(csv_path), "--out", str(out_dir)], capsys
        )

    def test_check_trajectory_is_a_directory(self, saved_pair, capsys):
        csv_path, out_dir = saved_pair
        as_dir = out_dir / "dir.csv"
        as_dir.mkdir()
        trajectory.meta_path_for(as_dir).write_bytes(
            trajectory.meta_path_for(csv_path).read_bytes()
        )
        self._assert_os_error_exit(["check", str(as_dir)], capsys)

    def test_run_out_is_a_file(self, tmp_path, capsys):
        target = tmp_path / "taken"
        target.write_text("")
        self._assert_os_error_exit(
            ["run", "--phi", "identity", "--dim", "4", "--n", "20",
             "--out", str(target)],
            capsys,
        )
        assert target.read_text() == ""

    @pytest.mark.parametrize("command", ["run", "check"])
    def test_internal_error_exits_4(self, saved_pair, tmp_path, monkeypatch, capsys, command):
        def broken(*args, **kwargs):
            raise RuntimeError("synthetic internal failure")

        # run --check and check both end in the certificate's report.
        monkeypatch.setattr(harness._Certificate, "report", broken)
        if command == "run":
            argv = ["run", "--phi", "identity", "--dim", "4", "--n", "20",
                    "--check", "--out", str(tmp_path / "out")]
        else:
            argv = ["check", str(saved_pair[0])]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert err == "error: internal: RuntimeError: synthetic internal failure\n"

    @pytest.fixture()
    def saved_pair(self, tmp_path):
        cfg = small_config(trials=1)
        run(cfg, out_dir=tmp_path / "run")
        out_dir = tmp_path / "elsewhere"
        out_dir.mkdir()
        return tmp_path / "run" / "trial_000.csv", out_dir

    @pytest.mark.parametrize(
        "in_file", [FeatureMapSpec.identity(6), FeatureMapSpec.poly2(6)]
    )
    def test_phi_flag_takes_no_keys_from_another_kind(
        self, tmp_path, monkeypatch, in_file
    ):
        # The file's feature_dim is its own map's: --phi rff over it
        # builds the map --phi rff builds without a file.
        monkeypatch.chdir(tmp_path)
        generator = dataclasses.replace(small_config().generator, input_dim=6)
        small_config(feature_map=in_file, generator=generator).save("cfg.json")
        flags = ["--phi", "rff", "--seed", "3", "--n", "60", "--trials", "1"]
        assert main(["run", "--config", "cfg.json", *flags, "--out", "a"]) == 0
        assert main(["run", "--dim", "6", *flags, "--out", "b"]) == 0
        maps = [
            json.loads((tmp_path / out / "report.json").read_text())["config"][
                "feature_map"
            ]
            for out in ("a", "b")
        ]
        assert maps[0] == maps[1]
        assert maps[0]["feature_dim"] == 24

    @pytest.mark.parametrize("source", ["flags", "config", "sidecar"])
    @pytest.mark.parametrize(
        "phi, dim, feature_dim",
        # rff bounds d by nothing else; the generator holds a d x d basis.
        [("rff", 6, 3000), ("poly2", 64, 2080), ("rff", 2049, 16),
         ("rff", 10**8, 16)],
    )
    def test_oracle_cap_is_refused_before_the_stream(
        self, tmp_path, monkeypatch, capsys, source, phi, dim, feature_dim
    ):
        # Refused before the map is built, too: an rff bandwidth below 1
        # has the spec's one (m, d) draw of frequencies tested.
        def no_draw(*args, **kwargs):
            raise AssertionError("the stream or the rff frequencies were drawn")

        monkeypatch.setattr(harness, "make_spiked_stream", no_draw)
        monkeypatch.setattr(FeatureMapSpec, "rff_parameters", property(no_draw))
        monkeypatch.chdir(tmp_path)
        feature_map = {"kind": phi, "input_dim": dim, "feature_dim": feature_dim}
        if phi == "rff":
            feature_map.update(bandwidth=0.5, seed=3)
        if source == "flags":
            argv = ["run", "--phi", phi, "--dim", str(dim), "--n", "200000"]
            if phi == "rff":
                argv += ["--feature-dim", str(feature_dim), "--bandwidth", "0.5"]
        elif source == "config":
            raw = small_config(trials=1).to_dict()
            raw["generator"]["input_dim"] = dim
            raw["feature_map"] = feature_map
            Path("cfg.json").write_text(json.dumps(raw))
            argv = ["run", "--config", "cfg.json"]
        else:
            # The sidecar's widths agree, so only the cap refuses it.
            start = [1.0] + [0.0] * (feature_dim - 1)
            Path("t.meta.json").write_text(json.dumps({
                "eta": 0.01, "norm_bound": None, "feature_map": feature_map,
                "init_v_hat": start, "seed": 0, "n": 0, "alpha": 0.0,
                "beta": 0.0, "v_star": start,
            }))
            argv = ["check", "t.csv"]
        assert main([*argv, "--out", "out"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        if feature_dim > linalg.MAX_ORACLE_DIM:
            assert f"feature_dim {feature_dim}" in err
        else:
            assert f"input_dim {dim}" in err
        assert str(linalg.MAX_ORACLE_DIM) in err
        if source == "sidecar":
            assert err.startswith("error: bad trajectory metadata t.meta.json: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edit", ["label", "nudged"])
    def test_vstar_is_read_from_the_start(self, tmp_path, capsys, edit):
        # An at-v* run's sidecar (identity d=6, n=300, seed 3). An older
        # sidecar's "init" label is an unknown key. A v* nudged 1e-4 off
        # the start, still of unit length, makes the run a random start:
        # its at-v* entries are vacuous, and it certifies.
        argv = ["run", "--phi", "identity", "--dim", "6", "--n", "300", "--seed",
                "3", "--init", "vstar", "--check", "--out", str(tmp_path / "out")]
        assert main(argv) == 0
        csv_path = tmp_path / "out" / "trial_000.csv"
        meta_file = trajectory.meta_path_for(csv_path)
        meta = json.loads(meta_file.read_text())
        if edit == "label":
            meta["init"] = "vstar"
        else:
            v_star = np.array(meta["v_star"])
            v_star[0] += 1e-4
            meta["v_star"] = (v_star / np.linalg.norm(v_star)).tolist()
        meta_file.write_text(json.dumps(meta))
        capsys.readouterr()
        out = tmp_path / "recheck.json"
        code = main(["check", str(csv_path), "--out", str(out)])
        if edit == "label":
            assert code == 2
            assert capsys.readouterr().err == (
                "error: bad trajectory metadata trial_000.meta.json: unknown key 'init'\n"
            )
            return
        assert code == 0
        report = json.loads(out.read_text())
        assert report["constants"]["init"] == "random"
        reasons = {c["name"]: c["details"].get("reason") for c in report["checks"]}
        for name in ("drift_requires_growth", "orthogonal_energy_budget",
                     "aligned_energy_growth_floor"):
            assert reasons[name] == "initializer is not at-v*"

    @pytest.mark.parametrize("warning_action", ["default", "error"])
    @pytest.mark.parametrize(
        "key, value", [("init_v_hat", 1e308), ("init_v_hat", 2.0), ("v_star", 1e308)]
    )
    def test_start_and_vstar_off_unit_length_are_input_errors(
        self, tmp_path, capsys, warning_action, key, value
    ):
        # A random start (identity d=6, n=300, seed 3) whose sidecar puts
        # value in the first entry: exit 2 naming the key, and no numpy
        # warning, whether RuntimeWarning is an error or not.
        argv = ["run", "--phi", "identity", "--dim", "6", "--n", "300",
                "--seed", "3", "--check", "--out", str(tmp_path / "out")]
        assert main(argv) == 0
        csv_path = tmp_path / "out" / "trial_000.csv"
        meta_file = trajectory.meta_path_for(csv_path)
        meta = json.loads(meta_file.read_text())
        meta[key][0] = value
        meta_file.write_text(json.dumps(meta))
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(warning_action, RuntimeWarning)
            assert main(["check", str(csv_path)]) == 2
        assert caught == []
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"trial_000.meta.json: key {key!r} must have unit norm" in err

    def test_config_file_merge_flags_win(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = small_config(trials=1)
        cfg.save(tmp_path / "cfg.json")
        report_dir = tmp_path / "merged"
        code = main(
            [
                "run",
                "--config",
                str(tmp_path / "cfg.json"),
                "--n",
                "60",
                "--out",
                str(report_dir),
            ]
        )
        assert code == 0
        report = json.loads((report_dir / "report.json").read_text())
        assert report["config"]["generator"]["n"] == 60
        assert report["config"]["generator"]["basis_seed"] == 5

    @pytest.mark.parametrize(
        "source, section, key, value",
        [
            ("config", "generator", "n", 100.9),
            ("config", "generator", "sample_seed", "3"),
            ("config", "generator", "basis_seed", True),
            ("config", "generator", "basis_seed", -1),
            ("config", "generator", "sample_seed", -1),
            ("config", "feature_map", "seed", -1),
            ("sidecar", "feature_map", "seed", -1),
            ("config", "generator", "lambda2", "0.1"),
            ("config", "generator", "tail_decay", False),
            ("config", "feature_map", "input_dim", 4.0),
            ("config", "feature_map", "bandwidth", "4"),
            ("sidecar", "feature_map", "feature_dim", 4.0),
            ("sidecar", "feature_map", "input_dim", "4"),
            ("sidecar", "feature_map", "seed", 1.5),
            ("config", "feature_map", "kind", 5),
            ("config", "feature_map", "kind", "linear"),
            ("sidecar", "feature_map", "kind", None),
        ],
    )
    def test_mistyped_spec_key_is_config_error(
        self, saved_pair, capsys, source, section, key, value
    ):
        # A config file's generator and feature map, and a sidecar's
        # feature map, are held to JSON types, not coerced: "n": 100.9
        # does not load as 100, nor "sample_seed": "3" as 3.
        csv_path, out_dir = saved_pair
        if source == "config":
            path = out_dir / "cfg.json"
            small_config(trials=1).save(path)
            argv = ["run", "--config", str(path), "--out", str(out_dir / "run")]
        else:
            path = trajectory.meta_path_for(csv_path)
            argv = ["check", str(csv_path), "--out", str(out_dir / "checks.json")]
        raw = json.loads(path.read_text())
        raw[section][key] = value
        path.write_text(json.dumps(raw))
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"key {section!r}: key {key!r} must be" in err
        assert repr(value) in err


# The config of a run with no --config file and no flags.
NO_FILE = RunConfig(
    feature_map=FeatureMapSpec.identity(8),
    generator=SpikedSpec(
        input_dim=8, n=1000, lambda1=1.0, lambda2=0.1, tail_decay=1.0,
        basis_seed=0, sample_seed=1,
    ),
)
# A --config file: an rff map, so --feature-dim and --bandwidth have
# keys to write, and a value other than RunConfig's default for each key.
IN_FILE = RunConfig(
    feature_map=FeatureMapSpec.rff(5, 20, 2.0, 9),
    generator=SpikedSpec(
        input_dim=5, n=400, lambda1=2.0, lambda2=0.1, tail_decay=0.8,
        basis_seed=4, sample_seed=40,
    ),
    eta_policy=0.003,
    trials=2,
)


def changed(config: RunConfig, feature_map=None, **generator) -> RunConfig:
    """config with another feature map, generator keys, or both."""
    return dataclasses.replace(
        config,
        feature_map=feature_map or config.feature_map,
        generator=dataclasses.replace(config.generator, **generator),
    )


# Flags -> (the RunConfig they give alone, the one they give over IN_FILE),
# or the start of the ConfigError that refuses them.
FLAG_GRID = {
    "": (NO_FILE, IN_FILE),
    "--dim 6": (
        changed(NO_FILE, FeatureMapSpec.identity(6), input_dim=6),
        changed(IN_FILE, FeatureMapSpec.rff(6, 20, 2.0, 9), input_dim=6),
    ),
    "--n 50": (changed(NO_FILE, n=50), changed(IN_FILE, n=50)),
    # The file's rff seed is its own, not derived from --seed.
    "--seed 5": (
        changed(NO_FILE, basis_seed=5, sample_seed=6),
        changed(IN_FILE, basis_seed=5, sample_seed=6),
    ),
    "--ratio 40": (
        changed(NO_FILE, lambda2=0.025),
        changed(IN_FILE, lambda2=0.05),
    ),
    "--tail-decay 0.5": (
        changed(NO_FILE, tail_decay=0.5),
        changed(IN_FILE, tail_decay=0.5),
    ),
    "--eta 0.004": (
        dataclasses.replace(NO_FILE, eta_policy=0.004),
        dataclasses.replace(IN_FILE, eta_policy=0.004),
    ),
    "--init vstar": (
        dataclasses.replace(NO_FILE, init="vstar"),
        dataclasses.replace(IN_FILE, init="vstar"),
    ),
    "--trials 3": (
        dataclasses.replace(NO_FILE, trials=3),
        dataclasses.replace(IN_FILE, trials=3),
    ),
    "--check": (
        dataclasses.replace(NO_FILE, run_checks=True),
        dataclasses.replace(IN_FILE, run_checks=True),
    ),
    # Which files are written where is not the experiment's.
    "--save-trajectories": (NO_FILE, IN_FILE),
    "--out o": (NO_FILE, IN_FILE),
    "--phi identity": (NO_FILE, changed(IN_FILE, FeatureMapSpec.identity(5))),
    "--phi poly2": (
        changed(NO_FILE, FeatureMapSpec.poly2(8)),
        changed(IN_FILE, FeatureMapSpec.poly2(5)),
    ),
    # An rff map without one in the file: feature_dim 4d, bandwidth 1,
    # seed basis_seed + 7.
    "--phi rff": (changed(NO_FILE, FeatureMapSpec.rff(8, 32, 1.0, 7)), IN_FILE),
    "--phi rff --seed 5": (
        changed(
            NO_FILE, FeatureMapSpec.rff(8, 32, 1.0, 12), basis_seed=5, sample_seed=6
        ),
        changed(IN_FILE, basis_seed=5, sample_seed=6),
    ),
    # Only an rff map takes --feature-dim and --bandwidth.
    "--feature-dim 12 --bandwidth 3": (
        "--feature-dim is for an rff map only, not identity",
        changed(IN_FILE, FeatureMapSpec.rff(5, 12, 3.0, 9)),
    ),
    "--phi rff --feature-dim 12 --bandwidth 3": (
        changed(NO_FILE, FeatureMapSpec.rff(8, 12, 3.0, 7)),
        changed(IN_FILE, FeatureMapSpec.rff(5, 12, 3.0, 9)),
    ),
    "--phi identity --feature-dim 12 --bandwidth 3": (
        "--feature-dim is for an rff map only, not identity",
        "--feature-dim is for an rff map only, not identity",
    ),
}


class TestConfigFromArgs:
    """A run's RunConfig: the --config document, else the defaults, with
    each given flag written over its key."""

    @staticmethod
    def config_of(argv: list[str]) -> RunConfig:
        return config_from_args(build_parser().parse_args(argv))

    @pytest.mark.parametrize("source", ["flags", "config"])
    @pytest.mark.parametrize("flags", list(FLAG_GRID), ids=lambda f: f or "none")
    def test_flag_grid(self, tmp_path, source, flags):
        argv = ["run", *flags.split()]
        alone, over_file = FLAG_GRID[flags]
        if source == "config":
            IN_FILE.save(tmp_path / "cfg.json")
            argv += ["--config", str(tmp_path / "cfg.json")]
        expected = alone if source == "flags" else over_file
        if isinstance(expected, str):
            with pytest.raises(ConfigError, match=f"^{expected}$"):
                self.config_of(argv)
        else:
            assert self.config_of(argv) == expected

    @pytest.mark.parametrize(
        "flags",
        [
            ["--phi", "rff", "--dim", "3", "--feature-dim", "9", "--bandwidth", "2.5",
             "--seed", "4", "--ratio", "7", "--check"],
            ["--phi", "poly2", "--dim", "3", "--eta", "0.001", "--init", "vstar",
             "--tail-decay", "0.6", "--save-trajectories"],
            ["--dim", "3", "--trials", "2"],
        ],
    )
    def test_report_config_rebuilds_the_run(self, tmp_path, monkeypatch, flags):
        # A report's config object, passed back with --config, is the run's.
        monkeypatch.chdir(tmp_path)
        argv = ["run", *flags, "--n", "40", "--out", "out"]
        assert main(argv) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        (tmp_path / "cfg.json").write_text(json.dumps(report["config"]))
        rebuilt = self.config_of(["run", "--config", "cfg.json"])
        assert rebuilt == self.config_of(argv)

    @pytest.mark.parametrize("text", ["[1, 2]", '"x"', "null"])
    def test_config_not_an_object_is_config_error(self, tmp_path, capsys, text):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        got = repr(json.loads(text))
        assert err == f"error: bad config {path}: expected a JSON object, got {got}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name", ["cfg.json", "trial_000.meta.json"])
    @pytest.mark.parametrize(
        "raw, message",
        [
            # json gives up with a RecursionError: no internal error.
            (b"[" * 100_000 + b"]" * 100_000, "nested too deeply to parse"),
            (b'{"n": "\xff"}', "invalid UTF-8 at byte 7"),
            (b'{"eta": 0.01,\n "n": }', "parse error at line 2, column 7: "
             "Expecting value"),
            # json's int() raises a plain ValueError past the digit limit.
            (b'{"seed": 1' + b"0" * 4999 + b"}",
             f"an integer has more than {sys.get_int_max_str_digits()} digits"),
        ],
        ids=["deep", "utf8", "parse", "digits"],
    )
    def test_unreadable_json_is_input_error(self, tmp_path, capsys, name, raw, message):
        assert main(PROBE_RUN + ["--out", str(tmp_path)]) == 0
        (tmp_path / name).write_bytes(raw)
        capsys.readouterr()
        if name == "cfg.json":
            assert main(["run", "--config", str(tmp_path / name)]) == 2
        else:
            assert main(["check", str(tmp_path / "trial_000.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad ") and err.count("\n") == 1
        assert err.endswith(f"{name}: {message}\n")


# Each object of a config file or a sidecar -> (file, the keys that lead
# to it, one of its required keys).
KEY_SECTIONS = {
    "config": ("config", (), "feature_map"),
    "config-generator": ("config", ("generator",), "n"),
    "config-feature_map": ("config", ("feature_map",), "kind"),
    "sidecar": ("sidecar", (), "init_v_hat"),
    "sidecar-feature_map": ("sidecar", ("feature_map",), "input_dim"),
}


class TestKeyTables:
    """Every object of a config file or a sidecar is held to its key
    table: a missing required key and a key the table does not name are
    both refused, naming the file, the object and the key."""

    @pytest.fixture(scope="class")
    def originals(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("tables")
        run(small_config(trials=1), out_dir=out)
        return {
            "config": json.dumps(small_config(trials=1).to_dict()),
            "sidecar": (out / "trial_000.meta.json").read_text(),
            "csv": (out / "trial_000.csv").read_bytes(),
        }

    @staticmethod
    def written(tmp_path, originals, section, edit):
        """The section's file, with edit applied to the section's object,
        written into tmp_path: the argv that reads it, the path that argv
        would write, and the start of a message that locates the object."""
        source, keys, _ = KEY_SECTIONS[section]
        doc = json.loads(originals[source])
        obj = doc
        for key in keys:
            obj = obj[key]
        edit(obj)
        located = "".join(f"key {key!r}: " for key in keys)
        if source == "config":
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(doc))
            out = tmp_path / "out"
            argv = ["run", "--config", str(path), "--out", str(out)]
            return argv, out, f"bad config {path}: {located}"
        (tmp_path / "trial_000.csv").write_bytes(originals["csv"])
        (tmp_path / "trial_000.meta.json").write_text(json.dumps(doc))
        out = tmp_path / "recheck.json"
        argv = ["check", str(tmp_path / "trial_000.csv"), "--out", str(out)]
        return argv, out, f"bad trajectory metadata trial_000.meta.json: {located}"

    def defective(self, tmp_path, originals, section, defect):
        """written's argv and path, with the message the defect gives."""
        required = KEY_SECTIONS[section][2]
        if defect == "missing":
            edit, problem = (lambda obj: obj.pop(required)), f"missing key {required!r}"
        else:
            edit, problem = (lambda obj: obj.update(extra=1)), "unknown key 'extra'"
        argv, out, where = self.written(tmp_path, originals, section, edit)
        return argv, out, where + problem

    @pytest.mark.parametrize("defect", ["missing", "unknown"])
    @pytest.mark.parametrize("section", list(KEY_SECTIONS))
    def test_library_names_the_key(self, tmp_path, originals, section, defect):
        argv, _, message = self.defective(tmp_path, originals, section, defect)
        with pytest.raises(ConfigError) as err:
            if argv[0] == "run":
                RunConfig.load(argv[2])
            else:
                read_trajectory(argv[1])
        assert str(err.value) == message

    @pytest.mark.parametrize("defect", ["missing", "unknown"])
    @pytest.mark.parametrize("section", list(KEY_SECTIONS))
    def test_cli_exits_2(self, tmp_path, capsys, originals, section, defect):
        argv, out, message = self.defective(tmp_path, originals, section, defect)
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_a_document_without_a_file_says_bad_config(self):
        raw = small_config().to_dict()
        raw["generator"]["nn"] = 5
        with pytest.raises(ConfigError) as err:
            RunConfig.from_dict(raw)
        assert str(err.value) == "bad config: key 'generator': unknown key 'nn'"

    def test_every_key_a_config_leaves_out_takes_its_default(self):
        config = small_config()
        minimal = {"feature_map": config.feature_map.to_dict(),
                   "generator": config.generator.to_dict()}
        assert RunConfig.from_dict(minimal) == RunConfig(
            feature_map=config.feature_map, generator=config.generator
        )

    @pytest.mark.parametrize("key, value", [("bandwidth", 3.0), ("seed", 4)])
    @pytest.mark.parametrize("section", ["config-feature_map", "sidecar-feature_map"])
    def test_rff_key_on_another_map_exits_2(
        self, tmp_path, capsys, originals, section, key, value
    ):
        # An identity map with a bandwidth or a seed is no identity map.
        argv, out, where = self.written(
            tmp_path, originals, section, lambda obj: obj.update({key: value})
        )
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == (
            f"error: {where}key {key!r} is for an rff map only, not identity; "
            f"got {value!r}\n"
        )
        assert not out.exists()

    def test_generator_error_names_its_object(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--n", "0", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: bad config: key 'generator': n must be positive\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, refused",
        [
            (["--phi", "identity", "--dim", "4", "--feature-dim", "50"], "--feature-dim"),
            (["--phi", "identity", "--dim", "4", "--bandwidth", "3"], "--bandwidth"),
            (["--phi", "poly2", "--dim", "3", "--feature-dim", "6"], "--feature-dim"),
            (["--dim", "4", "--bandwidth", "3"], "--bandwidth"),
        ],
    )
    def test_rff_flag_on_another_map_exits_2(self, tmp_path, capsys, flags, refused):
        out = tmp_path / "out"
        assert main(["run", *flags, "--n", "50", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        kind = "poly2" if "poly2" in flags else "identity"
        assert err == f"error: {refused} is for an rff map only, not {kind}\n"
        assert not out.exists()


@st.composite
def corrupted(draw, raw: bytes) -> bytes:
    """raw truncated, with its lines reordered, or with one byte flipped."""
    kind = draw(st.sampled_from(["truncate", "reorder", "flip"]))
    if kind == "truncate":
        return raw[: draw(st.integers(0, len(raw)))]
    if kind == "reorder":
        return b"\n".join(draw(st.permutations(raw.split(b"\n"))))
    if not raw:
        return raw
    pos = draw(st.integers(0, len(raw) - 1))
    flipped = raw[pos] ^ draw(st.integers(1, 255))
    return raw[:pos] + bytes([flipped]) + raw[pos + 1 :]


# A config key's mutations: type swaps, edges of int and float, NaN and
# infinities, nesting, and two texts json.loads refuses, which stand in
# the document as a placeholder string until it is written.
_UNPARSED = {'"@digits@"': "1" + "0" * 4999, '"@deep@"': "[" * 10**5 + "]" * 10**5}
CONFIG_VALUES = [
    0, -1, 10**400, *_UNPARSED, [[[[[1]]]]], math.nan, math.inf, -math.inf,
    "3", True, None, [], {}, 1.5, 0.5, "rff",
]
CONFIG_KEYS = [
    *((None, key) for key in ("feature_map", "generator", "eta_policy", "init",
                              "trials", "run_checks", "extra")),
    *(("feature_map", key) for key in ("kind", "input_dim", "feature_dim",
                                       "bandwidth", "seed", "extra")),
    *(("generator", key) for key in ("input_dim", "n", "lambda1", "lambda2",
                                     "tail_decay", "basis_seed", "sample_seed")),
]
INT_FLAG_VALUES = ["0", "-1", str(10**400), "3", str(10**8)]
FLOAT_FLAG_VALUES = ["0", "-1", "nan", "inf", "-inf", "1e400", "1e-320", "0.5", "4"]
# Each run flag, its values, and the keys a refusal of it may name. n and
# trials are bounded: each value is refused or runs in milliseconds.
RUN_FLAGS = {
    "--phi": (["identity", "poly2", "rff"], ["kind"]),
    "--dim": (INT_FLAG_VALUES, ["input_dim", "feature_dim"]),
    "--feature-dim": (INT_FLAG_VALUES, ["feature_dim"]),
    "--bandwidth": (FLOAT_FLAG_VALUES, ["bandwidth"]),
    "--n": (["0", "-1", str(10**400), "50"], ["n"]),
    "--ratio": (FLOAT_FLAG_VALUES, []),
    "--tail-decay": (FLOAT_FLAG_VALUES, ["tail_decay"]),
    "--seed": (INT_FLAG_VALUES, ["basis_seed", "sample_seed"]),
    "--eta": (FLOAT_FLAG_VALUES, ["eta_policy"]),
    "--trials": (["0", "-1", "1"], ["trials"]),
    "--init": (["random", "vstar"], ["init"]),
}


def cli_outcome(argv) -> tuple[int, str]:
    """main(argv)'s exit code and stderr, once its stdout is checked."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), err
    assert "Traceback" not in out + err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert err == ""
    return code, err


class TestConfigFuzz:
    """A run's config, from a file mutated key by key or from flags of
    any value, ends in a run or a located input error: exit 0, 1 or 2,
    never 4, and one stderr line naming the file or the flag."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_config_file(self, tmp_path_factory, data):
        doc = small_config(trials=1).to_dict()
        if data.draw(st.booleans(), label="rff"):
            doc["feature_map"] = FeatureMapSpec.rff(4, 16, 0.5, 3).to_dict()
        for _ in range(data.draw(st.integers(1, 3), label="mutations")):
            section, key = data.draw(st.sampled_from(CONFIG_KEYS), label="key")
            obj = doc if section is None else doc.get(section)
            if not isinstance(obj, dict):
                continue
            values = [v for v in CONFIG_VALUES if key != "trials" or v != 10**400]
            value = data.draw(st.sampled_from(["delete", *values]), label=key)
            if value == "delete":
                obj.pop(key, None)
            else:
                obj[key] = value
        text = json.dumps(doc)
        for placeholder, raw in _UNPARSED.items():
            text = text.replace(placeholder, raw)
        path = tmp_path_factory.mktemp("fuzz") / "cfg.json"
        path.write_text(text)
        code, err = cli_outcome(["run", "--config", str(path), "--out", str(path.parent)])
        if code == 2:
            assert err.startswith(f"error: bad config {path}: "), err

    @settings(max_examples=60, deadline=None)
    @given(
        flags=st.dictionaries(
            st.sampled_from(sorted(RUN_FLAGS)),
            st.integers(0, 8),
            min_size=1,
            max_size=5,
        ),
        check=st.booleans(),
    )
    def test_flags(self, tmp_path_factory, flags, check):
        # rff at a bandwidth below 1 with a dimension of 1e8 is refused
        # by the oracle cap before its frequencies are drawn.
        argv = ["run", "--out", str(tmp_path_factory.mktemp("fuzz"))]
        for flag, pick in flags.items():
            values = RUN_FLAGS[flag][0]
            argv.append(f"{flag}={values[pick % len(values)]}")
        if check:
            argv.append("--check")
        code, err = cli_outcome(argv)
        if code == 2:
            names = [*flags, *(key for flag in flags for key in RUN_FLAGS[flag][1])]
            assert any(
                re.search(rf"(?<![\w-]){re.escape(name)}(?![\w-])", err)
                for name in names
            ), err


class TestCheckFuzz:
    """`check` of a corrupted trajectory or sidecar ends in a verdict or
    a located input error: exit 0, 1 or 2, never a traceback."""

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("fuzz")
        run(small_config(trials=1), out_dir=out)
        csv_path = out / "trial_000.csv"
        paths = (csv_path, trajectory.meta_path_for(csv_path))
        return csv_path, {path: path.read_bytes() for path in paths}

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_exit_code_and_message(self, saved, data):
        csv_path, originals = saved
        contents = dict(originals)
        for _ in range(data.draw(st.integers(1, 3), label="mutations")):
            path = data.draw(st.sampled_from(sorted(contents)), label="file")
            contents[path] = data.draw(corrupted(contents[path]), label=path.name)
        for path, raw in contents.items():
            path.write_bytes(raw)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["check", str(csv_path)])
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2), err
        assert "Traceback" not in out + err
        if code == 1:
            assert ": fail" in out
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_blocked_read_equals_line_read(self, saved, data):
        # A corrupted file reads to the same arrays, or the same error,
        # line by line (BLOCK_ROWS 1) as in blocks of 7 or 256 rows.
        csv_path, originals = saved
        raw = originals[csv_path]
        for _ in range(data.draw(st.integers(1, 3), label="mutations")):
            raw = data.draw(corrupted(raw), label="csv")
        self._write(originals, csv_path, raw)
        blocked_read_outcome(csv_path)

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(
            st.lists(json_numbers(), min_size=7, max_size=7),
            min_size=1,
            max_size=9,
        )
    )
    def test_json_numbers_read_as_the_line_parser(self, saved, rows):
        # Every JSON number reads to the bits a float() line parser
        # gives, but -0, JSON's integer zero, which reads as 0.0. One too
        # large for a float64 is refused as non-finite, at the first.
        csv_path, originals = saved
        header = originals[csv_path].split(b"\n", 1)[0]
        body = "".join(",".join(row) + "\n" for row in rows)
        raw = header + b"\n" + body.encode()
        self._write(originals, csv_path, raw, n=len(rows), alpha=0.0, beta=0.0)
        table = np.array([[0.0 if c == "-0" else float(c) for c in row] for row in rows])
        outcome = blocked_read_outcome(csv_path)
        if np.isfinite(table).all():
            eta = json.loads(originals[trajectory.meta_path_for(csv_path)])["eta"]
            assert outcome == expected_read(csv_path, table, eta)
        else:
            i, j = np.argwhere(~np.isfinite(table))[0]
            cell, at = rows[i][j], cell_offset(raw, i + 1, j)
            assert outcome == (TrajectoryParseError, f"non-finite field {cell!r} at byte {at}")

    @staticmethod
    def _write(originals, csv_path, raw: bytes, **meta_changes) -> None:
        """The trajectory as raw, beside its original sidecar with
        meta_changes made."""
        for path, original in originals.items():
            if path == csv_path:
                path.write_bytes(raw)
            elif meta_changes:
                path.write_text(json.dumps({**json.loads(original), **meta_changes}))
            else:
                path.write_bytes(original)

    @pytest.mark.parametrize(
        "key",
        [
            "eta", "norm_bound", "seed", "alpha", "beta", "n", "m",
            "init_v_hat", "v_star",
        ],
    )
    def test_numeric_sidecar_values_never_exit_4(self, saved, key, capsys):
        # n = 10**30 must be refused before the reader allocates for it.
        # The at-v* start and v* get the value in their first entry, which
        # sets them apart.
        csv_path, originals = saved
        self._write(originals, csv_path, originals[csv_path])
        meta_file = trajectory.meta_path_for(csv_path)
        for value in (1e308, -1e308, -1.0, 0.0, 5e-324, -5e-324, 1e200, 10**30):
            meta = json.loads(originals[meta_file])
            # An older sidecar's m, which the reader ignores.
            if isinstance(meta.get(key), list):
                meta[key][0] = value
            else:
                meta[key] = value
            meta_file.write_text(json.dumps(meta))
            code = main(["check", str(csv_path)])
            out, err = capsys.readouterr()
            assert code in (0, 1, 2), (value, err)
            if code == 2:
                assert err.startswith("error: ") and err.count("\n") == 1
