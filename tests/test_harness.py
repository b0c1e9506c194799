import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import streamkpca.harness as harness
from streamkpca import linalg
from streamkpca.checks import envelope, run_all_checks
from streamkpca.cli import build_parser, config_from_args, main
from streamkpca.datagen import SpikedSpec, make_spiked_stream
from streamkpca.featuremaps import FeatureMapSpec
from streamkpca.harness import (
    ConfigError,
    RunConfig,
    TrajectoryParseError,
    check_trajectory_file,
    read_trajectory,
    run,
    run_trial,
    sweep,
    write_trajectory,
)
from streamkpca.oja import (
    NumericError,
    OjaConfig,
    Trajectory,
    init_state,
    init_state_at,
    oja_step,
    run_stream,
    select_learning_rate,
)
from streamkpca.spectral import compute_alpha_beta, summarize

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
# The JSON_EDGE_CELLS that the trajectory grammar takes as data cells.
# It takes none of them as a step, nor any other edge cell anywhere.
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


def read_whole(csv_path) -> tuple[Trajectory, dict]:
    """read_trajectory's trajectory with every row read, as an in-memory
    Trajectory, and its sidecar."""
    traj, meta = read_trajectory(csv_path)
    rows = [np.concatenate(([0.0, 0.0, 0.0], traj.init_v_hat))[None, :]]
    rows += [unit[1:].copy() for unit in traj.units()]
    whole = Trajectory(traj.config, traj.init_kind, np.concatenate(rows), traj.seed)
    return whole, meta


def read_outcome(csv_path, block_rows: int):
    """The data cells read_whole returns, as the bytes of an
    (n, 3 + m) float64 table, or its error's type and text, with
    linalg.BLOCK_ROWS = block_rows."""
    with mock.patch.object(linalg, "BLOCK_ROWS", block_rows):
        try:
            traj, _ = read_whole(csv_path)
        except (TrajectoryParseError, ConfigError) as exc:
            return type(exc), str(exc)
    return traj.table[1:].tobytes()


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
            record_trajectory=True,
        ),
        init_kind="random",
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
        raw = small_config().to_dict()
        raw[key] = value
        with pytest.raises(ConfigError, match=f"^bad config: key '{key}' must be"):
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
        median = harness._median(values)
        assert type(median) is float
        assert np.float64(median).tobytes() == np.median(values).tobytes()

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

        def spy(config, trial):
            present.append(sorted(p.name for p in tmp_path.iterdir()))
            return real_run_trial(config, trial)

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
        cfg = small_config(trials=1, save_trajectories=True)
        art = run_trial(cfg, 0)
        csv_path = tmp_path / "traj.csv"
        write_trajectory(
            csv_path,
            art.trajectory,
            v_star=art.x_star,
            alpha=art.result.alpha,
            beta=art.result.beta,
        )
        return csv_path, art

    @pytest.mark.parametrize("n", [0, 1, 120])
    def test_round_trip(self, tmp_path, n):
        rng = np.random.default_rng(n)
        cfg = OjaConfig(
            eta=0.01,
            feature_map=FeatureMapSpec.identity(4),
            record_trajectory=True,
        )
        _, traj = run_stream(
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
        write_trajectory(csv_path, traj)
        # Reads whose blocks split the rows every which way.
        for block_rows in (1, 7, 256):
            with mock.patch.object(linalg, "BLOCK_ROWS", block_rows):
                loaded, meta = read_whole(csv_path)
            assert loaded.n == traj.n == n
            assert loaded.config.eta == traj.config.eta
            assert loaded.init_kind == traj.init_kind
            assert loaded.seed == traj.seed
            assert loaded.table.tobytes() == traj.table.tobytes()

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
    # Cells outside it first and last in a row, beside the step's comma
    # and the newline, in the first and the last row of the file.
    @example(table=ROW_ENDS_TABLE, block_rows=256)
    def test_cells_round_trip(self, tmp_path_factory, table, block_rows):
        csv_path = tmp_path_factory.getbasetemp() / "round_trip.csv"
        traj = trajectory_of(table)
        with mock.patch.object(linalg, "BLOCK_ROWS", block_rows):
            write_trajectory(csv_path, traj)
        header, *lines = csv_path.read_text(encoding="utf-8").split("\n")
        assert header == ",".join(
            harness.TRAJECTORY_HEADER + [f"vhat_{k}" for k in range(traj.m)]
        )
        assert lines.pop() == ""
        assert len(lines) == len(table)
        for step, (line, row) in enumerate(zip(lines, table), start=1):
            step_cell, *cells = line.split(",")
            assert step_cell == str(step)
            # float() gives back each cell's bits, -0.0 included.
            assert np.array(list(map(float, cells))).tobytes() == row.tobytes()
        # The reader takes every spelling the writer makes, to the same bits.
        assert read_outcome(csv_path, block_rows) == table.tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_writer_refuses_non_finite_cell(self, bad):
        # Trajectory refuses such a column, so the writer is called directly.
        block = extreme_table(4, 6)
        block[2, 5] = block[3, 0] = bad
        with pytest.raises(ValueError, match=f"{bad!r} at step 12, column 6$"):
            harness._csv_rows(block, 10)

    def test_writer_leaves_its_block_unchanged(self):
        block = extreme_table(12, 12)
        before = block.copy()
        harness._csv_rows(block, 1)
        assert block.tobytes() == before.tobytes()

    @pytest.mark.parametrize("column", ["step", "s", "vhat_3"])
    @pytest.mark.parametrize("cell", JSON_EDGE_CELLS)
    def test_json_edge_cells_read_as_the_line_parser(self, saved, column, cell):
        # The cell goes into the first and the last row, and the file
        # loses its final newline, so the cell ends a field, a line and
        # the file in turn. A data cell in the grammar reads as a float()
        # line parser reads it, but -0 reads as 0.0; any other cell is
        # refused at its byte, or at its row's where its commas change
        # the row's width.
        csv_path, _ = saved
        lines = csv_path.read_bytes().split(b"\n")[:-1]
        j = lines[0].split(b",").index(column.encode())
        table = np.array([[float(c) for c in line.split(b",")[1:]] for line in lines[1:]])
        for row in (1, len(lines) - 1):
            cells = lines[row].split(b",")
            cells[j] = cell.encode()
            lines[row] = b",".join(cells)
            if j > 0 and cell in GRAMMAR_EDGE_CELLS:
                table[row - 1, j - 1] = 0.0 if cell == "-0" else float(cell)
        raw = b"\n".join(lines)
        csv_path.write_bytes(raw)
        outcome = blocked_read_outcome(csv_path)
        if j > 0 and cell in GRAMMAR_EDGE_CELLS:
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
            ("step", "+2"),
        ],
    )
    def test_cells_outside_the_grammar_are_unparseable(
        self, saved, capsys, column, cell
    ):
        # float() reads each data cell and int() the step, and the reader
        # once took them; in row 2 each is now a located parse error.
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
        write_trajectory(again, art.trajectory)
        assert again.read_bytes() == csv_path.read_bytes()

    def test_missing_meta(self, saved):
        csv_path, _ = saved
        harness.meta_path_for(csv_path).unlink()
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
        "key", ["eta", "feature_map", "init", "init_v_hat", "n", "kind"]
    )
    def test_meta_missing_key(self, saved, key):
        csv_path, _ = saved
        meta_file = harness.meta_path_for(csv_path)
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
            ("init", "warm"),
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
        meta_file = harness.meta_path_for(csv_path)
        meta = json.loads(meta_file.read_text())
        meta[key] = value
        meta_file.write_text(json.dumps(meta))
        with pytest.raises(ConfigError, match=f"{meta_file.name}: key '{key}'"):
            read_trajectory(csv_path)
        assert main(["check", str(csv_path)]) == 2

    def test_sidecar_with_init_log_norm_still_reads(self, saved):
        # Sidecars written before the key was dropped carry it still.
        csv_path, _ = saved
        meta_file = harness.meta_path_for(csv_path)
        meta = json.loads(meta_file.read_text())
        assert "init_log_norm" not in meta
        expected = check_trajectory_file(csv_path).to_dict()
        meta_file.write_text(json.dumps({**meta, "init_log_norm": 0.0}))
        assert check_trajectory_file(csv_path).to_dict() == expected

    @pytest.mark.parametrize("m", [4, 99, 4.0])
    def test_sidecar_with_m_still_reads(self, saved, m):
        # Sidecars written before the key was dropped carry it still; the
        # width comes from init_v_hat, whatever m says.
        csv_path, _ = saved
        meta_file = harness.meta_path_for(csv_path)
        meta = json.loads(meta_file.read_text())
        assert "m" not in meta
        expected = check_trajectory_file(csv_path).to_dict()
        meta_file.write_text(json.dumps({**meta, "m": m}))
        assert check_trajectory_file(csv_path).to_dict() == expected

    def test_meta_alpha_overflow_names_the_key(self, saved, capsys):
        # 1e308 would overflow alpha**2, and 1e154 the energy budget built
        # from it; both lie far above the most a run can give.
        csv_path, _ = saved
        meta_file = harness.meta_path_for(csv_path)
        original = json.loads(meta_file.read_text())
        for alpha in (1e308, 1e154):
            meta_file.write_text(json.dumps({**original, "alpha": alpha}))
            with pytest.raises(ConfigError, match="key 'alpha'"):
                check_trajectory_file(csv_path)
            assert main(["check", str(csv_path)]) == 2
            assert "key 'alpha' + key 'beta'" in capsys.readouterr().err

    def test_meta_alpha_no_run_gives_is_refused(self, tmp_path, capsys):
        # An at-v* identity run: alpha = 1e100 keeps every arithmetic
        # step finite, yet alpha + beta <= eta * sum(phi_norm_sq) for
        # any unit v*.
        out = tmp_path / "out"
        assert main(PROBE_RUN + ["--out", str(out)]) == 0
        csv_path = out / "trial_000.csv"
        meta_file = harness.meta_path_for(csv_path)
        meta = json.loads(meta_file.read_text())
        most = meta["eta"] * float(np.sum(read_whole(csv_path)[0].table[1:, 1]))
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
        meta_file = harness.meta_path_for(csv_path)
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
        harness.meta_path_for(csv_path).write_text("[1, 2]")
        with pytest.raises(ConfigError, match="JSON object"):
            read_trajectory(csv_path)

    def test_check_needs_beta(self, saved, capsys):
        # And v_star and alpha: each null or missing is an input error
        # that names the sidecar and the key, though the file still reads.
        csv_path, _ = saved
        meta_file = harness.meta_path_for(csv_path)
        original = json.loads(meta_file.read_text())
        for key in ("v_star", "alpha", "beta"):
            for state in ("null", "missing"):
                meta = dict(original)
                if state == "null":
                    meta[key] = None
                else:
                    del meta[key]
                meta_file.write_text(json.dumps(meta))
                read_trajectory(csv_path)
                expected = (
                    f"bad trajectory metadata {meta_file.name}: key {key!r} "
                    f"is {state}; a check needs it"
                )
                with pytest.raises(ConfigError) as err:
                    check_trajectory_file(csv_path)
                assert str(err.value) == expected
                capsys.readouterr()
                assert main(["check", str(csv_path)]) == 2
                assert capsys.readouterr().err == f"error: {expected}\n"

    def test_written_pair_round_trips(self, tmp_path):
        # write_trajectory writes the sidecar too: without the oracle's
        # constants the pair reads back, and with them check_trajectory_file
        # gives run_all_checks's report.
        gen = SpikedSpec(input_dim=5, n=200, lambda1=1.0, lambda2=0.1,
                         basis_seed=3, sample_seed=4)
        xs, truth = make_spiked_stream(gen)
        phi = FeatureMapSpec.poly2(5)
        bound = phi.norm_bound(truth.norm_bound)
        eta = select_learning_rate(bound)
        summary = summarize(xs, phi)
        energies = compute_alpha_beta(summary, eta)
        cfg = OjaConfig(eta=eta, feature_map=phi, record_trajectory=True,
                        norm_bound=bound)
        _, traj = run_stream(xs, cfg, init_state(phi.feature_dim, 6), seed=4)
        csv_path = tmp_path / "traj.csv"
        write_trajectory(csv_path, traj)
        loaded, meta = read_whole(csv_path)
        assert loaded.table.tobytes() == traj.table.tobytes()
        assert (meta["v_star"], meta["alpha"], meta["beta"]) == (None, None, None)
        write_trajectory(
            csv_path,
            traj,
            v_star=summary.top_vector,
            alpha=energies.alpha,
            beta=energies.beta,
        )
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
        meta_file = harness.meta_path_for(csv_path)
        meta = json.loads(meta_file.read_text())
        last_row = raw[raw.rindex(b"\n", 0, -1) + 1 :]
        if cut == "short":
            raw = raw[: -len(last_row)]
        elif cut == "extra":
            raw += last_row
            offset = len(raw) - len(last_row)
        elif cut == "header_only":
            raw = raw[: raw.index(b"\n") + 1]
        else:
            meta_file.write_text(json.dumps({**meta, "n": 10**30}))
        csv_path.write_bytes(raw)
        if cut != "extra":
            offset = len(raw)  # where the rows run out
        with pytest.raises(TrajectoryParseError, match=f"at byte {offset}\\b"):
            read_whole(csv_path)
        capsys.readouterr()
        assert main(["check", str(csv_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_bad_header(self, saved):
        csv_path, _ = saved
        body = csv_path.read_text().split("\n", 1)[1]
        csv_path.write_text("a,b,c\n" + body)
        with pytest.raises(TrajectoryParseError):
            read_trajectory(csv_path)

    def test_ragged_row(self, saved):
        csv_path, _ = saved
        lines = csv_path.read_text().split("\n")
        lines[3] = lines[3] + ",0.5"
        csv_path.write_text("\n".join(lines))
        with pytest.raises(TrajectoryParseError):
            read_whole(csv_path)

    def test_non_consecutive_steps(self, saved):
        csv_path, _ = saved
        lines = csv_path.read_text().split("\n")
        cells = lines[2].split(",")
        cells[0] = "99"
        lines[2] = ",".join(cells)
        csv_path.write_text("\n".join(lines))
        with pytest.raises(TrajectoryParseError):
            read_whole(csv_path)


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
                    mock.patch.object(harness, "_chunk_rows", lambda n_fields: chunk_rows)
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
        meta_file = harness.meta_path_for(csv_path)
        meta = json.loads(meta_file.read_text())
        meta_file.write_text(json.dumps({**meta, "alpha": 1e100}))
        phi_norm_sq = read_whole(csv_path)[0].table[1:, 1]
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
            eta=select_learning_rate(bound), feature_map=phi,
            record_trajectory=True, norm_bound=bound,
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
    """A recorded run is one (n+1, 3+m) table: run_stream fills it as the
    fold of oja_step would, to rounding; the CSV's data cells are its rows
    1..n, bit for bit; and a file's units are the in-memory units' rows."""

    @pytest.mark.parametrize("n", [0, 1, 60, 255, 256, 257, 2003])
    @pytest.mark.parametrize("start_kind", ["random", "vstar"])
    @pytest.mark.parametrize("kind", list(LAYOUT_MAPS))
    def test_memory_pass_and_file_share_the_table(
        self, tmp_path, layout_streams, kind, start_kind, n
    ):
        xs, cfg, init, folded = layout_streams[kind, start_kind]
        _, traj = run_stream(xs[:n], cfg, init, seed=5)
        expected = folded[: n + 1]
        assert traj.table.shape == expected.shape
        tol = 1e-12 * np.maximum(1.0, np.abs(expected))
        assert (np.abs(traj.table - expected) <= tol).all()

        csv_path = tmp_path / "traj.csv"
        write_trajectory(csv_path, traj)
        lines = csv_path.read_text(encoding="utf-8").split("\n")[1:-1]
        assert len(lines) == n
        for row, line in zip(traj.table[1:], lines):
            cells = np.array([float(cell) for cell in line.split(",")[1:]])
            assert cells.tobytes() == row.tobytes()

        from_file, _ = read_trajectory(csv_path)
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

    def test_rows_and_csv(self, tmp_path):
        out = sweep(small_config(trials=2), [4.0, 40.0], out_dir=tmp_path)
        assert out["schema"] == "streamkpca-sweep/2"
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
        ],
        ids=[
            "ratio-nan", "ratio-inf", "ratios-nan", "ratios-below-one",
            "ratios-inf", "eta-nan", "eta-inf", "bandwidth-nan",
            "bandwidth-inf", "seed-negative",
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

    @pytest.mark.parametrize("n", [10**12, 10**30])
    def test_stream_too_long_to_allocate_is_config_error(
        self, tmp_path, monkeypatch, capsys, n
    ):
        # numpy refuses 10**30 rows before allocating. 10**12 rows of
        # d = 4 are 29 TiB: the stream's allocation is made to fail as
        # numpy's does where memory runs out, so none is attempted.
        monkeypatch.chdir(tmp_path)
        empty = np.empty

        def empty_failing_at_n(shape, *args, **kwargs):
            if isinstance(shape, tuple) and shape[0] == 10**12:
                raise MemoryError(f"Unable to allocate 29.1 TiB for shape {shape}")
            return empty(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", empty_failing_at_n)
        assert main(["run", "--dim", "4", "--n", str(n)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: stream length n = {n} ")
        assert err.count("\n") == 1
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

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_out_dir_precedence(self, tmp_path, monkeypatch, command):
        # --out, then the config file's out_dir, then STREAMKPCA_OUT.
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("STREAMKPCA_OUT", "from_env")
        small_config(trials=1, out_dir="from_config").save(tmp_path / "cfg.json")
        argv = [command, "--config", "cfg.json"]
        if command == "sweep":
            argv += ["--ratios", "5,20"]
        written = "report.json" if command == "run" else "sweep.json"
        assert main(argv) == 0
        assert (tmp_path / "from_config" / written).exists()
        assert main([*argv, "--out", "from_flag"]) == 0
        assert (tmp_path / "from_flag" / written).exists()
        assert not (tmp_path / "from_env").exists()
        assert not (tmp_path / "skpca-out").exists()

    @pytest.mark.parametrize(
        "key, value",
        [("eta_policy", True), ("eta_policy", "0.01"), ("out_dir", 5)],
    )
    def test_mistyped_run_key_is_config_error(
        self, tmp_path, monkeypatch, capsys, key, value
    ):
        # Not coerced: true and "0.01" are no learning rate, 5 no path.
        monkeypatch.chdir(tmp_path)
        raw = small_config(trials=1).to_dict()
        raw[key] = value
        (tmp_path / "cfg.json").write_text(json.dumps(raw))
        assert main(["run", "--config", "cfg.json", "--out", "out"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"bad config cfg.json: key {key!r} must be" in err
        assert repr(value) in err
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
            "".join(",".join(line.split(",")[:4]) + "\n" for line in lines)
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
        harness.meta_path_for(as_dir).write_bytes(
            harness.meta_path_for(csv_path).read_bytes()
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

        monkeypatch.setattr(harness, "run_all_checks", broken)
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

    @pytest.mark.parametrize("source", ["flags", "config"])
    @pytest.mark.parametrize(
        "phi, dim, feature_dim", [("rff", 6, 3000), ("poly2", 64, 2080)]
    )
    def test_oracle_cap_is_refused_before_the_stream(
        self, tmp_path, monkeypatch, capsys, source, phi, dim, feature_dim
    ):
        def no_stream(*args, **kwargs):
            raise AssertionError("the stream was generated")

        monkeypatch.setattr(harness, "make_spiked_stream", no_stream)
        monkeypatch.chdir(tmp_path)
        if source == "flags":
            argv = ["run", "--phi", phi, "--dim", str(dim), "--n", "200000"]
            if phi == "rff":
                argv += ["--feature-dim", str(feature_dim)]
        else:
            raw = small_config(trials=1).to_dict()
            raw["generator"]["input_dim"] = dim
            raw["feature_map"] = {
                "kind": phi, "input_dim": dim, "feature_dim": feature_dim
            }
            if phi == "rff":
                raw["feature_map"].update(bandwidth=1.0, seed=3)
            Path("cfg.json").write_text(json.dumps(raw))
            argv = ["run", "--config", "cfg.json"]
        assert main([*argv, "--out", "out"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"feature_dim {feature_dim}" in err
        assert str(linalg.MAX_ORACLE_DIM) in err
        assert not (tmp_path / "out").exists()

    def test_vstar_claim_without_its_start_is_input_error(self, tmp_path, capsys):
        # A random start relabelled "vstar" would fail the checks gated
        # on a v* start: not a verdict on the run, a contradictory file.
        argv = ["run", "--phi", "identity", "--dim", "6", "--n", "300",
                "--seed", "3", "--check", "--out", str(tmp_path / "out")]
        assert main(argv) == 0
        csv_path = tmp_path / "out" / "trial_000.csv"
        meta_file = harness.meta_path_for(csv_path)
        meta = json.loads(meta_file.read_text())
        meta["init"] = "vstar"
        meta_file.write_text(json.dumps(meta))
        capsys.readouterr()
        assert main(["check", str(csv_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        for key in ("init", "init_v_hat", "v_star"):
            assert f"key {key!r}" in err

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
        meta_file = harness.meta_path_for(csv_path)
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
        assert key in err and "unit norm" in err

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
            path = harness.meta_path_for(csv_path)
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
    out_dir="from_file",
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
    "--save-trajectories": (
        dataclasses.replace(NO_FILE, save_trajectories=True),
        dataclasses.replace(IN_FILE, save_trajectories=True),
    ),
    "--out o": (
        dataclasses.replace(NO_FILE, out_dir="o"),
        dataclasses.replace(IN_FILE, out_dir="o"),
    ),
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
        ],
        ids=["deep", "utf8", "parse"],
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


class TestCheckFuzz:
    """`check` of a corrupted trajectory or sidecar ends in a verdict or
    a located input error: exit 0, 1 or 2, never a traceback."""

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("fuzz")
        run(small_config(trials=1), out_dir=out)
        csv_path = out / "trial_000.csv"
        paths = (csv_path, harness.meta_path_for(csv_path))
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
        body = "".join(
            f"{step}," + ",".join(row) + "\n" for step, row in enumerate(rows, 1)
        )
        raw = header + b"\n" + body.encode()
        self._write(originals, csv_path, raw, n=len(rows))
        table = np.array([[0.0 if c == "-0" else float(c) for c in row] for row in rows])
        outcome = blocked_read_outcome(csv_path)
        if np.isfinite(table).all():
            assert outcome == table.tobytes()
        else:
            i, j = np.argwhere(~np.isfinite(table))[0]
            cell, at = rows[i][j], cell_offset(raw, i + 1, j + 1)
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
        meta_file = harness.meta_path_for(csv_path)
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
