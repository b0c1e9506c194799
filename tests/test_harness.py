import contextlib
import dataclasses
import io
import json
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import streamkpca.harness as harness
from streamkpca import linalg
from streamkpca.cli import main
from streamkpca.datagen import SpikedSpec
from streamkpca.featuremaps import FeatureMapSpec
from streamkpca.harness import (
    ConfigError,
    RunConfig,
    TrajectoryParseError,
    TrialResult,
    check_trajectory_file,
    read_trajectory,
    run,
    run_trial,
    sweep,
    write_trajectory,
    write_trajectory_meta,
)
from streamkpca.oja import (
    NumericError,
    OjaConfig,
    Trajectory,
    init_state,
    run_stream,
)

from schema_util import validate

SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "docs" / "run_report.schema.json").read_text()
)


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


# Floats at the edges of how repr spells a float: signed zeros, the
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


def read_outcome(csv_path, block_rows: int, line_parser_only: bool = False):
    """read_trajectory's arrays as bytes, or its error's type and text,
    with linalg.BLOCK_ROWS = block_rows; line_parser_only parses every
    block with the line parser alone."""
    with contextlib.ExitStack() as patches:
        patches.enter_context(mock.patch.object(linalg, "BLOCK_ROWS", block_rows))
        if line_parser_only:
            patches.enter_context(
                mock.patch.object(harness, "_parse_block", lambda *args: None)
            )
        try:
            traj, _ = read_trajectory(csv_path)
        except (TrajectoryParseError, ConfigError) as exc:
            return type(exc), str(exc)
    columns = (traj.s, traj.phi_norm_sq, traj.log_ratio, traj.snapshots)
    return [None if c is None else c.tobytes() for c in columns]


def assert_blocked_read_is_line_read(csv_path) -> None:
    for block_rows in (1, 7, 256):
        assert read_outcome(csv_path, block_rows) == read_outcome(
            csv_path, block_rows, line_parser_only=True
        )


def extreme_table(n: int, width: int) -> np.ndarray:
    """An (n, width) table cycling through EXTREME_CELLS, shifted by one
    per column, so every column holds every cell once n >= its length."""
    i, j = np.indices((n, width))
    return np.array(EXTREME_CELLS)[(i + j) % len(EXTREME_CELLS)]


def repr_trajectory_csv(table: np.ndarray, snapshots: bool) -> bytes:
    """The trajectory CSV format by its definition: a header, then
    ``step,cell,...`` rows whose cells are Python's repr of each float."""
    header = list(harness.TRAJECTORY_HEADER)
    if snapshots:
        header += [f"vhat_{k}" for k in range(table.shape[1] - 3)]
    lines = [",".join(header)] + [
        f"{step}," + ",".join(map(repr, row))
        for step, row in enumerate(table.tolist(), start=1)
    ]
    return ("\n".join(lines) + "\n").encode("utf-8")


def trajectory_of(table: np.ndarray, snapshots: bool) -> Trajectory:
    """A trajectory whose columns are table's: s, phi_norm_sq, log_ratio,
    then (with snapshots) the directions after each step."""
    m = table.shape[1] - 3 if snapshots else 1
    init = np.ones(m)
    # The derived log norm of huge log_ratio cells may overflow to inf.
    with np.errstate(over="ignore"):
        return Trajectory(
            config=OjaConfig(
                eta=0.01,
                feature_map=FeatureMapSpec.identity(m),
                record_trajectory=True,
                snapshots=snapshots,
            ),
            init_kind="random",
            init_v_hat=init,
            init_log_norm=0.0,
            s=table[:, 0].copy(),
            phi_norm_sq=table[:, 1].copy(),
            log_ratio=table[:, 2].copy(),
            snapshots=np.vstack([init, table[:, 3:]]) if snapshots else None,
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
        report = run(small_config(trials=6, init="random"), out_dir=False)
        agg = report["aggregate"]["alignment_error"]
        assert agg["q10"] <= agg["median"] <= agg["q90"]
        for t in report["trials"]:
            assert 0.0 <= t["alignment_error"] <= 1.0

    def test_identical_configs_identical_reports(self):
        r1 = run(small_config(), out_dir=False)
        r2 = run(small_config(), out_dir=False)
        assert r1 == r2

    def test_trials_use_distinct_seeds(self):
        report = run(small_config(trials=3, init="random"), out_dir=False)
        seeds = [t["sample_seed"] for t in report["trials"]]
        assert len(set(seeds)) == 3

    def test_population_alignment_only_for_identity(self):
        report = run(small_config(trials=1), out_dir=False)
        assert report["trials"][0]["alignment_error_population"] is not None
        rff_cfg = small_config(
            trials=1,
            feature_map=FeatureMapSpec.rff(4, 16, 1.0, 9),
        )
        report = run(rff_cfg, out_dir=False)
        assert report["trials"][0]["alignment_error_population"] is None

    def test_numeric_abort_recorded(self, monkeypatch):
        def boom(*args, **kwargs):
            raise NumericError("synthetic abort")

        monkeypatch.setattr(harness, "run_stream", boom)
        report = run(small_config(trials=2, run_checks=False), out_dir=False)
        assert report["aggregate"]["aborted"] == 2
        assert all(t["error"] == "synthetic abort" for t in report["trials"])
        validate(report, SCHEMA)

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("STREAMKPCA_OUT", str(tmp_path / "envout"))
        run(small_config(trials=1))
        assert (tmp_path / "envout" / "report.json").exists()

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
        write_trajectory(csv_path, art.trajectory)
        write_trajectory_meta(csv_path, art.trajectory, art.result, art.x_star)
        return csv_path, art

    @pytest.mark.parametrize("snapshots", [True, False])
    @pytest.mark.parametrize("n", [0, 1, 120])
    def test_round_trip(self, tmp_path, n, snapshots):
        rng = np.random.default_rng(n)
        cfg = OjaConfig(
            eta=0.01,
            feature_map=FeatureMapSpec.identity(4),
            record_trajectory=True,
            snapshots=snapshots,
        )
        _, traj = run_stream(
            rng.standard_normal((n, 4)), cfg, init_state(4, 3), seed=17
        )
        self._assert_round_trip(tmp_path, traj, n, snapshots)
        # The same shape again, every cell one of the extreme floats.
        table = extreme_table(n, 3 + (traj.m if snapshots else 0))
        self._assert_round_trip(
            tmp_path,
            dataclasses.replace(
                traj,
                s=table[:, 0],
                phi_norm_sq=table[:, 1],
                log_ratio=table[:, 2],
                snapshots=(
                    np.vstack([traj.snapshots[:1], table[:, 3:]])
                    if snapshots
                    else None
                ),
            ),
            n,
            snapshots,
        )

    def _assert_round_trip(self, tmp_path, traj, n, snapshots):
        csv_path = tmp_path / "traj.csv"
        write_trajectory(csv_path, traj)
        result = TrialResult(trial=0, sample_seed=17, init_seed=3)
        write_trajectory_meta(csv_path, traj, result, None)
        # Reads whose blocks split the rows every which way.
        for block_rows in (1, 7, 256):
            with mock.patch.object(linalg, "BLOCK_ROWS", block_rows):
                loaded, meta = read_trajectory(csv_path)
            assert loaded.n == traj.n == n
            assert loaded.config.eta == traj.config.eta
            assert loaded.init_kind == traj.init_kind
            assert loaded.seed == traj.seed
            for name in ("s", "phi_norm_sq", "log_ratio", "log_norm", "init_v_hat"):
                assert getattr(loaded, name).tobytes() == getattr(traj, name).tobytes()
            if snapshots or n == 0:
                assert loaded.snapshots.tobytes() == traj.snapshots.tobytes()
            else:
                assert loaded.snapshots is None and traj.snapshots is None

    @settings(max_examples=200, deadline=None)
    @given(
        table=hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 9), st.integers(3, 12)),
            elements=st.floats(allow_nan=False, allow_infinity=False),
        ),
        snapshots=st.booleans(),
        block_rows=st.sampled_from([1, 4, 256]),
    )
    @example(table=extreme_table(12, 12), snapshots=True, block_rows=5)
    @example(table=extreme_table(12, 3), snapshots=False, block_rows=256)
    @example(table=extreme_table(1, 15), snapshots=True, block_rows=256)
    def test_cells_are_repr(self, tmp_path_factory, table, snapshots, block_rows):
        snapshots = snapshots and table.shape[1] > 3
        if not snapshots:
            table = table[:, :3]
        csv_path = tmp_path_factory.getbasetemp() / "parity.csv"
        with mock.patch.object(linalg, "BLOCK_ROWS", block_rows):
            write_trajectory(csv_path, trajectory_of(table, snapshots))
        assert csv_path.read_bytes() == repr_trajectory_csv(table, snapshots)

    @pytest.mark.parametrize("column", ["step", "s", "vhat_3"])
    @pytest.mark.parametrize("cell", JSON_EDGE_CELLS)
    def test_json_edge_cells_read_as_the_line_parser(self, saved, column, cell):
        # The cell goes into the first and the last row, and the file
        # loses its final newline, so the cell ends a field, a line and
        # the file in turn.
        csv_path, _ = saved
        lines = csv_path.read_bytes().split(b"\n")[:-1]
        j = lines[0].split(b",").index(column.encode())
        for row in (1, len(lines) - 1):
            cells = lines[row].split(b",")
            cells[j] = cell.encode()
            lines[row] = b",".join(cells)
        csv_path.write_bytes(b"\n".join(lines))
        assert_blocked_read_is_line_read(csv_path)

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
            read_trajectory(csv_path)
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
            read_trajectory(csv_path)
        msg = str(err.value)
        assert "non-finite" in msg
        offset = int(msg.rsplit("byte", 1)[1].strip())
        raw = csv_path.read_bytes()
        assert raw[offset : offset + len(token) + 1] == token.encode() + b","
        assert main(["check", str(csv_path)]) == 2

    @pytest.mark.parametrize("key", ["eta", "feature_map", "init", "init_v_hat"])
    def test_meta_missing_key(self, saved, key):
        csv_path, _ = saved
        meta_file = harness.meta_path_for(csv_path)
        meta = json.loads(meta_file.read_text())
        del meta[key]
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
        ],
    )
    def test_meta_mistyped_key(self, saved, key, value):
        csv_path, _ = saved
        meta_file = harness.meta_path_for(csv_path)
        meta = json.loads(meta_file.read_text())
        meta[key] = value
        meta_file.write_text(json.dumps(meta))
        with pytest.raises(ConfigError, match=f"key '{key}'"):
            read_trajectory(csv_path)
        assert main(["check", str(csv_path)]) == 2

    def test_meta_alpha_overflow_names_the_key(self, saved, capsys):
        # 1e308 overflows alpha**2; 1e154 squares to a finite float, and
        # the energy budget built from it overflows to inf.
        csv_path, _ = saved
        meta_file = harness.meta_path_for(csv_path)
        original = json.loads(meta_file.read_text())
        for alpha in (1e308, 1e154):
            meta_file.write_text(json.dumps({**original, "alpha": alpha}))
            with pytest.raises(ConfigError, match="key 'alpha'"):
                check_trajectory_file(csv_path)
            assert main(["check", str(csv_path)]) == 2
            assert "key 'alpha' overflows" in capsys.readouterr().err

    def test_meta_not_an_object(self, saved):
        csv_path, _ = saved
        harness.meta_path_for(csv_path).write_text("[1, 2]")
        with pytest.raises(ConfigError, match="JSON object"):
            read_trajectory(csv_path)

    def test_check_needs_beta(self, saved):
        csv_path, _ = saved
        meta_file = harness.meta_path_for(csv_path)
        meta = json.loads(meta_file.read_text())
        del meta["beta"]
        meta_file.write_text(json.dumps(meta))
        read_trajectory(csv_path)
        with pytest.raises(ConfigError, match="beta"):
            check_trajectory_file(csv_path)

    def test_invalid_utf8_reported_before_an_earlier_parse_error(self, saved):
        # The whole file must be UTF-8 before its fields are judged, even
        # though the reader stops at the first bad row.
        csv_path, _ = saved
        lines = csv_path.read_bytes().split(b"\n")
        lines[2] = b"2,not-a-number" + lines[2][lines[2].index(b",", 2) :]
        lines[9] = b"\xff" + lines[9]
        csv_path.write_bytes(b"\n".join(lines))
        offset = len(b"\n".join(lines[:9])) + 1
        with pytest.raises(TrajectoryParseError, match=f"invalid UTF-8 at byte {offset}$"):
            read_trajectory(csv_path)

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
            read_trajectory(csv_path)

    def test_non_consecutive_steps(self, saved):
        csv_path, _ = saved
        lines = csv_path.read_text().split("\n")
        cells = lines[2].split(",")
        cells[0] = "99"
        lines[2] = ",".join(cells)
        csv_path.write_text("\n".join(lines))
        with pytest.raises(TrajectoryParseError):
            read_trajectory(csv_path)


class TestSweep:
    def test_single_ratio_rejected(self):
        with pytest.raises(ConfigError):
            sweep(small_config(), [5.0])

    def test_ratio_below_one_rejected(self):
        with pytest.raises(ConfigError):
            sweep(small_config(), [0.5, 5.0])

    def test_rows_and_csv(self, tmp_path):
        out = sweep(small_config(trials=2), [4.0, 40.0], out_dir=tmp_path)
        assert [row["r_target"] for row in out["rows"]] == [4.0, 40.0]
        csv_text = (tmp_path / "sweep.csv").read_text()
        header = csv_text.split("\n", 1)[0]
        assert header == (
            "r_target,empirical_r_median,median_alignment_error,"
            "logd_over_r,bound_satisfied_fraction"
        )
        for row in out["rows"]:
            assert row["logd_over_r"] == math.log(4) / row["r_target"]

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
        iso_median = out["rows"][0]["median_alignment_error"]
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
        code = main(["check", str(tmp_path / "out" / "trial_000.csv")])
        assert code == 2

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
        csv_path, originals = saved
        raw = originals[csv_path]
        for _ in range(data.draw(st.integers(1, 3), label="mutations")):
            raw = data.draw(corrupted(raw), label="csv")
        self._write(originals, csv_path, raw)
        assert_blocked_read_is_line_read(csv_path)

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(
            st.lists(json_numbers(), min_size=7, max_size=7),
            min_size=1,
            max_size=9,
        )
    )
    def test_json_numbers_read_as_the_line_parser(self, saved, rows):
        csv_path, originals = saved
        header = originals[csv_path].split(b"\n", 1)[0]
        body = "".join(
            f"{step}," + ",".join(row) + "\n" for step, row in enumerate(rows, 1)
        )
        self._write(originals, csv_path, header + b"\n" + body.encode())
        assert_blocked_read_is_line_read(csv_path)

    @staticmethod
    def _write(originals, csv_path, raw: bytes) -> None:
        """The trajectory as raw, beside its original sidecar."""
        for path, original in originals.items():
            path.write_bytes(raw if path == csv_path else original)

    @pytest.mark.parametrize(
        "key", ["eta", "norm_bound", "init_log_norm", "alpha", "beta"]
    )
    def test_numeric_sidecar_values_never_exit_4(self, saved, key, capsys):
        csv_path, originals = saved
        self._write(originals, csv_path, originals[csv_path])
        meta_file = harness.meta_path_for(csv_path)
        for value in (1e308, -1e308, -1.0, 0.0, 5e-324, -5e-324, 1e200):
            meta = json.loads(originals[meta_file])
            meta[key] = value
            meta_file.write_text(json.dumps(meta))
            code = main(["check", str(csv_path)])
            out, err = capsys.readouterr()
            assert code in (0, 1, 2), (value, err)
            if code == 2:
                assert err.startswith("error: ") and err.count("\n") == 1
