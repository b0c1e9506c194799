import dataclasses
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamkpca import linalg, oja
from streamkpca.featuremaps import FeatureMapSpec
from streamkpca.linalg import DimensionError
from streamkpca.oja import (
    ETA_CEILING,
    STEP_COLUMNS,
    NumericError,
    OjaConfig,
    init_state,
    init_state_at,
    oja_step,
    run_stream,
    select_learning_rate,
)


def identity_config(d, eta, **kw):
    return OjaConfig(eta=eta, feature_map=FeatureMapSpec.identity(d), **kw)


def make_map(kind, d, seed):
    if kind == "identity":
        return FeatureMapSpec.identity(d)
    if kind == "poly2":
        return FeatureMapSpec.poly2(d)
    return FeatureMapSpec.rff(d, 1 + seed % 40, 1.5, seed)


def start_state(phi, xs, seed, at_vstar):
    """A seeded random start, or one at the top eigenvector of the
    lifted stream's second moment."""
    if not at_vstar:
        return init_state(phi.feature_dim, seed)
    feats = phi.apply_batch(xs) if len(xs) else np.eye(phi.feature_dim)
    return init_state_at(np.linalg.eigh(feats.T @ feats)[1][:, -1])


def fold(xs, cfg, init):
    """oja_step folded over xs: the final state and the (n+1, 3+m) table
    of its steps, laid out as Trajectory.table."""
    state, rows = init, [np.concatenate(([0.0, 0.0, 0.0], init.v_hat))]
    for x in xs:
        state, record = oja_step(state, x, cfg)
        rows.append(np.concatenate((record, state.v_hat)))
    return state, np.array(rows)


def assert_close(got, expected):
    got, expected = np.asarray(got), np.asarray(expected, dtype=np.float64)
    assert got.shape == expected.shape
    tol = 1e-12 * np.maximum(1.0, np.abs(expected))
    assert (np.abs(got - expected) <= tol).all()


class TestSelectLearningRate:
    def test_from_bound(self):
        assert select_learning_rate(25.0) == 0.004

    def test_user_value_under_cap(self):
        assert select_learning_rate(2.0, 0.01) == 0.01

    def test_open_interval_clamp(self):
        eta = select_learning_rate(0.5)
        assert eta < 0.1
        assert eta == ETA_CEILING

    def test_bad_bound(self):
        with pytest.raises(ValueError):
            select_learning_rate(0.0)

    def test_bad_user_eta(self):
        with pytest.raises(ValueError):
            select_learning_rate(1.0, -0.1)

    @pytest.mark.parametrize("user_eta", [math.nan, math.inf])
    def test_non_finite_user_eta(self, user_eta):
        # min(0.1/B, nan) is 0.1/B: the rate would be dropped silently.
        with pytest.raises(ValueError, match=f"got {user_eta!r}"):
            select_learning_rate(1.0, user_eta)


class TestConfig:
    def test_eta_range(self):
        with pytest.raises(ValueError):
            identity_config(2, 0.1)
        with pytest.raises(ValueError):
            identity_config(2, 0.0)

    def test_eta_versus_bound(self):
        with pytest.raises(ValueError):
            identity_config(2, 0.05, norm_bound=25.0)
        identity_config(2, 0.004, norm_bound=25.0)


class TestInit:
    def test_determinism(self):
        a = init_state(5, 42)
        b = init_state(5, 42)
        assert np.array_equal(a.v_hat, b.v_hat)

    def test_unit_norm(self):
        st = init_state(3, 7)
        assert abs(np.linalg.norm(st.v_hat) - 1.0) <= 1e-12
        assert st.log_norm == 0.0 and st.step == 0
        assert st.origin == "random"

    def test_rotational_symmetry_monte_carlo(self):
        draws = np.array([init_state(2, seed).v_hat for seed in range(10**4)])
        assert np.abs(draws.mean(axis=0)).max() <= 0.05

    def test_at_point_basis_vector(self):
        st = init_state_at([1.0, 0.0])
        assert np.array_equal(st.v_hat, [1.0, 0.0])
        assert st.origin == "vstar"

    def test_at_point_scale_free(self):
        st = init_state_at([2.0, 0.0])
        assert np.array_equal(st.v_hat, [1.0, 0.0])
        assert st.log_norm == 0.0

    def test_at_point_diagonal(self):
        st = init_state_at([1.0, 1.0])
        assert np.allclose(st.v_hat, np.array([1, 1]) / math.sqrt(2), atol=1e-15)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            init_state_at([0.0, 0.0])

    def test_bad_m(self):
        with pytest.raises(ValueError):
            init_state(0, 1)


class TestStep:
    def test_orthogonal_sample_is_noop(self):
        cfg = identity_config(2, 0.05)
        state = init_state_at([1.0, 0.0])
        new, (s, _, log_ratio) = oja_step(state, [0.0, 1.0], cfg)
        assert np.array_equal(new.v_hat, [1.0, 0.0])
        assert log_ratio == 0.0
        assert s == 0.0

    def test_collinear_sample_growth(self):
        cfg = identity_config(2, 0.05)
        state = init_state_at([1.0, 0.0])
        new, (_, _, log_ratio) = oja_step(state, [1.0, 0.0], cfg)
        assert np.array_equal(new.v_hat, [1.0, 0.0])
        # (1 + eta)^2 = 1.1025 growth in the squared norm
        assert abs(log_ratio - math.log(1.1025)) <= 1e-15
        assert abs(math.exp(new.log_norm) - 1.05) <= 1e-14

    def test_generic_sample_against_closed_form(self):
        # Oracle: closed form 1 + (2*eta + eta^2*25)*9 versus the norm of
        # the explicitly materialized unnormalized iterate.
        eta = 0.01
        cfg = identity_config(2, eta)
        state = init_state_at([1.0, 0.0])
        new, (_, _, log_ratio) = oja_step(state, [3.0, 4.0], cfg)
        u = np.array([1.0, 0.0]) + eta * 3.0 * np.array([3.0, 4.0])
        assert np.allclose(u, [1.09, 0.12], atol=1e-15)
        direct = math.log(float(u @ u))
        closed = math.log1p((2 * eta + eta * eta * 25.0) * 9.0)
        assert abs(log_ratio - closed) <= 1e-15
        assert abs(log_ratio - direct) <= 1e-12
        assert abs(log_ratio - math.log(1.2025)) <= 1e-12
        assert np.allclose(new.v_hat, u / np.linalg.norm(u), atol=1e-15)

    def test_non_finite_aborts(self):
        cfg = identity_config(2, 0.01)
        state = init_state_at([1.0, 0.0])
        with pytest.raises(NumericError):
            oja_step(state, [1e200, 0.0], cfg)


class TestRunStream:
    def test_fixed_point(self):
        cfg = identity_config(2, 0.05)
        xs = np.tile([1.0, 0.0], (50, 1))
        final, _ = run_stream(xs, cfg, init_state_at([1.0, 0.0]))
        assert np.array_equal(final.v_hat, [1.0, 0.0])
        assert final.step == 50

    def test_alignment_follows_scalar_recursion(self):
        # With a constant e1 stream only the first component grows, so the
        # squared alignment obeys (1+eta)^(2i) / ((1+eta)^(2i) + 1).
        eta = 0.05
        cfg = identity_config(2, eta, record_trajectory=True)
        xs = np.tile([1.0, 0.0], (30, 1))
        final, traj = run_stream(xs, cfg, init_state_at([1.0, 1.0]))
        aligns = [float(v[3]) ** 2 for v in traj.table[1:]]
        for i, a in enumerate(aligns, start=1):
            g = (1.0 + eta) ** (2 * i)
            assert abs(a - g / (g + 1.0)) <= 1e-12
        assert all(b > a for a, b in zip(aligns, aligns[1:]))

    def test_empty_stream(self):
        cfg = identity_config(2, 0.05, record_trajectory=True)
        init = init_state_at([1.0, 0.0])
        final, traj = run_stream(np.empty((0, 2)), cfg, init)
        assert final is init
        assert final.log_norm == 0.0
        assert traj.n == 0

    def test_scale_invariance_power_of_two(self):
        rng = np.random.default_rng(4)
        v0 = rng.standard_normal(5)
        xs = rng.standard_normal((40, 5))
        cfg = identity_config(5, 0.01, record_trajectory=True)
        _, t1 = run_stream(xs, cfg, init_state_at(v0))
        _, t2 = run_stream(xs, cfg, init_state_at(2.0 * v0))
        for v1, v2 in zip(t1.table[1:, 3:], t2.table[1:, 3:]):
            assert np.array_equal(v1, v2)

    def test_scale_invariance_generic(self):
        rng = np.random.default_rng(9)
        v0 = rng.standard_normal(4)
        xs = rng.standard_normal((30, 4))
        cfg = identity_config(4, 0.02, record_trajectory=True)
        _, t1 = run_stream(xs, cfg, init_state_at(v0))
        _, t2 = run_stream(xs, cfg, init_state_at(3.0 * v0))
        for v1, v2 in zip(t1.table[1:, 3:], t2.table[1:, 3:]):
            assert np.allclose(v1, v2, atol=1e-13)

    def test_records_disabled_by_default(self):
        cfg = identity_config(2, 0.05)
        _, traj = run_stream(np.tile([1.0, 0.0], (3, 1)), cfg, init_state_at([1.0, 0.0]))
        assert traj is None

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=600),
        d=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        record=st.booleans(),
        kind=st.sampled_from(["identity", "poly2", "rff"]),
        block_rows=st.sampled_from([1, 3, 7, 31, 32, 33, 64, 65, 96, 257, 1024]),
        at_vstar=st.booleans(),
    )
    def test_columns_equal_a_fold_of_oja_step(
        self, n, d, seed, record, kind, block_rows, at_vstar
    ):
        # run_stream solves each block in closed form: only the order of
        # the arithmetic differs from the fold, so every value agrees with
        # it to 1e-12 * max(1, |value|), far above the ~1e-14 seen.
        rng = np.random.default_rng(seed)
        xs = rng.standard_normal((n, d))
        phi = make_map(kind, d, seed)
        cfg = OjaConfig(
            eta=0.01,
            feature_map=phi,
            record_trajectory=record,
        )
        init = start_state(phi, xs, seed, at_vstar)
        # Small blocks make most streams cross block edges; blocks of 31,
        # 32, 33, 65, 96, 257 and 1024 rows end inside, on and just past
        # the edges of the 32-step solves, and 257 crosses both.
        with mock.patch.object(linalg, "BLOCK_ROWS", block_rows):
            final, traj = run_stream(xs, cfg, init, seed=seed)

        state, table = fold(xs, cfg, init)
        assert_close(final.v_hat, state.v_hat)
        assert_close(final.log_norm, state.log_norm)
        assert final.step == n
        assert final.origin == init.origin
        if n == 0:
            assert final is init
        if not record:
            assert traj is None
            return
        assert_close(traj.table, table)
        assert traj.seed == seed

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=200),
        d=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        kind=st.sampled_from(["identity", "poly2", "rff"]),
        block_rows=st.sampled_from([1, 7, 64, 65, 1024]),
    )
    def test_recording_does_not_change_the_bits(
        self, n, d, seed, kind, block_rows
    ):
        rng = np.random.default_rng(seed)
        xs = rng.standard_normal((n, d))
        phi = make_map(kind, d, seed)
        init = init_state(phi.feature_dim, seed)
        runs = []
        with mock.patch.object(linalg, "BLOCK_ROWS", block_rows):
            for record in (False, True, True):
                cfg = OjaConfig(eta=0.01, feature_map=phi, record_trajectory=record)
                runs.append(run_stream(xs, cfg, init))
        (bare, _), (first, traj), (again, rerun) = runs
        for state in (first, again):
            assert state.v_hat.tobytes() == bare.v_hat.tobytes()
            assert state.log_norm == bare.log_norm
        assert traj.table[-1, 3:].tobytes() == bare.v_hat.tobytes()
        assert traj.table.tobytes() == rerun.table.tobytes()

    @pytest.mark.parametrize("size", [0.5, 1.0, 2.0])
    def test_closed_form_only_for_small_steps(self, size):
        # Rows scaled so eta * max ||f||^2 = size. Up to 1 the closed-form
        # solves are used and agree with the fold; past it every step is
        # an _update, so the run is the fold's, bit for bit.
        rng = np.random.default_rng(5)
        xs = rng.standard_normal((100, 3))
        eta = 0.05
        xs *= math.sqrt(size / eta / np.max(np.sum(xs * xs, axis=1)))
        cfg = identity_config(3, eta, record_trajectory=True)
        init = init_state(3, 2)
        with mock.patch.object(oja, "_step_rows", wraps=oja._step_rows) as spy:
            final, traj = run_stream(xs, cfg, init)
        state, table = fold(xs, cfg, init)
        if size <= 1.0:
            assert spy.call_count == 0
            assert_close(traj.table, table)
            return
        assert spy.call_count == 1  # the one lifted block of 100 rows
        assert final.v_hat.tobytes() == state.v_hat.tobytes()
        assert final.log_norm == state.log_norm
        assert traj.table.tobytes() == table.tobytes()

    def test_overflowing_closed_form_is_taken_step_by_step(self):
        # eta = 1e-300 and ||f|| ~ 1e150: each step is finite, but the
        # unnormalized t of a solve overflows when squared after a few
        # aligned steps, so the block falls back to _update.
        rng = np.random.default_rng(7)
        xs = np.column_stack([np.ones(100), 0.1 * rng.standard_normal(100)])
        xs *= 0.9e150
        cfg = identity_config(2, 1e-300, record_trajectory=True)
        init = init_state(2, 1)
        with mock.patch.object(oja, "_step_rows", wraps=oja._step_rows) as spy:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                final, traj = run_stream(xs, cfg, init)
        assert spy.call_count == 1
        state, table = fold(xs, cfg, init)
        assert final.v_hat.tobytes() == state.v_hat.tobytes()
        assert final.log_norm == state.log_norm
        assert traj.table.tobytes() == table.tobytes()

    @pytest.mark.parametrize("kind", ["identity", "poly2"])
    def test_one_gram_product_and_one_solve_per_32_steps(self, kind):
        # Blocks of 100, 100 and 57 rows under BLOCK_ROWS 100: each block
        # makes one batched Gram product of its ceil(k/32) zero-padded
        # sub-blocks and ceil(k/32) solves, and a certified stream never
        # falls back to _update.
        rng = np.random.default_rng(9)
        xs = rng.standard_normal((257, 3))
        phi = make_map(kind, 3, 0)
        feats = phi.apply_batch(xs)
        eta = select_learning_rate(float(np.max(np.sum(feats * feats, axis=1))))
        cfg = OjaConfig(eta=eta, feature_map=phi, record_trajectory=True)
        init = init_state(phi.feature_dim, 4)
        with (
            mock.patch.object(linalg, "BLOCK_ROWS", 100),
            mock.patch.object(np, "matmul", wraps=np.matmul) as matmul,
            mock.patch.object(np.linalg, "solve", wraps=np.linalg.solve) as solve,
            mock.patch.object(oja, "_step_rows", wraps=oja._step_rows) as step_rows,
        ):
            final, traj = run_stream(xs, cfg, init)
        assert step_rows.call_count == 0
        shapes = [tuple(c.args[0].shape) for c in matmul.call_args_list]
        m = phi.feature_dim
        assert shapes == [(4, 32, m), (4, 32, m), (2, 32, m)]
        assert solve.call_count == 4 + 4 + 2
        assert all(c.args[0].shape == (32, 32) for c in solve.call_args_list)
        state, table = fold(xs, cfg, init)
        assert_close(final.v_hat, state.v_hat)
        assert_close(traj.table, table)

    def test_failed_solve_is_taken_step_by_step(self):
        rng = np.random.default_rng(8)
        xs = rng.standard_normal((70, 4))
        cfg = identity_config(4, 0.01)
        init = init_state(4, 3)
        with mock.patch.object(
            np.linalg, "solve", side_effect=np.linalg.LinAlgError("Singular matrix")
        ):
            final, _ = run_stream(xs, cfg, init)
        state, _ = fold(xs, cfg, init)
        assert final.v_hat.tobytes() == state.v_hat.tobytes()
        assert final.log_norm == state.log_norm

    def test_any_iterable_of_rows(self):
        rng = np.random.default_rng(6)
        xs = rng.standard_normal((12, 3))
        cfg = identity_config(3, 0.02, record_trajectory=True)
        init = init_state(3, 1)
        with mock.patch.object(linalg, "BLOCK_ROWS", 5):
            _, from_array = run_stream(xs, cfg, init)
            _, from_list = run_stream([list(x) for x in xs], cfg, init)
            _, from_generator = run_stream((x for x in xs), cfg, init)
        for other in (from_list, from_generator):
            assert other.table.tobytes() == from_array.table.tobytes()

    def test_numeric_abort_in_a_later_solve_is_the_folds(self):
        # A positive stream keeps v_hat near (1, 1, 1, 1) / 2, so at step
        # 100, in the block's fourth 32-step solve, <f, v_hat> overflows for
        # f = 1e308 * (1, 1, 1, 1). The fold over the same prefix names
        # the same step and values.
        rng = np.random.default_rng(3)
        xs = np.abs(rng.standard_normal((150, 4)))
        xs[99] = 1e308
        cfg = identity_config(4, 0.01)
        init = init_state_at(np.ones(4))
        with pytest.raises(NumericError) as folded:
            fold(xs[:100], cfg, init)
        assert str(folded.value).startswith("non-finite update at step 100:")
        with mock.patch.object(linalg, "BLOCK_ROWS", 256):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NumericError) as blocked:
                    run_stream(xs, cfg, init)
        assert str(blocked.value) == str(folded.value)

    def test_numeric_abort_names_the_step(self):
        cfg = identity_config(2, 0.01)
        xs = np.ones((9, 2))
        xs[6] = [1e200, 0.0]
        with mock.patch.object(linalg, "BLOCK_ROWS", 4):
            with pytest.raises(NumericError, match="at step 7:"):
                run_stream(xs, cfg, init_state_at([1.0, 0.0]))

    def test_malformed_sample_rejected(self):
        cfg = identity_config(2, 0.01)
        with pytest.raises(DimensionError):
            run_stream(np.ones((3, 3)), cfg, init_state_at([1.0, 0.0]))
        with pytest.raises(ValueError, match="non-finite"):
            run_stream([[1.0, 0.0], [math.nan, 0.0]], cfg, init_state_at([1.0, 0.0]))

    def test_state_dimension_checked(self):
        cfg = identity_config(3, 0.01)
        with pytest.raises(DimensionError):
            run_stream(np.ones((2, 3)), cfg, init_state_at([1.0, 0.0]))
        with pytest.raises(DimensionError):
            oja_step(init_state_at([1.0, 0.0]), [1.0, 0.0, 0.0], cfg)

    def test_step_record_holds_three_scalars(self):
        # oja_step's record is a plain (s, ||f||^2, log ratio) tuple.
        cfg = identity_config(2, 0.05)
        _, record = oja_step(init_state_at([1.0, 0.0]), [3.0, 4.0], cfg)
        assert type(record) is tuple
        assert [type(x) for x in record] == [float, float, float]
        assert record[:2] == (3.0, 25.0)


@pytest.fixture()
def short_run():
    rng = np.random.default_rng(12)
    cfg = identity_config(3, 0.02, record_trajectory=True)
    _, traj = run_stream(rng.standard_normal((8, 3)), cfg, init_state(3, 4))
    return traj


# Where each step column and the directions live in a table.
TABLE_SLICES = {
    "s": (slice(1, None), 0),
    "phi_norm_sq": (slice(1, None), 1),
    "log_ratio": (slice(1, None), 2),
    "snapshots": (slice(None), slice(3, None)),
}


class TestTrajectoryValidation:
    """A table that is misshapen or holds a non-finite cell never reaches
    the checker: construction (and dataclasses.replace) refuses it."""

    @pytest.mark.parametrize(
        "column, index",
        [
            ("s", 5),
            ("phi_norm_sq", 5),
            ("log_ratio", 5),
            ("snapshots", (5, 1)),
            ("snapshots", (0, 1)),  # the start, init_v_hat
        ],
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_rejected(self, short_run, column, index, value):
        # Step 6's s, ||f||^2 and log ratio are table row 6, columns 0-2;
        # direction entry j after step i is row i, column 3 + j.
        if column == "snapshots":
            cell = [index[0], 3 + index[1]]
        else:
            cell = [index + 1, STEP_COLUMNS.index(column)]
        bad = short_run.table.copy()
        bad[tuple(cell)] = value
        with pytest.raises(ValueError, match=rf"non-finite value in table at \{cell}"):
            dataclasses.replace(short_run, table=bad)

    @pytest.mark.parametrize("column", ["s", "phi_norm_sq", "log_ratio"])
    def test_short_column_rejected(self, short_run, column):
        # A table that ends at a step column holds no direction.
        columns = STEP_COLUMNS.index(column) + 1
        with pytest.raises(ValueError, match=rf"table has shape \(9, {columns}\)"):
            dataclasses.replace(short_run, table=short_run.table[:, :columns])

    def test_snapshot_shape_rejected(self, short_run):
        table = short_run.table
        for bad in (table[0], table[None], table[:0], 1.0):
            with pytest.raises(ValueError, match="table has shape"):
                dataclasses.replace(short_run, table=bad)

    @pytest.mark.parametrize(
        "column", ["s", "phi_norm_sq", "log_ratio", "snapshots", "init_v_hat"]
    )
    def test_columns_cannot_be_edited_in_place(self, short_run, column):
        if column == "init_v_hat":
            view = short_run.init_v_hat
        else:
            view = short_run.table[TABLE_SLICES[column]]
        with pytest.raises(ValueError, match="read-only"):
            view[1] = math.nan

    def test_fortran_order_is_copied_to_c_order(self, short_run):
        fortran = np.asfortranarray(short_run.table)
        traj = dataclasses.replace(short_run, table=fortran)
        assert traj.table.flags.c_contiguous
        assert not np.shares_memory(traj.table, fortran)
        assert traj.table.tobytes() == short_run.table.tobytes()
        assert not traj.table.flags.writeable and fortran.flags.writeable

    def test_empty_trajectory_snapshot_is_the_start(self):
        cfg = identity_config(2, 0.05, record_trajectory=True)
        _, traj = run_stream(np.empty((0, 2)), cfg, init_state_at([0.6, 0.8]))
        assert np.array_equal(traj.table, [[0.0, 0.0, 0.0, 0.6, 0.8]])
        assert traj.n == 0
        # The start is row 0 itself, not a copy kept beside it.
        assert traj.m == 2 and np.shares_memory(traj.init_v_hat, traj.table)


@pytest.fixture(scope="module")
def recorded():
    rng = np.random.default_rng(31)
    d = 4
    phi = FeatureMapSpec.poly2(d)
    xs = rng.standard_normal((40, d)) * 0.8
    bound = phi.norm_bound(float(np.max(np.sum(xs**2, axis=1))))
    eta = select_learning_rate(bound)
    cfg = OjaConfig(
        eta=eta,
        feature_map=phi,
        record_trajectory=True,
        norm_bound=bound,
    )
    init = init_state(phi.feature_dim, 8)
    _, traj = run_stream(xs, cfg, init)
    feats = np.array([phi.apply(x) for x in xs])
    return traj, feats, eta


class TestUpdateInvariants:
    """The five update properties, verified against truly materialized
    features and unnormalized iterates (the tests own the stream)."""

    def test_property_norm_identity_direct(self, recorded):
        traj, feats, eta = recorded
        for i, f in enumerate(feats):
            s, _, log_ratio = traj.table[i + 1, :3]
            u = traj.table[i, 3:] + eta * s * f
            direct = math.log(float(u @ u))
            assert abs(log_ratio - direct) <= 1e-12

    def test_property_monotone_norm(self, recorded):
        traj, _, _ = recorded
        assert all(r >= 0.0 for r in traj.table[1:, 2])

    def test_property_step_floor(self, recorded):
        traj, _, eta = recorded
        for s, _, log_ratio in traj.table[1:, :3]:
            assert log_ratio >= eta * s**2 - 1e-12

    def test_property_interval_floor_all_pairs(self, recorded):
        traj, _, eta = recorded
        log_norm = np.concatenate(([0.0], 0.5 * np.cumsum(traj.table[1:, 2])))
        energy = np.concatenate(([0.0], np.cumsum(eta * traj.table[1:, 0] ** 2)))
        n = traj.n
        for a in range(n):
            for b in range(a + 1, n + 1):
                lhs = 2.0 * (log_norm[b] - log_norm[a])
                rhs = energy[b] - energy[a]
                assert lhs >= rhs - 1e-9

    def test_property_increment_reconstruction(self, recorded):
        traj, feats, eta = recorded
        log_norm = np.concatenate(([0.0], 0.5 * np.cumsum(traj.table[1:, 2])))
        v_full = traj.table[:, 3:] * np.exp(log_norm)[:, None]
        n = traj.n
        increments = np.array(
            [
                eta * float(feats[i] @ v_full[i]) * feats[i]
                for i in range(n)
            ]
        )
        sums = np.vstack([np.zeros(traj.m), np.cumsum(increments, axis=0)])
        for a in range(n):
            for b in range(a + 1, n + 1):
                lhs = v_full[b] - v_full[a]
                rhs = sums[b] - sums[a]
                tol = 1e-9 * max(1.0, float(np.abs(lhs).max()))
                assert np.abs(lhs - rhs).max() <= tol

    def test_log_domain_norm_floor(self, recorded):
        # 2 L_n >= log(eta) + logsumexp_i(log s_i^2 + 2 L_{i-1})
        traj, _, eta = recorded
        log_norm = np.concatenate(([0.0], 0.5 * np.cumsum(traj.table[1:, 2])))
        s = traj.table[1:, 0]
        mask = s != 0.0
        terms = 2.0 * np.log(np.abs(s[mask])) + 2.0 * log_norm[:-1][mask]
        peak = terms.max()
        lse = peak + math.log(float(np.sum(np.exp(terms - peak))))
        assert 2.0 * log_norm[-1] >= math.log(eta) + lse - 1e-9

    def test_single_step_floor_by_hand(self, recorded):
        # One-step stream at the fixed point: the floor is met with the
        # exact closed-form increment.
        eta = 0.05
        cfg = identity_config(2, eta, record_trajectory=True)
        final, traj = run_stream(
            np.array([[1.0, 0.0]]), cfg, init_state_at([1.0, 0.0])
        )
        two_l1 = math.log1p(2 * eta + eta * eta)
        assert abs(2.0 * final.log_norm - two_l1) <= 1e-15
        assert two_l1 >= math.log(eta) + math.log(1.0) - 1e-12
