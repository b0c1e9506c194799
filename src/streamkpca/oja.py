"""Streaming top-component updater in a normalized log-domain representation.

The iterate after step i is v_i = v_{i-1} + eta * <phi(x_i), v_{i-1}> * phi(x_i).
Its norm grows exponentially along the stream, so the state keeps only the
unit direction v_hat and the accumulated log norm L = log ||v_i|| (relative
to ||v_0|| = 1). The per-step log increment uses the closed form

    ||v_i||^2 / ||v_{i-1}||^2 = 1 + (2*eta + eta^2*||f||^2) * s^2,

with f = phi(x_i) and s = <f, v_hat_{i-1}>, evaluated through log1p so tiny
increments do not lose precision. The direction itself is renormalized
every step from the directly computed ||u||. That arithmetic, with its
non-finite guard, is ``_update``, the spec: ``oja_step`` applies it to
one sample.

``run_stream`` computes the same map in closed form, one lifted block
at a time. Over k lifted rows F starting at unit v_hat, the
unnormalized iterate is v_i = v_hat + eta * sum_{j<=i} t_j f_j with
t_i = <f_i, v_{i-1}>, and these t solve the unit lower triangular
system (I - eta * tril(F F^T, -1)) t = F v_hat; the norms follow as
||v_i||^2 = 1 + sum_{j<=i} (2*eta + eta^2*||f_j||^2) t_j^2. This is the
compact-WY aggregation (Schreiber & Van Loan 1989) of Oja's rank-one
factors I + eta f f^T. The block's system is solved ``_SOLVE_ROWS``
rows at a time: one batched product gives the Gram matrix of every
sub-block F_c, and sub-block c solves (I - eta * tril(F_c F_c^T, -1))
t_c = F_c w against the unnormalized iterate w the solves before it
left, then carries w <- w + eta * F_c^T t_c. One vectorized epilogue
over the block then forms the norms, s, the log ratios and the
normalized directions. Only the order of the arithmetic differs from
``_update``, so the columns agree with a fold of ``oja_step`` to
rounding, not bit for bit. A block with a step too large for the
closed form (eta * ||f||^2 > 1, never under a certified bound) or
whose closed form is not finite is rerun through ``_update``, which
raises the NumericError naming the step. The pass holds
O(BLOCK_ROWS * m + BLOCK_ROWS * _SOLVE_ROWS) floats.

A recorded run is a columnar Trajectory: the per-step scalars s,
||f||^2 and the log ratio as float64 arrays of length n, plus an
(n+1, m) array of directions whose row 0 is the start. The CSV writer
works on these arrays directly; the checker folds over them one
StepUnit of linalg.BLOCK_ROWS steps at a time (``Trajectory.units``),
as it does over a trajectory file read a unit at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np

from . import linalg
from .featuremaps import FeatureMapSpec
from .linalg import DimensionError, as_vector

# Def-style cap on the learning rate: eta must sit strictly inside (0, 0.1).
ETA_CEILING = float(np.nextafter(0.1, 0.0))

# Steps per triangular solve in run_stream. A solve costs O(k^3) and
# each numpy call a fixed overhead; of 16, 24, 32, 48 and 64, 32 was the
# fastest at m = 20 and 78 and within the run-to-run spread of the
# fastest at m = 128.
_SOLVE_ROWS = 32


class NumericError(ArithmeticError):
    """A stream update produced a non-finite intermediate."""


def select_learning_rate(norm_bound: float, user_eta: float | None = None) -> float:
    """Pick eta from a certified feature-norm bound B.

    Returns min(0.1/B, user_eta) when the user supplies a rate, else
    0.1/B, in both cases clamped strictly below 0.1.
    """
    if norm_bound <= 0:
        raise ValueError("norm_bound must be positive")
    eta = 0.1 / norm_bound
    if user_eta is not None:
        # min(eta, nan) is eta: a non-finite rate would vanish silently.
        if not 0.0 < user_eta < math.inf:
            raise ValueError(
                f"user_eta must be finite and positive, got {user_eta!r}"
            )
        eta = min(eta, user_eta)
    return min(eta, ETA_CEILING)


@dataclass(frozen=True)
class OjaConfig:
    """Update configuration: learning rate, feature map, recording flag.

    ``norm_bound``, when given, is the certified bound B on ||phi(x)||^2
    and enforces the eta <= 0.1/B precondition the growth guarantees
    need. ``record_trajectory`` records every step's scalars and the
    direction after it.
    """

    eta: float
    feature_map: FeatureMapSpec
    record_trajectory: bool = False
    norm_bound: float | None = None

    def __post_init__(self):
        if not (0.0 < self.eta < 0.1):
            raise ValueError("eta must lie strictly inside (0, 0.1)")
        if self.norm_bound is not None:
            if self.norm_bound <= 0:
                raise ValueError("norm_bound must be positive")
            if self.eta > (0.1 / self.norm_bound) * (1.0 + 1e-12):
                raise ValueError(
                    f"eta={self.eta} exceeds 0.1/B={0.1 / self.norm_bound}"
                )


@dataclass(frozen=True)
class StreamState:
    """Normalized iterate plus accumulated log norm; O(m) memory total.

    origin records how the state was initialized ("random" or "vstar")
    so trajectory checks can gate on the start-at-v* hypothesis.
    """

    v_hat: np.ndarray
    log_norm: float
    step: int
    origin: str = "random"


@dataclass(frozen=True)
class StepRecord:
    """Per-step scalars sufficient to recheck every growth inequality.

    log_ratio is log(||v_i||^2 / ||v_{i-1}||^2) from the closed form.
    """

    s: float
    phi_norm_sq: float
    log_ratio: float


STEP_COLUMNS = ("s", "phi_norm_sq", "log_ratio")


class StepUnit(NamedTuple):
    """Steps first, ..., first + k - 1 of a recorded run: their columns,
    each of length k, and the k + 1 directions from the one before step
    ``first`` to the one after its last step. The arrays may be views of
    a buffer that the next unit overwrites."""

    first: int
    s: np.ndarray
    phi_norm_sq: np.ndarray
    log_ratio: np.ndarray
    directions: np.ndarray


@dataclass
class Trajectory:
    """A recorded run: config, start kind and per-step columns.

    Index i of ``s``, ``phi_norm_sq`` and ``log_ratio`` is step i+1.
    ``snapshots`` is (n+1, m): the initial direction ``init_v_hat``, then
    the direction after each step. ``log_norm`` (n+1 entries, relative to
    step 0) is derived from ``log_ratio``. ``seed`` keys deterministic
    pair sampling in the post-hoc checker; the harness sets it to the
    trial seed.

    The snapshots are kept in C order (a copy is made of any other), so
    each direction is a contiguous row, as the checker's row-local
    products need for their bits not to depend on the layout.

    Raises:
        ValueError: a misshapen or non-finite array. Valid arrays are
            made read-only.
    """

    config: OjaConfig
    init_kind: str
    s: np.ndarray
    phi_norm_sq: np.ndarray
    log_ratio: np.ndarray
    snapshots: np.ndarray
    seed: int = 0
    log_norm: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = self.n
        self.snapshots = np.ascontiguousarray(self.snapshots)
        if np.ndim(self.snapshots) != 2:
            raise ValueError(f"snapshots has shape {np.shape(self.snapshots)}, not 2-D")
        shapes = {name: (n,) for name in STEP_COLUMNS}
        shapes["snapshots"] = (n + 1, self.m)
        # The checks' inequalities compare against NaN as false or pass
        # it through min/max, so a non-finite value is refused here.
        for name, shape in shapes.items():
            values = getattr(self, name)
            if np.shape(values) != shape:
                raise ValueError(f"{name} has shape {np.shape(values)}, not {shape}")
            if not np.isfinite(values).all():
                index = np.argwhere(~np.isfinite(values))[0].tolist()
                raise ValueError(f"non-finite value in {name} at index {index}")
            values.flags.writeable = False
        self.log_norm = np.concatenate(([0.0], 0.5 * np.cumsum(self.log_ratio)))

    @property
    def n(self) -> int:
        return int(self.s.shape[0])

    @property
    def m(self) -> int:
        return int(self.snapshots.shape[1])

    @property
    def init_v_hat(self) -> np.ndarray:
        """The start, snapshot row 0 (a read-only view)."""
        return self.snapshots[0]

    def units(self) -> Iterator[StepUnit]:
        """The steps as StepUnit views of linalg.BLOCK_ROWS steps each,
        the first starting at step 1; the last may be shorter."""
        rows = linalg.BLOCK_ROWS
        for start in range(0, self.n, rows):
            stop = min(start + rows, self.n)
            yield StepUnit(
                start + 1,
                self.s[start:stop],
                self.phi_norm_sq[start:stop],
                self.log_ratio[start:stop],
                self.snapshots[start : stop + 1],
            )


def init_state(m: int, seed: int) -> StreamState:
    """Seeded random start: a standard Gaussian draw normalized to unit length."""
    if m < 1:
        raise ValueError("m must be positive")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(m)
    v /= np.linalg.norm(v)
    return StreamState(v_hat=v, log_norm=0.0, step=0, origin="random")


def init_state_at(v0) -> StreamState:
    """Start exactly at a given direction (the at-v* initializer).

    The normalized representation makes the trajectory independent of
    ||v0||, so only the direction of v0 matters.
    """
    v = as_vector(v0)
    n = float(np.linalg.norm(v))
    if n == 0.0:
        raise ValueError("v0 must be nonzero")
    return StreamState(v_hat=v / n, log_norm=0.0, step=0, origin="vstar")


def _update(
    v_hat: np.ndarray, f: np.ndarray, eta: float, step: int
) -> tuple[np.ndarray, float, float, float]:
    """One update of unit direction v_hat by lifted sample f (step number
    ``step``): returns (new v_hat, s, ||f||^2, log ratio).

    The caller suppresses numpy's overflow warnings: an overflow is not
    a bug to warn about, it is detected here and turned into a
    NumericError abort.
    """
    s = float(f.dot(v_hat))
    phi_norm_sq = float(f.dot(f))
    u = v_hat + (eta * s) * f
    u_norm_sq = float(u.dot(u))
    growth = (2.0 * eta + eta * eta * phi_norm_sq) * s * s
    log_ratio = math.log1p(growth) if math.isfinite(growth) else math.inf
    if not (
        math.isfinite(s)
        and math.isfinite(phi_norm_sq)
        and math.isfinite(log_ratio)
        and math.isfinite(u_norm_sq)
        and u_norm_sq > 0.0
    ):
        raise NumericError(
            f"non-finite update at step {step}: "
            f"s={s}, phi_norm_sq={phi_norm_sq}, u_norm_sq={u_norm_sq}"
        )
    return u / math.sqrt(u_norm_sq), s, phi_norm_sq, log_ratio


def _check_dims(cfg: OjaConfig, state: StreamState) -> None:
    m = cfg.feature_map.feature_dim
    if m != state.v_hat.shape[0]:
        raise DimensionError(
            f"feature dim {m} does not match state dim {state.v_hat.shape[0]}"
        )


def oja_step(
    state: StreamState, x, cfg: OjaConfig
) -> tuple[StreamState, StepRecord]:
    """Advance the stream by one sample: the reference for run_stream.

    Returns the new state and the step record.

    Raises:
        NumericError: a non-finite value appeared in the update.
    """
    f = cfg.feature_map.apply(x)
    _check_dims(cfg, state)
    with np.errstate(over="ignore", invalid="ignore"):
        v_hat, s, phi_norm_sq, log_ratio = _update(
            state.v_hat, f, cfg.eta, state.step + 1
        )
    new_state = StreamState(
        v_hat=v_hat,
        log_norm=state.log_norm + 0.5 * log_ratio,
        step=state.step + 1,
        origin=state.origin,
    )
    return new_state, StepRecord(s, phi_norm_sq, log_ratio)


def _solve_block(
    feats: np.ndarray, v_hat: np.ndarray, eta: float, weights: np.ndarray,
    out: np.ndarray,
) -> np.ndarray | None:
    """Take the steps of the lifted rows ``feats`` from unit ``v_hat`` in
    closed form, _SOLVE_ROWS rows per solve (see the module docstring).

    ``weights`` is -eta * np.tri(_SOLVE_ROWS, k=-1). Writes the direction
    after each step into the rows of ``out`` and returns the (3, k)
    columns s, ||f||^2 and log ratio, or None, leaving ``out`` partly
    written, when a step is too large for the closed form, a value is
    not finite or a norm is zero. The caller suppresses numpy's overflow
    and invalid warnings, as for _update.
    """
    k, m = feats.shape
    subs = -(-k // _SOLVE_ROWS)
    # Zero rows pad the last sub-block: their t is 0 and they come after
    # every real row, so the real rows' systems are unchanged.
    padded = feats
    if k % _SOLVE_ROWS:
        padded = np.zeros((subs * _SOLVE_ROWS, m))
        padded[:k] = feats
    rows = padded.reshape(subs, _SOLVE_ROWS, m)
    systems = np.matmul(rows, rows.transpose(0, 2, 1))
    diagonals = systems.reshape(subs, -1)[:, :: _SOLVE_ROWS + 1]
    cols = np.empty((3, k))
    cols[1] = diagonals.reshape(-1)[:k]
    # With eta * ||f||^2 <= 1 no entry of a system exceeds its unit
    # diagonal, so partial pivoting keeps the rows in order and the solve
    # is forward substitution, as accurate as the steps. Past that the
    # solution loses digits fast (1e-8 relative at 2, all of them at 10).
    # A certified bound keeps eta * ||f||^2 <= 0.1. NaN fails the test too.
    if not eta * cols[1].max() <= 1.0:
        return None
    systems *= weights
    diagonals[...] = 1.0
    t = np.empty((subs, _SOLVE_ROWS))
    w = v_hat
    try:
        for c in range(subs):
            t[c] = np.linalg.solve(systems[c], rows[c] @ w)
            w = w + eta * (t[c] @ rows[c])
    except np.linalg.LinAlgError:  # an exactly zero pivot
        return None
    t = t.reshape(-1)[:k]
    growth = (2.0 * eta + eta * eta * cols[1]) * (t * t)
    norm_sq = np.empty(k + 1)
    norm_sq[0] = 0.0
    np.cumsum(growth, out=norm_sq[1:])
    norm_sq += 1.0
    # norm_sq is a running sum of the nonnegative growth terms, so a
    # finite last entry means every t, growth and log ratio is finite.
    if not math.isfinite(norm_sq[-1]):
        return None
    np.divide(t, np.sqrt(norm_sq[:-1]), out=cols[0])
    np.log1p(growth / norm_sq[:-1], out=cols[2])
    # Each row of out is v_i, divided by its own computed norm.
    np.multiply((eta * t)[:, None], feats, out=out)
    np.cumsum(out, axis=0, out=out)
    out += v_hat
    u_norm_sq = np.einsum("ij,ij->i", out, out)
    if not (np.isfinite(u_norm_sq).all() and u_norm_sq.min() > 0.0):
        return None
    out /= np.sqrt(u_norm_sq)[:, None]
    return cols


def _step_rows(
    feats: np.ndarray, v_hat: np.ndarray, eta: float, step: int,
    out: np.ndarray,
) -> np.ndarray:
    """_solve_block's contract, one _update per row; ``step`` numbers the
    first row. Raises _update's NumericError at the first bad step."""
    cols = np.empty((3, feats.shape[0]))
    for j, f in enumerate(feats):
        v_hat, cols[0, j], cols[1, j], cols[2, j] = _update(
            v_hat, f, eta, step + j
        )
        out[j] = v_hat
    return cols


def run_stream(
    xs, cfg: OjaConfig, init: StreamState, *, seed: int = 0
) -> tuple[StreamState, Trajectory | None]:
    """Run the update over a finite stream in arrival order.

    ``xs`` is any iterable of input vectors (rows of an (n, d) array
    work). Each block of linalg.BLOCK_ROWS rows is lifted and validated
    at once, so a malformed sample is reported before any step of its
    block runs. Each block's steps are then taken in closed form by
    _solve_block, _SOLVE_ROWS steps per triangular solve, or by _update,
    row by row, where a step of the block is too large for the closed
    form or it is not finite: the states and records agree with a fold
    of oja_step over xs to rounding, and a NumericError is the fold's,
    naming the same step. Recording does not change the arithmetic, so
    the final state is the same bits with or without it. An empty stream
    returns ``init`` itself. When cfg.record_trajectory is set, every
    step's s, ||f||^2, log ratio and new direction are written into the
    columns of the returned Trajectory; otherwise the second element is
    None.
    """
    _check_dims(cfg, init)
    record = cfg.record_trajectory
    if record and not hasattr(xs, "__len__"):
        xs = list(xs)
    n = len(xs) if record else 0
    m = init.v_hat.shape[0]
    steps = np.empty((3, n))
    snapshots = np.empty((n + 1, m))
    snapshots[0] = init.v_hat
    scratch = None if record else np.empty((linalg.BLOCK_ROWS, m))
    eta = cfg.eta
    weights = -eta * np.tri(_SOLVE_ROWS, k=-1)
    v_hat = init.v_hat
    log_norm = init.log_norm
    i = 0  # steps taken
    for block in linalg.row_blocks(xs):
        feats = cfg.feature_map.apply_batch(block)
        k = feats.shape[0]
        out = snapshots[i + 1 : i + 1 + k] if record else scratch[:k]
        with np.errstate(over="ignore", invalid="ignore"):
            cols = _solve_block(feats, v_hat, eta, weights, out)
            if cols is None:
                cols = _step_rows(feats, v_hat, eta, init.step + i + 1, out)
        if record:
            steps[:, i : i + k] = cols
        # One addition per step, in the fold's order.
        halves = np.concatenate(([log_norm], 0.5 * cols[2]))
        log_norm = float(np.cumsum(halves)[-1])
        v_hat = out[-1].copy()
        i += k
    state = init
    if i:
        state = StreamState(
            v_hat=v_hat, log_norm=log_norm, step=init.step + i, origin=init.origin
        )
    if not record:
        return state, None
    traj = Trajectory(
        config=cfg,
        init_kind=init.origin,
        s=steps[0],
        phi_norm_sq=steps[1],
        log_ratio=steps[2],
        snapshots=snapshots,
        seed=seed,
    )
    return state, traj
