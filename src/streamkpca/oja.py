"""Streaming top-component updater in a normalized log-domain representation.

The iterate after step i is v_i = v_{i-1} + eta * <phi(x_i), v_{i-1}> * phi(x_i).
Its norm grows exponentially along the stream, so the state keeps only the
unit direction v_hat and the accumulated log norm L = log ||v_i|| (relative
to ||v_0|| = 1). The per-step log increment uses the closed form

    ||v_i||^2 / ||v_{i-1}||^2 = 1 + eta * (2 + eta*||f||^2) * s^2,

with f = phi(x_i) and s = <f, v_hat_{i-1}>, evaluated through log1p so tiny
increments do not lose precision. The factor is formed as written: at
an eta near 1e-155, which a large spectrum scale gives, eta^2 alone
would underflow and drop the eta^2*||f||^2 part of the growth. The direction itself is renormalized
every step from the directly computed ||u||. That arithmetic, with its
non-finite guard, is ``_update``, the spec: ``oja_step`` applies it to
one sample.

``run_stream`` computes the same map in closed form, one lifted block
at a time. Over k lifted rows F starting at unit v_hat, the
unnormalized iterate is v_i = v_hat + eta * sum_{j<=i} t_j f_j with
t_i = <f_i, v_{i-1}>, and these t solve the unit lower triangular
system (I - eta * tril(F F^T, -1)) t = F v_hat; the norms follow as
||v_i||^2 = 1 + sum_{j<=i} eta * (2 + eta*||f_j||^2) t_j^2. This is the
compact-WY aggregation (Schreiber & Van Loan 1989) of Oja's rank-one
factors I + eta f f^T. The block's system is solved ``_SOLVE_ROWS``
rows at a time: one batched product gives the Gram matrix of every
sub-block F_c, and sub-block c solves (I - eta * tril(F_c F_c^T, -1))
t_c = F_c w against the unnormalized iterate w the solves before it
left, then carries w <- w + eta * F_c^T t_c. One vectorized epilogue
over the block then forms the norms, s, the log ratios and the
normalized directions. Only the order of the arithmetic differs from
``_update``, so the records agree with a fold of ``oja_step`` to
rounding, not bit for bit. A block with a step too large for the
closed form (eta * ||f||^2 > 1, never under a certified bound) or
whose closed form is not finite is rerun through ``_update``, which
raises the NumericError naming the step. The pass holds
O(unit_rows(m) * m + BLOCK_ROWS * _SOLVE_ROWS) floats, and with no
reader O(BLOCK_ROWS * (m + _SOLVE_ROWS)).

The pass keeps no record: it lifts each block into one buffer of
BLOCK_ROWS rows, solves it into the rows of one buffer of
``unit_rows(m)`` steps (one block's, with no reader), both allocated
once, and hands each full unit to its readers (the certificate, the CSV
writer).
Row i holds step i's s, ||f||^2 and log ratio, then the direction after
it; row 0 is three zeros, then the start. ``Trajectory.record``
collects the units into one table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

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

# About the bytes of a unit of run_stream's rows. Each reader has a fixed
# cost per unit: units of one block took a checked, written identity
# d=20 trial of 2e4 steps from 95 to 143 ms (2-vCPU host, in process).
_UNIT_BYTES = 1 << 20


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
    """Update configuration: learning rate and feature map.

    ``norm_bound``, when given, is the certified bound B on ||phi(x)||^2
    and enforces the eta <= 0.1/B precondition the growth guarantees
    need.
    """

    eta: float
    feature_map: FeatureMapSpec
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
    """Normalized iterate plus accumulated log norm; O(m) memory total."""

    v_hat: np.ndarray
    log_norm: float
    step: int


STEP_COLUMNS = ("s", "phi_norm_sq", "log_ratio")


@dataclass
class _Head:
    """What a run's readers need before step 1. ``seed`` keys the
    checker's pair sampling; the harness sets it to the trial seed."""

    config: OjaConfig
    init_v_hat: np.ndarray
    n: int
    seed: int

    @property
    def m(self) -> int:
        return int(self.init_v_hat.shape[0])


@dataclass
class Trajectory:
    """A run held in memory: config and its step table.

    ``table`` is (n+1, 3+m): row i holds step i's s, ||f||^2 and log
    ratio, then the direction after it; row 0 holds three zeros, then
    the start ``init_v_hat``. ``seed`` is _Head's.

    The table is kept in C order (a copy is made of any other), so each
    row is contiguous, and made read-only.

    Raises:
        ValueError: a table that is not 2-D with a row and at least 4
            columns, or that holds a non-finite value.
    """

    config: OjaConfig
    table: np.ndarray
    seed: int = 0

    def __post_init__(self):
        table = np.asarray(self.table, dtype=np.float64, order="C")
        if table.ndim != 2 or table.shape[0] < 1 or table.shape[1] < 4:
            raise ValueError(
                f"table has shape {table.shape}, not (n+1, 3+m) with n >= 0, m >= 1"
            )
        # The checks' inequalities compare against NaN as false or pass
        # it through min/max, so a non-finite value is refused here.
        if not np.isfinite(table).all():
            cell = np.argwhere(~np.isfinite(table))[0].tolist()
            raise ValueError(f"non-finite value in table at {cell}")
        table.flags.writeable = False
        self.table = table

    @classmethod
    def record(cls, xs, cfg: OjaConfig, init: StreamState, *, seed: int = 0):
        """run_stream over xs from init, its units collected into a table."""
        rows = [np.concatenate((np.zeros(3), init.v_hat))[None, :]]
        run_stream(xs, cfg, init, into=[lambda unit: rows.append(unit[1:].copy())])
        return cls(cfg, np.concatenate(rows), seed=seed)

    @property
    def n(self) -> int:
        return self.table.shape[0] - 1

    @property
    def m(self) -> int:
        return self.table.shape[1] - 3

    @property
    def init_v_hat(self) -> np.ndarray:
        """The start, row 0's direction (a read-only view)."""
        return self.table[0, 3:]

    def units(self) -> Iterator[np.ndarray]:
        """The steps as units of linalg.BLOCK_ROWS steps, the first
        starting at step 1, the last maybe shorter: each the k + 1 table
        rows from the one before its first step to its last (views)."""
        rows = linalg.BLOCK_ROWS
        for start in range(0, self.n, rows):
            yield self.table[start : start + rows + 1]


def init_state(m: int, seed: int) -> StreamState:
    """Seeded random start: a standard Gaussian draw normalized to unit length."""
    if m < 1:
        raise ValueError("m must be positive")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(m)
    v /= np.linalg.norm(v)
    return StreamState(v_hat=v, log_norm=0.0, step=0)


def init_state_at(v0) -> StreamState:
    """Start exactly at the direction of v0, whatever its norm: the
    normalized representation makes the trajectory independent of
    ||v0||. A start at v* is one whose direction is v* (see checks)."""
    v = as_vector(v0)
    with np.errstate(over="ignore"):
        n = float(np.linalg.norm(v))
    if n == 0.0 or n == math.inf:
        # The norm under- or overflowed: scale by the largest entry first.
        peak = float(np.abs(v).max(initial=0.0))
        if peak == 0.0:
            raise ValueError("v0 must be nonzero")
        v = v / peak
        n = float(np.linalg.norm(v))
    return StreamState(v_hat=v / n, log_norm=0.0, step=0)


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
    growth = eta * (2.0 + eta * phi_norm_sq) * s * s
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
) -> tuple[StreamState, tuple[float, float, float]]:
    """Advance the stream by one sample: the reference for run_stream.

    Returns the new state and the step's (s, ||f||^2, log ratio).

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
        v_hat=v_hat, log_norm=state.log_norm + 0.5 * log_ratio, step=state.step + 1
    )
    return new_state, (s, phi_norm_sq, log_ratio)


def _solve_block(
    feats: np.ndarray, v_hat: np.ndarray, eta: float, weights: np.ndarray,
    out: np.ndarray,
) -> bool:
    """Take the steps of the lifted rows ``feats`` from unit ``v_hat`` in
    closed form, _SOLVE_ROWS rows per solve (see the module docstring).

    ``weights`` is -eta * np.tri(_SOLVE_ROWS, k=-1). Writes each step's
    row into ``out`` (k, 3+m): s, ||f||^2, log ratio and the direction
    after it. Returns False, leaving ``out`` partly written, when a step
    is too large for the closed form, a value is not finite or a norm is
    zero. The caller suppresses numpy's overflow and invalid warnings, as
    for _update.
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
    phi_norm_sq = diagonals.reshape(-1)[:k].copy()
    # With eta * ||f||^2 <= 1 no entry of a system exceeds its unit
    # diagonal, so partial pivoting keeps the rows in order and the solve
    # is forward substitution, as accurate as the steps. Past that the
    # solution loses digits fast (1e-8 relative at 2, all of them at 10).
    # A certified bound keeps eta * ||f||^2 <= 0.1. NaN fails the test too.
    if not eta * phi_norm_sq.max() <= 1.0:
        return False
    systems *= weights
    diagonals[...] = 1.0
    t = np.empty((subs, _SOLVE_ROWS))
    w = v_hat
    try:
        for c in range(subs):
            t[c] = np.linalg.solve(systems[c], rows[c] @ w)
            w = w + eta * (t[c] @ rows[c])
    except np.linalg.LinAlgError:  # an exactly zero pivot
        return False
    t = t.reshape(-1)[:k]
    growth = eta * (2.0 + eta * phi_norm_sq) * (t * t)
    norm_sq = np.empty(k + 1)
    norm_sq[0] = 0.0
    np.cumsum(growth, out=norm_sq[1:])
    norm_sq += 1.0
    # norm_sq is a running sum of the nonnegative growth terms, so a
    # finite last entry means every t, growth and log ratio is finite.
    if not math.isfinite(norm_sq[-1]):
        return False
    out[:, 0] = t / np.sqrt(norm_sq[:-1])
    out[:, 1] = phi_norm_sq
    out[:, 2] = np.log1p(growth / norm_sq[:-1])
    # Each direction is v_i, divided by its own computed norm.
    v = out[:, 3:]
    np.multiply((eta * t)[:, None], feats, out=v)
    np.cumsum(v, axis=0, out=v)
    v += v_hat
    u_norm_sq = np.einsum("ij,ij->i", v, v)
    if not (np.isfinite(u_norm_sq).all() and u_norm_sq.min() > 0.0):
        return False
    v /= np.sqrt(u_norm_sq)[:, None]
    return True


def _step_rows(
    feats: np.ndarray, v_hat: np.ndarray, eta: float, step: int,
    out: np.ndarray,
) -> None:
    """_solve_block's rows, one _update per row; ``step`` numbers the
    first row. Raises _update's NumericError at the first bad step."""
    for row, f in zip(out, feats):
        v_hat, row[0], row[1], row[2] = _update(v_hat, f, eta, step)
        row[3:] = v_hat
        step += 1


def unit_rows(m: int) -> int:
    """Steps in a unit of run_stream: the whole blocks whose rows fit in
    _UNIT_BYTES, at least one."""
    rows = linalg.BLOCK_ROWS
    return max(1, _UNIT_BYTES // (8 * (3 + m) * rows)) * rows


def run_stream(xs, cfg: OjaConfig, init: StreamState, *, into=()) -> StreamState:
    """Run the update over a finite stream in arrival order and return
    the final state; an empty stream returns ``init`` itself.

    ``xs`` is a stream (datagen.SpikedStream) or an (n, d) array of
    input vectors (see linalg.row_blocks). Each block of
    linalg.BLOCK_ROWS rows is lifted and validated at once, so a
    malformed sample is reported before any step of its block runs.
    Each block's steps are then taken in closed form by _solve_block,
    _SOLVE_ROWS steps per triangular solve, or by _update, row by row,
    where a step of the block is too large for the closed form or it is
    not finite: the states and rows agree with a fold of oja_step over
    xs to rounding, and a NumericError is the fold's, naming the same
    step.

    Each block is solved into the rows of one buffer of unit_rows(m)
    steps, or of one block with no function in ``into``. When it is
    full, and after the last block, each function in the sequence
    ``into`` is called with the unit: the k + 1 rows from the one before
    its first step (a view the next unit overwrites).
    """
    _check_dims(cfg, init)
    m = init.v_hat.shape[0]
    steps = unit_rows(m) if into else linalg.BLOCK_ROWS
    unit = np.empty((steps + 1, 3 + m))
    unit[0] = np.concatenate((np.zeros(3), init.v_hat))
    eta = cfg.eta
    weights = -eta * np.tri(_SOLVE_ROWS, k=-1)
    lift = np.empty((linalg.BLOCK_ROWS, m))  # every block's lifted rows
    v_hat = init.v_hat
    log_norm = init.log_norm
    i = 0  # steps taken
    j = 0  # steps in the unit
    for block in linalg.row_blocks(xs):
        feats = cfg.feature_map.apply_batch(block, out=lift)
        k = feats.shape[0]
        if j + k >= len(unit):
            for reader in into:
                reader(unit[: j + 1])
            unit[0] = unit[j]
            j = 0
        out = unit[j + 1 : j + 1 + k]
        with np.errstate(over="ignore", invalid="ignore"):
            if not _solve_block(feats, v_hat, eta, weights, out):
                _step_rows(feats, v_hat, eta, init.step + i + 1, out)
        # One addition per step, in the fold's order.
        halves = np.concatenate(([log_norm], 0.5 * out[:, 2]))
        log_norm = float(np.cumsum(halves)[-1])
        v_hat = out[-1, 3:].copy()
        i += k
        j += k
    if not i:
        return init
    for reader in into:
        reader(unit[: j + 1])
    return StreamState(v_hat=v_hat, log_norm=log_norm, step=init.step + i)
