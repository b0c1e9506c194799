"""Streaming top-component updater in a normalized log-domain representation.

The iterate after step i is v_i = v_{i-1} + eta * <phi(x_i), v_{i-1}> * phi(x_i).
Its norm grows exponentially along the stream, so the state keeps only the
unit direction v_hat and the accumulated log norm L = log ||v_i|| (relative
to ||v_0|| = 1). The per-step log increment uses the closed form

    ||v_i||^2 / ||v_{i-1}||^2 = 1 + (2*eta + eta^2*||f||^2) * s^2,

with f = phi(x_i) and s = <f, v_hat_{i-1}>, evaluated through log1p so tiny
increments do not lose precision. The direction itself is renormalized
every step from the directly computed ||u||. That arithmetic, with its
non-finite guard, exists once, in ``_update``: ``oja_step`` applies it
to one sample, and ``run_stream`` lifts the stream ``linalg.BLOCK_ROWS``
rows at a time and runs it over the lifted rows in order.

A recorded run is a columnar Trajectory: the per-step scalars s,
||f||^2 and the log ratio as float64 arrays of length n, plus an
(n+1, m) array of directions whose row 0 is the start. The checker and
the CSV writer and reader work on these arrays directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .featuremaps import FeatureMapSpec
from .linalg import DimensionError, as_vector

# Def-style cap on the learning rate: eta must sit strictly inside (0, 0.1).
ETA_CEILING = float(np.nextafter(0.1, 0.0))


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
        if user_eta <= 0:
            raise ValueError("user_eta must be positive")
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


@dataclass
class Trajectory:
    """A recorded run: config, initial state and per-step columns.

    Index i of ``s``, ``phi_norm_sq`` and ``log_ratio`` is step i+1.
    ``snapshots`` is (n+1, m): the initial direction, then the direction
    after each step. ``log_norm`` (n+1 entries, relative to step 0) is
    derived from ``log_ratio``. ``seed`` keys deterministic pair sampling
    in the post-hoc checker; the harness sets it to the trial seed.

    Raises:
        ValueError: a misshapen or non-finite array, or snapshots not
            starting at init_v_hat. Valid arrays are made read-only.
    """

    config: OjaConfig
    init_kind: str
    init_v_hat: np.ndarray
    init_log_norm: float
    s: np.ndarray
    phi_norm_sq: np.ndarray
    log_ratio: np.ndarray
    snapshots: np.ndarray
    seed: int = 0
    log_norm: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n, m = self.n, self.m
        shapes = {name: (n,) for name in STEP_COLUMNS}
        shapes.update(init_v_hat=(m,), snapshots=(n + 1, m))
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
        if not np.array_equal(self.snapshots[0], self.init_v_hat):
            raise ValueError("snapshot row 0 is not the initial direction")
        self.log_norm = np.concatenate(([0.0], 0.5 * np.cumsum(self.log_ratio)))

    @property
    def n(self) -> int:
        return int(self.s.shape[0])

    @property
    def m(self) -> int:
        return int(self.init_v_hat.shape[0])


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


def run_stream(
    xs, cfg: OjaConfig, init: StreamState, *, seed: int = 0
) -> tuple[StreamState, Trajectory | None]:
    """Run the update over a finite stream in arrival order.

    ``xs`` is any iterable of input vectors (rows of an (n, d) array
    work). Each block of linalg.BLOCK_ROWS rows is lifted and validated
    at once, so a malformed sample is reported before any step of its
    block runs. The states and records are those of folding oja_step
    over xs, bit for bit. An empty stream returns ``init`` itself. When
    cfg.record_trajectory is set, every step's s, ||f||^2, log ratio and
    new direction are written into the columns of the returned
    Trajectory; otherwise the second element is None.
    """
    _check_dims(cfg, init)
    record = cfg.record_trajectory
    if record and not hasattr(xs, "__len__"):
        xs = list(xs)
    n = len(xs) if record else 0
    s_col = np.empty(n)
    phi_col = np.empty(n)
    ratio_col = np.empty(n)
    snapshots = np.empty((n + 1, init.v_hat.shape[0]))
    snapshots[0] = init.v_hat
    eta = cfg.eta
    v_hat = init.v_hat
    log_norm = init.log_norm
    i = 0  # steps taken
    for block in linalg.row_blocks(xs):
        feats = cfg.feature_map.apply_batch(block)
        with np.errstate(over="ignore", invalid="ignore"):
            for f in feats:
                v_hat, s, phi_norm_sq, log_ratio = _update(
                    v_hat, f, eta, init.step + i + 1
                )
                log_norm += 0.5 * log_ratio
                if record:
                    s_col[i] = s
                    phi_col[i] = phi_norm_sq
                    ratio_col[i] = log_ratio
                    snapshots[i + 1] = v_hat
                i += 1
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
        init_v_hat=init.v_hat.copy(),
        init_log_norm=init.log_norm,
        s=s_col,
        phi_norm_sq=phi_col,
        log_ratio=ratio_col,
        snapshots=snapshots,
        seed=seed,
    )
    return state, traj
