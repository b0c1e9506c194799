"""Streaming top-component updater in a normalized log-domain representation.

The iterate after step i is v_i = v_{i-1} + eta * <phi(x_i), v_{i-1}> * phi(x_i).
Its norm grows exponentially along the stream, so the state keeps only the
unit direction v_hat and the accumulated log norm L = log ||v_i|| (relative
to ||v_0|| = 1). The per-step log increment uses the closed form

    ||v_i||^2 / ||v_{i-1}||^2 = 1 + (2*eta + eta^2*||f||^2) * s^2,

with f = phi(x_i) and s = <f, v_hat_{i-1}>, evaluated through log1p so tiny
increments do not lose precision. The direction itself is renormalized
every step from the directly computed ||u||.

A recorded run is a columnar Trajectory: the per-step scalars s,
||f||^2 and the log ratio as float64 arrays of length n, plus (checker
mode) an (n+1, m) array of directions whose row 0 is the start. The
checker and the CSV writer and reader work on these arrays directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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
    """Update configuration: learning rate, feature map, recording flags.

    ``norm_bound``, when given, is the certified bound B on ||phi(x)||^2
    and enforces the eta <= 0.1/B precondition the growth guarantees
    need. ``snapshots`` also records the direction after every step
    (checker mode); it implies record_trajectory.
    """

    eta: float
    feature_map: FeatureMapSpec
    record_trajectory: bool = False
    snapshots: bool = False
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
        if self.snapshots and not self.record_trajectory:
            object.__setattr__(self, "record_trajectory", True)


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
    ``snapshots``, when present, is (n+1, m): the initial direction, then
    the direction after each step; an empty trajectory always has that
    one row. ``log_norm`` (n+1 entries, relative to step 0) is derived
    from ``log_ratio``. ``seed`` keys deterministic pair sampling in the
    post-hoc checker; the harness sets it to the trial seed.

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
    snapshots: np.ndarray | None = None
    seed: int = 0
    log_norm: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n, m = self.n, self.m
        if self.snapshots is None and n == 0:
            self.snapshots = self.init_v_hat[None, :]
        shapes = {name: (n,) for name in STEP_COLUMNS}
        shapes.update(init_v_hat=(m,), snapshots=(n + 1, m))
        # The checks' inequalities compare against NaN as false or pass
        # it through min/max, so a non-finite value is refused here.
        for name, shape in shapes.items():
            values = getattr(self, name)
            if values is None:
                continue
            if values.shape != shape:
                raise ValueError(f"{name} has shape {values.shape}, not {shape}")
            if not np.isfinite(values).all():
                index = np.argwhere(~np.isfinite(values))[0].tolist()
                raise ValueError(f"non-finite value in {name} at index {index}")
            values.flags.writeable = False
        if self.snapshots is not None and not np.array_equal(
            self.snapshots[0], self.init_v_hat
        ):
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


def oja_step(
    state: StreamState, x, cfg: OjaConfig
) -> tuple[StreamState, StepRecord]:
    """Advance the stream by one sample.

    Returns the new state and the step record. The record is produced
    unconditionally; run_stream decides whether to keep it.

    Raises:
        NumericError: a non-finite value appeared in the update.
    """
    f = cfg.feature_map.apply(x)
    if f.shape != state.v_hat.shape:
        raise DimensionError(
            f"feature dim {f.shape[0]} does not match state dim {state.v_hat.shape[0]}"
        )
    eta = cfg.eta
    # Overflow here is not a bug to warn about: it is detected below and
    # turned into a NumericError abort.
    with np.errstate(over="ignore", invalid="ignore"):
        s = float(f @ state.v_hat)
        phi_norm_sq = float(f @ f)
        u = state.v_hat + (eta * s) * f
        u_norm_sq = float(u @ u)
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
            f"non-finite update at step {state.step + 1}: "
            f"s={s}, phi_norm_sq={phi_norm_sq}, u_norm_sq={u_norm_sq}"
        )
    v_hat = u / math.sqrt(u_norm_sq)
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
    """Fold oja_step over a finite stream in arrival order.

    ``xs`` is any iterable of input vectors (rows of an (n, d) array
    work). An empty stream returns ``init`` unchanged. When
    cfg.record_trajectory is set, every step's record (and, with
    cfg.snapshots, its new direction) is written into the columns of
    the returned Trajectory; otherwise the second element is None.
    """
    state = init
    if not cfg.record_trajectory:
        for x in xs:
            state, _ = oja_step(state, x, cfg)
        return state, None
    if not hasattr(xs, "__len__"):
        xs = list(xs)
    steps = np.empty((len(STEP_COLUMNS), len(xs)))
    snapshots = None
    if cfg.snapshots:
        snapshots = np.empty((len(xs) + 1, init.v_hat.shape[0]))
        snapshots[0] = init.v_hat
    for i, x in enumerate(xs):
        state, record = oja_step(state, x, cfg)
        steps[:, i] = record.s, record.phi_norm_sq, record.log_ratio
        if snapshots is not None:
            snapshots[i + 1] = state.v_hat
    traj = Trajectory(
        config=cfg,
        init_kind=init.origin,
        init_v_hat=init.v_hat.copy(),
        init_log_norm=init.log_norm,
        s=steps[0],
        phi_norm_sq=steps[1],
        log_ratio=steps[2],
        snapshots=snapshots,
        seed=seed,
    )
    return state, traj
