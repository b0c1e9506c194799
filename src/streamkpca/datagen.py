"""Seeded synthetic streams with a controlled spectrum, plus a Gaussian
offset-norm Monte Carlo used to sanity-check the random-start argument.

The generator draws a Haar-random orthonormal basis from one seed and
i.i.d. Gaussian coefficients from another, giving a spiked covariance
whose top-two eigenvalue ratio is a direct knob. Samples whose squared
norm exceeds the certified guard bound (a <0.01% event) are skipped and
redrawn from the same seed stream, so the guard holds exactly and the
learning-rate precondition is never violated by an outlier. Samples are
drawn ``linalg.BLOCK_ROWS`` at a time; the draws, their order and the
samples kept are the same as one draw per sample would give.

A stream is its spec, not an array: ``SpikedStream`` replays the draws
from the sample seed each time its rows are read, so a pass over it
holds O(BLOCK_ROWS * d) floats whatever n is.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Iterator

import numpy as np

from . import linalg
from .linalg import as_vector

INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class SpikedSpec:
    """Spiked-covariance stream description.

    The population spectrum is lambda_1 followed by a geometric tail
    lambda_k = lambda2 * tail_decay^(k-2) for k >= 2.
    """

    input_dim: int
    n: int
    lambda1: float
    lambda2: float
    tail_decay: float = 1.0
    basis_seed: int = 0
    sample_seed: int = 0

    def __post_init__(self):
        if self.input_dim < 1:
            raise ValueError("input_dim must be positive")
        if self.n < 1:
            raise ValueError("n must be positive")
        # A certificate numbers its steps in int64.
        if self.n > INT64_MAX:
            raise ValueError(f"n = {self.n} exceeds the int64 maximum {INT64_MAX}")
        # Every comparison with NaN is false, so each test is written to
        # fail on it: a NaN spectrum keeps no sample and never ends.
        if not (0.0 < self.lambda1 and linalg.is_finite_float(self.lambda1)):
            raise ValueError(
                f"lambda1 must be finite and positive, got {self.lambda1!r}"
            )
        if not 0.0 < self.lambda2:
            raise ValueError(
                f"lambda2 must be finite and positive, got {self.lambda2!r}"
            )
        if not self.lambda2 <= self.lambda1:
            raise ValueError("lambda2 must not exceed lambda1")
        if not (0.0 < self.tail_decay <= 1.0):
            raise ValueError(
                f"tail_decay must lie in (0, 1], got {self.tail_decay!r}"
            )
        linalg.check_seed(self.basis_seed, "basis_seed")
        linalg.check_seed(self.sample_seed, "sample_seed")

    @property
    def target_ratio(self) -> float:
        return self.lambda1 / self.lambda2

    def spectrum(self) -> np.ndarray:
        lam = np.empty(self.input_dim)
        lam[0] = self.lambda1
        if self.input_dim > 1:
            k = np.arange(self.input_dim - 1)
            lam[1:] = self.lambda2 * self.tail_decay**k
        return lam

    def norm_guard(self) -> float:
        """99.99th-percentile-style guard on ||x||^2 used for eta selection."""
        d = self.input_dim
        return self.lambda1 * (d + 10.0 * math.sqrt(d) + 50.0)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SpikedSpec":
        """The spec of to_dict's keys. lambda1, lambda2 and tail_decay
        become floats, so a config's 1 is echoed as 1.0; other values are
        taken as given: the harness checks a config file's JSON types first."""
        spectrum = {k: float(d[k]) for k in ("lambda1", "lambda2", "tail_decay")}
        return cls(**(d | spectrum))


@dataclass(frozen=True)
class SpikedGroundTruth:
    """Population quantities of a generated stream."""

    spectrum: np.ndarray
    basis: np.ndarray
    top_direction: np.ndarray
    norm_bound: float

    @property
    def ratio(self) -> float:
        if self.spectrum.shape[0] < 2:
            return math.inf
        return float(self.spectrum[0] / self.spectrum[1])


def random_orthonormal_basis(d: int, seed: int) -> np.ndarray:
    """Haar-random orthonormal basis: QR of a Gaussian draw, signs fixed."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


@dataclass(frozen=True)
class SpikedStream:
    """The spec's n samples, replayed from its sample seed each time they
    are read. ``mix``'s column k is sqrt(lambda_k) * u_k; a draw whose
    squared norm exceeds ``guard`` is skipped."""

    spec: SpikedSpec
    mix: np.ndarray
    guard: float

    def __len__(self) -> int:
        return self.spec.n

    def blocks(self) -> Iterator[np.ndarray]:
        """The rows in arrival order, in new arrays of linalg.BLOCK_ROWS
        rows from row 0, the last maybe shorter."""
        rows = linalg.BLOCK_ROWS
        n, d = self.spec.n, self.spec.input_dim
        rng = np.random.default_rng(self.spec.sample_seed)
        pending = np.empty((0, d))
        count = 0
        while count < n:
            # Never more draws than samples still missing, so the seed stream
            # is consumed exactly as far as a per-sample loop would.
            k = min(rows, n - count)
            g = rng.standard_normal((k, d))
            # Batched GEMV and dot products: the same bits as mix @ g and
            # x @ x per row, which one GEMM would not give.
            x = np.matmul(self.mix, g[:, :, None])[:, :, 0]
            norms_sq = np.matmul(x[:, None, :], x[:, :, None])[:, 0, 0]
            # Outliers are skipped; the stream keeps its place in the seed.
            kept = x[norms_sq <= self.guard]
            count += kept.shape[0]
            # A draw keeps at most a block's rows, so at most one is full.
            pending = np.concatenate((pending, kept))
            if pending.shape[0] >= rows:
                yield pending[:rows]
                pending = pending[rows:]
        if pending.shape[0]:
            yield pending

    def __iter__(self) -> Iterator[np.ndarray]:
        for block in self.blocks():
            yield from block

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """The (n, input_dim) array of the rows, a new one each call."""
        if copy is False:
            raise ValueError("a SpikedStream's array is always drawn anew")
        return np.concatenate(tuple(self.blocks())).astype(dtype, copy=False)


def make_spiked_stream(spec: SpikedSpec) -> tuple[SpikedStream, SpikedGroundTruth]:
    """The stream and its population ground truth.

    Returns:
        (xs, truth) where xs replays the spec's n rows of input_dim in
        arrival order, and every row satisfies ||x||^2 <= truth.norm_bound.
    """
    basis = random_orthonormal_basis(spec.input_dim, spec.basis_seed)
    lam = spec.spectrum()
    guard = spec.norm_guard()
    truth = SpikedGroundTruth(
        spectrum=lam,
        basis=basis,
        top_direction=basis[:, 0].copy(),
        norm_bound=guard,
    )
    return SpikedStream(spec, basis * np.sqrt(lam), guard), truth


def monte_carlo_offset_norm(
    u, v, delta: float, trials: int, seed: int
) -> float:
    """Empirical Pr[||a*u + v|| >= delta*||u||] over a ~ N(0, 1).

    The exact probability is at least 1 - delta for any u, v; this
    estimates it by simulation.
    """
    uu = as_vector(u)
    vv = as_vector(v)
    if uu.shape != vv.shape:
        raise ValueError("u and v must have equal length")
    u_norm_sq = float(uu @ uu)
    if u_norm_sq == 0.0:
        raise ValueError("u must be nonzero")
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    if trials < 1000:
        raise ValueError("need at least 1000 trials")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(trials)
    # ||a u + v||^2 expanded once; no per-trial vector work needed.
    cross = float(uu @ vv)
    v_norm_sq = float(vv @ vv)
    norms_sq = a * a * u_norm_sq + 2.0 * a * cross + v_norm_sq
    hits = np.count_nonzero(norms_sq >= delta * delta * u_norm_sq)
    return hits / trials
