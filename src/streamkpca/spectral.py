"""Offline ground truth: second moments, eigenpairs, spectral ratio, energies.

Everything here is deliberately offline and desk-scale. One pass over a
replayed stream accumulates the feature-space second moment as a dense
matrix: each block of ``linalg.BLOCK_ROWS`` lifted rows adds F^T F (one
BLAS product), and Kahan compensation across blocks keeps the sum of
blocks from drifting with the stream length. The pass lifts every block
into one buffer and updates the sum in place, in four m x m arrays
allocated once. One LAPACK eigensolve of M
(``linalg.eigendecomposition``, checked by its orthonormality and
reconstruction postconditions) answers every oracle question: x* is its
top eigenvector, R = lambda_1/lambda_2, beta = eta * lambda_1 and
alpha = eta * lambda_2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .featuremaps import FeatureMapSpec
from .linalg import (
    EigenDecomposition,
    MAX_ORACLE_DIM,
    as_unit_vector,
    eigendecomposition,
)

# lambda_2 below this multiple of lambda_1 is treated as zero: the
# spectral ratio becomes an infinity sentinel instead of a division.
RANK_DEFICIENT_REL_TOL = 1e-12


@dataclass(frozen=True)
class SpectralSummary:
    """Second moment, its eigenpairs and spectral ratio of a stream.

    second_moment M = sum_i phi(x_i) phi(x_i)^T (unnormalized), a dense,
    exactly symmetric, read-only (m, m) array; eig is its
    eigendecomposition. ratio = lambda_1/lambda_2 of M, +inf when the
    stream is numerically rank one.
    """

    second_moment: np.ndarray
    eig: EigenDecomposition
    n: int

    @property
    def lambda1(self) -> float:
        return float(self.eig.eigenvalues[0])

    @property
    def lambda2(self) -> float:
        """0.0 when m = 1."""
        if self.eig.eigenvalues.shape[0] < 2:
            return 0.0
        return float(self.eig.eigenvalues[1])

    @property
    def ratio(self) -> float:
        lam1, lam2 = self.lambda1, self.lambda2
        if lam2 <= RANK_DEFICIENT_REL_TOL * lam1:
            return math.inf
        return lam1 / lam2

    @property
    def top_vector(self) -> np.ndarray:
        return self.eig.top_vector


@dataclass(frozen=True)
class AlphaBeta:
    """Learning-rate-scaled stream energies along and orthogonal to v*.

    With v* the top eigenvector of M, beta = eta * (v*)^T M v* is
    eta * lambda_1, and alpha, the worst energy in any unit direction
    orthogonal to v*, is eta * lambda_2.
    """

    alpha: float
    beta: float


def summarize(xs, feature_map: FeatureMapSpec) -> SpectralSummary:
    """One-pass spectral summary of a replayed stream in feature space.

    ``xs`` is a stream (datagen.SpikedStream) or an (n, d) array of
    input vectors (see linalg.row_blocks).

    Raises:
        ValueError: empty or all-zero stream, or feature dim above the
            oracle cap.
        DimensionError: a sample of the wrong length.
    """
    m = feature_map.feature_dim
    if m > MAX_ORACLE_DIM:
        raise ValueError(f"oracle summary capped at feature dim {MAX_ORACLE_DIM}")
    # Every block writes into these, allocated once for the pass.
    second_moment, comp, y, t = (np.zeros((m, m)) for _ in range(4))
    feats = np.empty((linalg.BLOCK_ROWS, m))
    n = 0
    for block in linalg.row_blocks(xs):
        f = feature_map.apply_batch(block, out=feats)
        # Kahan step over the blocks' (exactly symmetric) F^T F:
        # y = F^T F - comp, t = M + y, comp = (t - M) - y, M = t.
        np.matmul(f.T, f, out=y)
        y -= comp
        np.add(second_moment, y, out=t)
        np.subtract(t, second_moment, out=comp)
        comp -= y
        second_moment, t = t, second_moment
        n += f.shape[0]
    if n == 0:
        raise ValueError("cannot summarize an empty stream")

    second_moment.flags.writeable = False
    summary = SpectralSummary(
        second_moment=second_moment, eig=eigendecomposition(second_moment), n=n
    )
    if summary.lambda1 <= 0.0:
        raise ValueError("degenerate stream: top eigenvalue is not positive")
    return summary


def compute_alpha_beta(summary: SpectralSummary, eta: float) -> AlphaBeta:
    """Stream energies along and orthogonal to the summary's x*.

    beta = eta * lambda_1(M); alpha = eta * lambda_2(M), clamped at 0
    against a rounding-negative lambda_2 of a rank-one stream.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    return AlphaBeta(
        alpha=eta * max(0.0, summary.lambda2), beta=eta * summary.lambda1
    )


def alignment_error(x_star, u) -> float:
    """1 - <x*, u>^2 for two unit vectors, clamped into [0, 1]."""
    xs = as_unit_vector(x_star, "x_star")
    uh = as_unit_vector(u, "u")
    if xs.shape != uh.shape:
        raise ValueError("vectors must have equal length")
    val = 1.0 - float(xs @ uh) ** 2
    return min(1.0, max(0.0, val))
