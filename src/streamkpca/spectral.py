"""Offline ground truth: second moments, eigenpairs, spectral ratio, energies.

Everything here is deliberately offline and desk-scale. One pass over a
replayed stream accumulates the feature-space second moment as a dense
matrix: each block of ``linalg.BLOCK_ROWS`` lifted rows adds F^T F (one
BLAS product), and Kahan compensation across blocks keeps the sum of
blocks from drifting with the stream length. One LAPACK eigensolve
(``linalg.eigendecomposition``, checked by its orthonormality and
reconstruction postconditions) turns it into eigenpairs. alpha is the
top eigenvalue of a deflated second moment, taken with
``numpy.linalg.eigvalsh``.
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
    as_vector,
    eigendecomposition,
)

# lambda_2 below this multiple of lambda_1 is treated as zero: the
# spectral ratio becomes an infinity sentinel instead of a division.
RANK_DEFICIENT_REL_TOL = 1e-12


@dataclass(frozen=True)
class SpectralSummary:
    """Second moment, covariance, eigenpairs and spectral ratio of a stream.

    second_moment M = sum_i phi(x_i) phi(x_i)^T (unnormalized);
    covariance = M / n; both are dense, exactly symmetric (m, m) arrays.
    ratio = lambda_1/lambda_2 of the covariance, +inf when the stream is
    numerically rank one.
    """

    second_moment: np.ndarray
    covariance: np.ndarray
    eig: EigenDecomposition
    ratio: float
    top_vector: np.ndarray
    n: int

    @property
    def lambda1(self) -> float:
        return float(self.eig.eigenvalues[0])

    @property
    def lambda2(self) -> float:
        if self.eig.eigenvalues.shape[0] < 2:
            return 0.0
        return float(self.eig.eigenvalues[1])


@dataclass(frozen=True)
class AlphaBeta:
    """Learning-rate-scaled stream energies along and orthogonal to v*.

    beta = eta * (v*)^T M v* is the energy along v*; alpha is the worst
    energy in any unit direction orthogonal to v*, realized exactly as
    eta times the top eigenvalue of the deflated matrix P M P.
    """

    alpha: float
    beta: float
    v_star: np.ndarray


def summarize(xs, feature_map: FeatureMapSpec) -> SpectralSummary:
    """One-pass spectral summary of a replayed stream in feature space.

    ``xs`` is any iterable of input vectors (rows of an (n, d) array
    work).

    Raises:
        ValueError: empty or all-zero stream, or feature dim above the
            oracle cap.
        DimensionError: a sample of the wrong length.
    """
    m = feature_map.feature_dim
    if m > MAX_ORACLE_DIM:
        raise ValueError(f"oracle summary capped at feature dim {MAX_ORACLE_DIM}")
    second_moment = np.zeros((m, m))
    comp = np.zeros((m, m))
    n = 0
    for block in linalg.row_blocks(xs):
        f = feature_map.apply_batch(block)
        # Kahan step over the blocks' (exactly symmetric) F^T F.
        y = f.T @ f - comp
        t = second_moment + y
        comp = (t - second_moment) - y
        second_moment = t
        n += f.shape[0]
    if n == 0:
        raise ValueError("cannot summarize an empty stream")

    covariance = second_moment * (1.0 / n)
    second_moment.flags.writeable = False
    covariance.flags.writeable = False
    eig = eigendecomposition(covariance)
    lam1 = float(eig.eigenvalues[0])
    if lam1 <= 0.0:
        raise ValueError("degenerate stream: top eigenvalue is not positive")
    lam2 = float(eig.eigenvalues[1]) if m >= 2 else 0.0
    if lam2 <= RANK_DEFICIENT_REL_TOL * lam1:
        ratio = math.inf
    else:
        ratio = lam1 / lam2
    return SpectralSummary(
        second_moment=second_moment,
        covariance=covariance,
        eig=eig,
        ratio=ratio,
        top_vector=eig.top_vector,
        n=n,
    )


def compute_alpha_beta(
    summary: SpectralSummary, eta: float, v_star
) -> AlphaBeta:
    """Stream energies of a given unit direction v*.

    beta comes straight from the quadratic form; alpha is the supremum
    of the orthogonal Rayleigh quotient, computed exactly as the top
    eigenvalue of P M P with P = I - v* v*^T.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    v = as_unit_vector(v_star, "v_star")
    m_dense = summary.second_moment
    if v.shape[0] != m_dense.shape[0]:
        raise ValueError("v_star dimension does not match the summary")

    beta = eta * float(v @ (m_dense @ v))

    mv = m_dense @ v
    # P M P = M - v (Mv)^T - (Mv) v^T + (v^T M v) v v^T, kept symmetric.
    deflated = (
        m_dense
        - np.outer(v, mv)
        - np.outer(mv, v)
        + float(v @ mv) * np.outer(v, v)
    )
    deflated = 0.5 * (deflated + deflated.T)
    if not np.isfinite(deflated).all():
        raise ValueError("deflated second moment has non-finite entries")
    alpha = eta * max(0.0, float(np.linalg.eigvalsh(deflated)[-1]))
    return AlphaBeta(alpha=alpha, beta=beta, v_star=v)


def projection_residual(v_star, u) -> float:
    """Norm of u-hat's component orthogonal to v*.

    Both inputs are normalized internally; the projector is never
    materialized.
    """
    v = _normalized(v_star, "v_star")
    uh = _normalized(u, "u")
    residual = uh - float(uh @ v) * v
    return float(np.linalg.norm(residual))


def alignment_error(x_star, u) -> float:
    """1 - <x*, u>^2 for two unit vectors, clamped into [0, 1]."""
    xs = as_unit_vector(x_star, "x_star")
    uh = as_unit_vector(u, "u")
    if xs.shape != uh.shape:
        raise ValueError("vectors must have equal length")
    val = 1.0 - float(xs @ uh) ** 2
    return min(1.0, max(0.0, val))


def _normalized(x, name: str) -> np.ndarray:
    v = as_vector(x)
    n = float(np.linalg.norm(v))
    if n == 0.0:
        raise ValueError(f"{name} must be nonzero")
    return v / n
