"""Pure-numpy reference eigensolvers for testing the LAPACK oracle.

Cyclic Jacobi rotations and shifted power iteration: slow past a few
hundred dimensions, but they share no code path with LAPACK, so tests
can cross-check ``streamkpca.linalg.eigendecomposition`` against them.
The Jacobi solver returns its pairs through the oracle's own sort, sign
and postcondition contract (``linalg._oracle_result``).
"""

from __future__ import annotations

import math

import numpy as np

from streamkpca.linalg import (
    MAX_ORACLE_DIM,
    ConvergenceError,
    EigenDecomposition,
    _fix_signs,
    _oracle_result,
    symmetric_dense,
)

# Cyclic Jacobi sweeps before the reference solver gives up.
JACOBI_MAX_SWEEPS = 100


def jacobi_eigendecomposition(a) -> EigenDecomposition:
    """Full eigendecomposition by cyclic Jacobi rotations.

    An independent pure-numpy reference for eigendecomposition: accurate
    and deterministic, not fast. Dimension is capped at 2048.

    Raises:
        ValueError: dimension above the oracle cap.
        ConvergenceError: off-diagonal mass not annihilated within
            JACOBI_MAX_SWEEPS sweeps, or postconditions (orthonormality,
            reconstruction) violated.
    """
    dense = symmetric_dense(a)
    n = dense.shape[0]
    if n > MAX_ORACLE_DIM:
        raise ValueError(f"oracle eigensolver capped at dim {MAX_ORACLE_DIM}")
    m = dense.copy()
    v = np.eye(n)
    if n > 1:
        scale = float(np.abs(m).max())
        stop_tol = 1e-14 * scale
        skip_tol = 0.1 * stop_tol
        converged = scale == 0.0
        for _ in range(JACOBI_MAX_SWEEPS):
            off = _max_offdiag(m)
            if off <= stop_tol:
                converged = True
                break
            for p in range(n - 1):
                for q in range(p + 1, n):
                    apq = m[p, q]
                    if abs(apq) <= skip_tol:
                        continue
                    _rotate(m, v, p, q, apq)
        else:
            converged = _max_offdiag(m) <= stop_tol
        if not converged:
            raise ConvergenceError(
                f"jacobi did not converge in {JACOBI_MAX_SWEEPS} sweeps"
            )

    return _oracle_result(dense, np.diag(m), v)


def _max_offdiag(m: np.ndarray) -> float:
    iu = np.triu_indices(m.shape[0], k=1)
    return float(np.abs(m[iu]).max())


def _rotate(m: np.ndarray, v: np.ndarray, p: int, q: int, apq: float) -> None:
    # Two-sided rotation G^T M G annihilating m[p, q], smaller-angle root.
    app = m[p, p]
    aqq = m[q, q]
    theta = (aqq - app) / (2.0 * apq)
    t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(1.0, theta))
    c = 1.0 / math.sqrt(1.0 + t * t)
    s = t * c

    colp = m[:, p].copy()
    colq = m[:, q].copy()
    m[:, p] = c * colp - s * colq
    m[:, q] = s * colp + c * colq
    rowp = m[p, :].copy()
    rowq = m[q, :].copy()
    m[p, :] = c * rowp - s * rowq
    m[q, :] = s * rowp + c * rowq
    # Closed forms for the touched entries beat the rotated float values.
    m[p, p] = app - t * apq
    m[q, q] = aqq + t * apq
    m[p, q] = 0.0
    m[q, p] = 0.0

    vp = v[:, p].copy()
    vq = v[:, q].copy()
    v[:, p] = c * vp - s * vq
    v[:, q] = s * vp + c * vq


def power_iteration_top(a, tol: float, max_iters: int) -> tuple[float, np.ndarray]:
    """Top (algebraically largest) eigenpair by shifted power iteration.

    The matrix is shifted by a Gershgorin bound when it might be
    indefinite, so iteration converges to the largest eigenvalue rather
    than the largest in magnitude. Convergence means the residual
    ||M v - lambda v|| is at most tol * max(1, ||M||_inf); by the
    Davis-Kahan bound the angle to the top eigenvector is then at most
    that residual over the spectral gap. A gap is the caller's
    responsibility.

    Returns:
        (eigenvalue, unit eigenvector), sign-fixed like the oracle.

    Raises:
        ConvergenceError: residual not below the tolerance within
            max_iters iterations.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iters < 1:
        raise ValueError("max_iters must be positive")
    m = symmetric_dense(a)
    n = m.shape[0]

    row_sums = np.sum(np.abs(m), axis=1)
    gershgorin_low = float(np.min(np.diag(m) - (row_sums - np.abs(np.diag(m)))))
    shift = max(0.0, -gershgorin_low)
    ms = m + shift * np.eye(n)
    stop = tol * max(1.0, float(row_sums.max()))

    rng = np.random.default_rng(0)
    vec = rng.standard_normal(n)
    vec /= np.linalg.norm(vec)

    for _ in range(max_iters):
        w = ms @ vec
        wn = float(np.linalg.norm(w))
        if wn == 0.0:
            # Shifted matrix annihilates vec: the zero matrix case.
            lam = 0.0
            _fix_signs(vec[:, None])
            return lam, vec
        vec = w / wn
        mv = m @ vec
        lam = float(vec @ mv)
        if float(np.linalg.norm(mv - lam * vec)) <= stop:
            _fix_signs(vec[:, None])
            return lam, vec
    raise ConvergenceError(
        f"power iteration: residual above {stop:g} after {max_iters} iters"
    )
