"""Dense vector/matrix primitives and symmetric eigensolvers.

Vectors are plain 1-D float64 numpy arrays and matrices dense 2-D ones.
Every solver takes a square array that is symmetric up to float noise
and works on its exact symmetrization (``symmetric_dense``). The oracle
eigensolver, ``eigendecomposition``, is LAPACK's symmetric solver
(``numpy.linalg.eigh``) wrapped in the oracle's contracts: descending
order, a sign convention, a dimension cap and orthonormality and
reconstruction postconditions. Cyclic Jacobi rotations and power
iteration stay as independent pure-numpy references: slow past a few
hundred dimensions, but they share no code path with LAPACK, so tests
and demos can cross-check the oracle against them.

``BLOCK_ROWS`` is the one row count by which every stream layer batches
its per-sample work (generation, lifting, the second moment, the Oja
pass and the trajectory writer).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

MAX_ORACLE_DIM = 2048

# Rows per block for every batched per-sample layer; read at call time
# (``linalg.BLOCK_ROWS``) so a test can change it. Blocks of 256 rows
# were as fast as 1024 and kept peak memory lower.
BLOCK_ROWS = 256

# Postcondition tolerances for eigendecompositions.
ORTHONORMALITY_TOL = 1e-9
RECONSTRUCTION_TOL = 1e-8

# How far from 1 the norm of a unit-vector argument may be.
UNIT_NORM_TOL = 1e-9


class DimensionError(ValueError):
    """Operands have incompatible shapes or lengths."""


class ConvergenceError(RuntimeError):
    """An iterative solver ran out of iterations."""


def as_vector(x) -> np.ndarray:
    """Coerce to a finite 1-D float64 array, copying the input.

    Raises:
        DimensionError: if the input is not 1-D.
        ValueError: if any entry is NaN or infinite.
    """
    v = np.array(x, dtype=np.float64, copy=True)
    if v.ndim != 1:
        raise DimensionError(f"expected a 1-D vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("vector has non-finite entries")
    return v


def as_unit_vector(x, name: str) -> np.ndarray:
    """as_vector, and a ValueError naming ``name`` unless the norm is 1."""
    v = as_vector(x)
    if abs(float(np.linalg.norm(v)) - 1.0) > UNIT_NORM_TOL:
        raise ValueError(f"{name} must have unit norm")
    return v


def row_blocks(xs):
    """Yield the rows of ``xs`` in blocks of at most BLOCK_ROWS rows.

    An ndarray is sliced without copying; any other iterable of rows is
    grouped into lists. No empty block is yielded.
    """
    if isinstance(xs, np.ndarray) and xs.ndim > 0:
        for start in range(0, xs.shape[0], BLOCK_ROWS):
            yield xs[start : start + BLOCK_ROWS]
        return
    rows = iter(xs)
    while block := list(itertools.islice(rows, BLOCK_ROWS)):
        yield block


def symmetric_dense(a, *, sym_tol: float = 1e-9) -> np.ndarray:
    """(A + A^T)/2 of a near-symmetric square array, as float64.

    An exactly symmetric array comes back with the same values.

    Raises:
        DimensionError: not a non-empty square matrix.
        ValueError: non-finite entries, or asymmetry above sym_tol
            relative to max(1, max |a_ij|).
    """
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise DimensionError(f"expected a square matrix, got {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    scale = max(1.0, float(np.abs(m).max()))
    if float(np.abs(m - m.T).max()) > sym_tol * scale:
        raise ValueError("matrix is not symmetric")
    return 0.5 * (m + m.T)


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenpairs of a symmetric matrix, eigenvalues sorted descending.

    eigenvectors holds orthonormal columns; column k pairs with
    eigenvalues[k]. Sign convention: first nonzero component of each
    eigenvector is positive.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def top_vector(self) -> np.ndarray:
        return self.eigenvectors[:, 0].copy()


def _fix_signs(vectors: np.ndarray) -> None:
    for k in range(vectors.shape[1]):
        col = vectors[:, k]
        nz = np.nonzero(col)[0]
        if nz.size and col[nz[0]] < 0:
            col *= -1.0


def jacobi_eigendecomposition(a, *, max_sweeps: int = 100) -> EigenDecomposition:
    """Full eigendecomposition by cyclic Jacobi rotations.

    An independent pure-numpy reference for eigendecomposition: accurate
    and deterministic, not fast. Dimension is capped at 2048.

    Raises:
        ValueError: dimension above the oracle cap.
        ConvergenceError: off-diagonal mass not annihilated within
            max_sweeps sweeps, or postconditions (orthonormality,
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
        for _ in range(max_sweeps):
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
                f"jacobi did not converge in {max_sweeps} sweeps"
            )

    return _oracle_result(dense, np.diag(m), v)


def eigendecomposition(a) -> EigenDecomposition:
    """Full eigendecomposition by LAPACK's symmetric solver (numpy eigh).

    The offline oracle: same contracts as jacobi_eigendecomposition
    (descending order, sign convention, dimension cap, postconditions),
    at BLAS speed.

    Raises:
        ValueError: dimension above the oracle cap.
        ConvergenceError: postconditions (orthonormality, reconstruction)
            violated.
    """
    dense = symmetric_dense(a)
    if dense.shape[0] > MAX_ORACLE_DIM:
        raise ValueError(f"oracle eigensolver capped at dim {MAX_ORACLE_DIM}")
    values, vectors = np.linalg.eigh(dense)
    return _oracle_result(dense, values, vectors)


def _oracle_result(
    a: np.ndarray, values: np.ndarray, vectors: np.ndarray
) -> EigenDecomposition:
    # Sort descending (stable), fix signs, then verify the postconditions.
    n = a.shape[0]
    order = np.argsort(-values, kind="stable")
    values = values[order]
    vectors = vectors[:, order]
    _fix_signs(vectors)

    gram_err = float(np.abs(vectors.T @ vectors - np.eye(n)).max())
    if gram_err > ORTHONORMALITY_TOL:
        raise ConvergenceError(f"eigenvectors not orthonormal: {gram_err:g}")
    recon = vectors @ (values[:, None] * vectors.T)
    recon_err = float(np.abs(recon - a).max())
    if recon_err > RECONSTRUCTION_TOL * max(1.0, float(np.abs(a).max())):
        raise ConvergenceError(f"reconstruction residual too large: {recon_err:g}")
    return EigenDecomposition(eigenvalues=values, eigenvectors=vectors)


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

