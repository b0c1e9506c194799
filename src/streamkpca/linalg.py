"""Dense vector/matrix primitives and the oracle's symmetric eigensolver.

Vectors are plain 1-D float64 numpy arrays and matrices dense 2-D ones.
The oracle eigensolver, ``eigendecomposition``, takes a square array
that is symmetric up to float noise, works on its exact symmetrization
(``symmetric_dense``) and is LAPACK's symmetric solver
(``numpy.linalg.eigh``) wrapped in the oracle's contracts: descending
order, a sign convention, a dimension cap and orthonormality and
reconstruction postconditions.

``BLOCK_ROWS`` is the one row count by which every stream layer batches
its per-sample work (generation, lifting, the second moment, the Oja
pass and the trajectory writer).
"""

from __future__ import annotations

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

# Largest asymmetry a solver input may have, relative to max(1, max |a_ij|).
SYM_TOL = 1e-9


class DimensionError(ValueError):
    """Operands have incompatible shapes or lengths."""


class ConvergenceError(RuntimeError):
    """An eigendecomposition failed the oracle's orthonormality or
    reconstruction postcondition."""


def as_vector(x) -> np.ndarray:
    """Coerce to a finite 1-D float64 array, copying the input.

    Raises:
        DimensionError: if the input is not 1-D.
        ValueError: if any entry is NaN or infinite.
    """
    v = np.array(x, dtype=np.float64, copy=True)
    if v.ndim != 1:
        raise DimensionError(f"expected a 1-D vector, got shape {v.shape}")
    # One ufunc and a count: ndarray.all()'s Python-level dispatch costs
    # more than the test itself on a per-sample vector.
    if np.count_nonzero(np.isfinite(v)) != v.size:
        raise ValueError("vector has non-finite entries")
    return v


def as_unit_vector(x, name: str) -> np.ndarray:
    """as_vector, and a ValueError naming ``name`` unless the norm is 1."""
    v = as_vector(x)
    # No entry of a unit vector exceeds 1 in magnitude; refusing one that
    # does first keeps the norm below from overflowing.
    if not (
        (np.abs(v) <= 1.0 + UNIT_NORM_TOL).all()
        and abs(float(np.linalg.norm(v)) - 1.0) <= UNIT_NORM_TOL
    ):
        raise ValueError(f"{name} must have unit norm")
    return v


def is_finite_float(x) -> bool:
    """math.isfinite(x), and False, not OverflowError, for an int or a
    Fraction beyond float range."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def check_seed(seed, name: str) -> None:
    """Raise a ValueError naming ``name`` unless seed is an integer >= 0,
    as np.random.default_rng requires."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"{name} must be an integer >= 0, got {seed!r}")


def row_blocks(xs):
    """The rows of ``xs`` in blocks of at most BLOCK_ROWS rows: a
    stream's own ``blocks()`` (datagen.SpikedStream), else slices of
    np.asarray(xs), made without copying. No empty block is yielded."""
    if hasattr(xs, "blocks"):
        return xs.blocks()
    xs, rows = np.asarray(xs), BLOCK_ROWS
    return (xs[start : start + rows] for start in range(0, len(xs), rows))


def symmetric_dense(a) -> np.ndarray:
    """(A + A^T)/2 of a near-symmetric square array, as float64.

    An exactly symmetric array comes back with the same values.

    Raises:
        DimensionError: not a non-empty square matrix.
        ValueError: non-finite entries, or asymmetry above SYM_TOL
            relative to max(1, max |a_ij|).
    """
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise DimensionError(f"expected a square matrix, got {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    scale = max(1.0, float(np.abs(m).max()))
    if float(np.abs(m - m.T).max()) > SYM_TOL * scale:
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


def eigendecomposition(a) -> EigenDecomposition:
    """Full eigendecomposition by LAPACK's symmetric solver (numpy eigh).

    The offline oracle: eigenvalues in descending order (a stable sort),
    each eigenvector's first nonzero component positive, a dimension cap
    of MAX_ORACLE_DIM, and orthonormality and reconstruction
    postconditions.

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
