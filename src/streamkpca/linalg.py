"""Dense vector/matrix primitives and symmetric eigensolvers.

Vectors are plain 1-D float64 numpy arrays. Symmetric matrices store only
the upper triangle (row-major), so symmetry holds by construction. The
oracle eigensolver, ``eigendecomposition``, is LAPACK's symmetric solver
(``numpy.linalg.eigh``) wrapped in the oracle's contracts: descending
order, a sign convention, a dimension cap and orthonormality and
reconstruction postconditions. Cyclic Jacobi rotations and power
iteration stay as independent pure-numpy references: slow past a few
hundred dimensions, but they share no code path with LAPACK, so tests
and demos can cross-check the oracle against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

MAX_ORACLE_DIM = 2048

# Postcondition tolerances for eigendecompositions.
ORTHONORMALITY_TOL = 1e-9
RECONSTRUCTION_TOL = 1e-8


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


def dot(a, b) -> float:
    """Inner product of two equal-length vectors."""
    va = as_vector(a)
    vb = as_vector(b)
    if va.shape[0] != vb.shape[0]:
        raise DimensionError(
            f"length mismatch: {va.shape[0]} vs {vb.shape[0]}"
        )
    return float(va @ vb)


def packed_length(dim: int) -> int:
    return dim * (dim + 1) // 2


@dataclass(frozen=True)
class SymmetricMatrix:
    """Symmetric matrix storing the upper triangle row-major.

    Attributes:
        dim: matrix dimension (positive).
        packed: upper-triangle entries in np.triu_indices order,
            length dim*(dim+1)//2.
    """

    dim: int
    packed: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionError("dimension must be positive")
        p = np.asarray(self.packed, dtype=np.float64)
        if p.shape != (packed_length(self.dim),):
            raise DimensionError(
                f"packed storage must have length {packed_length(self.dim)}"
            )
        if not np.isfinite(p).all():
            raise ValueError("matrix has non-finite entries")
        object.__setattr__(self, "packed", p)

    @classmethod
    def from_dense(cls, a, *, sym_tol: float = 1e-9) -> "SymmetricMatrix":
        """Build from a dense square array, validating near-symmetry.

        The stored triangle is taken from (A + A^T)/2 so tiny asymmetric
        float noise is symmetrized away rather than preserved.
        """
        m = np.asarray(a, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionError(f"expected a square matrix, got {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("matrix has non-finite entries")
        scale = max(1.0, float(np.abs(m).max()) if m.size else 0.0)
        if float(np.abs(m - m.T).max()) > sym_tol * scale:
            raise ValueError("matrix is not symmetric")
        sym = 0.5 * (m + m.T)
        iu = np.triu_indices(m.shape[0])
        return cls(dim=m.shape[0], packed=sym[iu])

    @classmethod
    def zeros(cls, dim: int) -> "SymmetricMatrix":
        return cls(dim=dim, packed=np.zeros(packed_length(dim)))

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim))
        iu = np.triu_indices(self.dim)
        out[iu] = self.packed
        out.T[iu] = self.packed
        return out

    def max_abs(self) -> float:
        return float(np.abs(self.packed).max())

    def scaled(self, factor: float) -> "SymmetricMatrix":
        return SymmetricMatrix(dim=self.dim, packed=self.packed * factor)


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
    def top_value(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def top_vector(self) -> np.ndarray:
        return self.eigenvectors[:, 0].copy()


def _fix_signs(vectors: np.ndarray) -> None:
    for k in range(vectors.shape[1]):
        col = vectors[:, k]
        nz = np.nonzero(col)[0]
        if nz.size and col[nz[0]] < 0:
            col *= -1.0


def jacobi_eigendecomposition(
    a: SymmetricMatrix, *, max_sweeps: int = 100
) -> EigenDecomposition:
    """Full eigendecomposition by cyclic Jacobi rotations.

    An independent pure-numpy reference for eigendecomposition: accurate
    and deterministic, not fast. Dimension is capped at 2048.

    Raises:
        ValueError: dimension above the oracle cap.
        ConvergenceError: off-diagonal mass not annihilated within
            max_sweeps sweeps, or postconditions (orthonormality,
            reconstruction) violated.
    """
    n = a.dim
    if n > MAX_ORACLE_DIM:
        raise ValueError(f"oracle eigensolver capped at dim {MAX_ORACLE_DIM}")
    m = a.to_dense()
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

    return _oracle_result(a, np.diag(m), v)


def eigendecomposition(a: SymmetricMatrix) -> EigenDecomposition:
    """Full eigendecomposition by LAPACK's symmetric solver (numpy eigh).

    The offline oracle: same contracts as jacobi_eigendecomposition
    (descending order, sign convention, dimension cap, postconditions),
    at BLAS speed.

    Raises:
        ValueError: dimension above the oracle cap.
        ConvergenceError: postconditions (orthonormality, reconstruction)
            violated.
    """
    if a.dim > MAX_ORACLE_DIM:
        raise ValueError(f"oracle eigensolver capped at dim {MAX_ORACLE_DIM}")
    values, vectors = np.linalg.eigh(a.to_dense())
    return _oracle_result(a, values, vectors)


def _oracle_result(
    a: SymmetricMatrix, values: np.ndarray, vectors: np.ndarray
) -> EigenDecomposition:
    # Sort descending (stable), fix signs, then verify the postconditions.
    n = a.dim
    order = np.argsort(-values, kind="stable")
    values = values[order]
    vectors = vectors[:, order]
    _fix_signs(vectors)

    gram_err = float(np.abs(vectors.T @ vectors - np.eye(n)).max())
    if gram_err > ORTHONORMALITY_TOL:
        raise ConvergenceError(f"eigenvectors not orthonormal: {gram_err:g}")
    recon = vectors @ (values[:, None] * vectors.T)
    recon_err = float(np.abs(recon - a.to_dense()).max())
    if recon_err > RECONSTRUCTION_TOL * max(1.0, a.max_abs()):
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


def power_iteration_top(
    a: SymmetricMatrix, tol: float, max_iters: int
) -> tuple[float, np.ndarray]:
    """Top (algebraically largest) eigenpair by shifted power iteration.

    The matrix is shifted by a Gershgorin bound when it might be
    indefinite, so iteration converges to the largest eigenvalue rather
    than the largest in magnitude. Convergence means the Rayleigh
    quotient stabilized to within tol on two consecutive iterations.
    A spectral gap is the caller's responsibility.

    Returns:
        (eigenvalue, unit eigenvector), sign-fixed like the oracle.

    Raises:
        ConvergenceError: Rayleigh quotient failed to stabilize within
            max_iters iterations.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iters < 1:
        raise ValueError("max_iters must be positive")
    m = a.to_dense()
    n = a.dim

    gershgorin_low = float(
        np.min(np.diag(m) - (np.sum(np.abs(m), axis=1) - np.abs(np.diag(m))))
    )
    shift = max(0.0, -gershgorin_low)
    ms = m + shift * np.eye(n)

    rng = np.random.default_rng(0)
    vec = rng.standard_normal(n)
    vec /= np.linalg.norm(vec)

    lam_prev = math.inf
    hits = 0
    for _ in range(max_iters):
        w = ms @ vec
        wn = float(np.linalg.norm(w))
        if wn == 0.0:
            # Shifted matrix annihilates vec: the zero matrix case.
            lam = 0.0
            _fix_single_sign(vec)
            return lam, vec
        vec = w / wn
        lam = float(vec @ (m @ vec))
        if abs(lam - lam_prev) <= tol * max(1.0, abs(lam)):
            hits += 1
            if hits >= 2:
                _fix_single_sign(vec)
                return lam, vec
        else:
            hits = 0
        lam_prev = lam
    raise ConvergenceError(
        f"power iteration: Rayleigh quotient not stable after {max_iters} iters"
    )


def _fix_single_sign(vec: np.ndarray) -> None:
    nz = np.nonzero(vec)[0]
    if nz.size and vec[nz[0]] < 0:
        vec *= -1.0
