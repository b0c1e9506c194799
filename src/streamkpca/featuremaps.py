"""Explicit feature maps from input space R^d into feature space R^m.

Three maps are shipped:

* ``identity`` -- recovers plain linear streaming PCA (m = d) and makes
  exact comparison with the offline oracle possible.
* ``poly2`` -- homogeneous degree-2 monomials with sqrt(2)-scaled cross
  terms, so <phi(x), phi(y)> = <x, y>^2 exactly (m = d(d+1)/2).
* ``rff`` -- random Fourier cosine features approximating an RBF kernel;
  frequencies and phases are drawn from the seed once per spec and kept
  on it, so the map is one fixed deterministic function for the whole
  stream, and its parameters live and die with the spec.

``apply`` lifts one sample; ``apply_batch`` lifts a block of rows with
one validation and one vectorized pass, into a caller's buffer if given
one, and its rows equal ``apply`` of each input bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .linalg import DimensionError, as_vector

KINDS = ("identity", "poly2", "rff")


def poly2_dim(d: int) -> int:
    return d * (d + 1) // 2


@dataclass(frozen=True)
class FeatureMapSpec:
    """Immutable description of one feature map.

    Only kind="rff" takes ``bandwidth`` and ``seed``; another kind's are None.
    """

    kind: str
    input_dim: int
    feature_dim: int
    bandwidth: float | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown feature map kind {self.kind!r}")
        if self.input_dim < 1:
            raise ValueError("input_dim must be positive")
        if self.kind == "identity" and self.feature_dim != self.input_dim:
            raise ValueError("identity map requires feature_dim == input_dim")
        if self.kind == "poly2" and self.feature_dim != poly2_dim(self.input_dim):
            raise ValueError(
                f"poly2 map requires feature_dim == d(d+1)/2 = {poly2_dim(self.input_dim)}"
            )
        if self.kind != "rff":
            for key in ("bandwidth", "seed"):
                if getattr(self, key) is not None:
                    raise ValueError(
                        f"key {key!r} is for an rff map only, not "
                        f"{self.kind}; got {getattr(self, key)!r}"
                    )
        else:
            if self.feature_dim < 1:
                raise ValueError("rff feature_dim must be positive")
            if self.bandwidth is None or not (
                0.0 < self.bandwidth and linalg.is_finite_float(self.bandwidth)
            ):
                raise ValueError(
                    f"rff bandwidth must be finite and positive, "
                    f"got {self.bandwidth!r}"
                )
            linalg.check_seed(self.seed, "rff seed")
            # z / bandwidth is finite for a bandwidth >= 1.
            if self.bandwidth < 1.0 and not np.isfinite(self.rff_parameters[0]).all():
                raise ValueError(
                    f"rff bandwidth {self.bandwidth!r} overflows a frozen "
                    "frequency: it must be larger"
                )

    @classmethod
    def identity(cls, d: int) -> "FeatureMapSpec":
        return cls(kind="identity", input_dim=d, feature_dim=d)

    @classmethod
    def poly2(cls, d: int) -> "FeatureMapSpec":
        return cls(kind="poly2", input_dim=d, feature_dim=poly2_dim(d))

    @classmethod
    def rff(
        cls, d: int, m: int, bandwidth: float, seed: int
    ) -> "FeatureMapSpec":
        return cls(
            kind="rff",
            input_dim=d,
            feature_dim=m,
            bandwidth=bandwidth,
            seed=seed,
        )

    def apply(self, x) -> np.ndarray:
        """Map an input vector into feature space.

        Raises:
            DimensionError: if len(x) != input_dim.
        """
        v = as_vector(x)
        if v.shape[0] != self.input_dim:
            raise DimensionError(
                f"expected input of length {self.input_dim}, got {v.shape[0]}"
            )
        if self.kind == "identity":
            return v
        if self.kind == "poly2":
            i, j, w = self._poly2_layout
            return w * v[i] * v[j]
        w_freq, b = self.rff_parameters
        return math.sqrt(2.0 / self.feature_dim) * np.cos(w_freq @ v + b)

    def apply_batch(self, xs, out=None) -> np.ndarray:
        """Map a (k, input_dim) block of inputs to (k, feature_dim) rows.

        Shape and finiteness are checked once for the block. The rows go
        into a new C-contiguous array, or, given ``out``, into out[:k],
        which is returned: a caller lifting block after block into one
        C-contiguous float64 buffer of at least k rows allocates no
        (k, feature_dim) array per block. Row i equals apply(xs[i]) bit
        for bit: each row's numbers come from the same per-sample
        operations, and a later dot product over a contiguous row rounds
        as it would over apply's vector.

        Raises:
            DimensionError: xs is not 2-D with input_dim columns.
            ValueError: an entry is NaN or infinite, or out is not a
                C-contiguous float64 array of k rows or more and
                feature_dim columns.
        """
        try:
            x = np.array(xs, dtype=np.float64, order="C")
        except ValueError as exc:  # ragged rows
            raise DimensionError(f"input block is not a 2-D array: {exc}") from exc
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise DimensionError(
                f"expected a (k, {self.input_dim}) block, got shape {x.shape}"
            )
        if not np.isfinite(x).all():
            raise ValueError("input block has non-finite entries")
        k, m = x.shape[0], self.feature_dim
        if out is None:
            if self.kind == "identity":
                return x
            out = np.empty((k, m))
        elif (
            out.dtype != np.float64 or out.ndim != 2 or out.shape[0] < k
            or out.shape[1] != m or not out.flags.c_contiguous
        ):
            raise ValueError(
                f"out must be a C-contiguous float64 array of at least "
                f"({k}, {m}), got {out.dtype} {out.shape}"
            )
        res = out[:k]
        if self.kind == "identity":
            res[...] = x
        elif self.kind == "poly2":
            # (w * x_i) * x_j in apply's order, with no (k, m) temporary.
            # mode="clip" (the indices are in range) lets take write out
            # directly; its default buffers the result.
            i, _, w = self._poly2_layout
            np.take(x, i, axis=1, out=res, mode="clip")
            res *= w
            # Entries [start, stop) are the pairs (a, a), ..., (a, d - 1).
            start = 0
            for a in range(self.input_dim):
                stop = start + self.input_dim - a
                res[:, start:stop] *= x[:, a:]
                start = stop
        else:
            w_freq, b = self.rff_parameters
            # One GEMV per row, as in apply; x @ w_freq.T (one GEMM) would
            # round differently.
            np.matmul(w_freq, x[:, :, None], out=res[:, :, None])
            res += b
            np.cos(res, out=res)
            res *= math.sqrt(2.0 / m)
        return res

    @cached_property
    def rff_parameters(self) -> tuple[np.ndarray, np.ndarray]:
        """Frozen frequency matrix (m, d) and phase vector (m,) of an rff
        spec, drawn from its seed on first use and kept on the spec."""
        if self.kind != "rff":
            raise ValueError(f"rff parameters are for an rff map only, not {self.kind}")
        m, rng = self.feature_dim, np.random.default_rng(self.seed)
        with np.errstate(over="ignore"):  # __post_init__ refuses an inf
            freqs = rng.standard_normal((m, self.input_dim)) / float(self.bandwidth)
        return freqs, rng.uniform(0.0, 2.0 * math.pi, size=m)

    @cached_property
    def _poly2_layout(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Entry k of poly2's map is weights[k] * x[i[k]] * x[j[k]]."""
        i, j = np.triu_indices(self.input_dim)
        return i, j, np.where(i == j, 1.0, math.sqrt(2.0))

    def norm_bound(self, generator_bound: float) -> float:
        """Certified bound on ||phi(x)||^2 given a bound on ||x||^2.

        ``generator_bound`` must dominate max ||x||^2 over the stream;
        the caller (data generator or user) certifies that.
        """
        if generator_bound <= 0:
            raise ValueError("generator_bound must be positive")
        if self.kind == "identity":
            return float(generator_bound)
        if self.kind == "poly2":
            # ||phi(x)||^2 = <x, x>^2 <= generator_bound^2; g * g rounds
            # as g ** 2 does but overflows to inf, not OverflowError.
            g = float(generator_bound)
            return g * g
        # sum_j (2/m) cos^2(...) <= 2 regardless of the input
        return 2.0

    def to_dict(self) -> dict:
        """The fields that are not None: only rff has bandwidth and seed."""
        return {k: v for k, v in asdict(self).items() if v is not None}

    @classmethod
    def from_dict(cls, d: dict) -> "FeatureMapSpec":
        """The spec of to_dict's keys. Values are taken as given, not
        coerced: config checks the JSON types of a config file's
        or a trajectory sidecar's feature map first."""
        return cls(**d)
