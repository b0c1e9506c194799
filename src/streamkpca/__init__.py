"""Streaming kernel PCA with explicit feature maps, an offline spectral
oracle, and machine-checkable trajectory guarantees.

Each public name is imported from its submodule on first use (PEP 562),
so ``import streamkpca`` loads neither numpy nor any submodule. The
package never sets a BLAS thread count: a library must not change its
host program's threading. The ``streamkpca`` command line
(``streamkpca.cli``) defaults it to one thread before numpy loads.
"""

import importlib

__version__ = "0.1.0"

# Each submodule and the public names it defines; __all__ is this table.
_PUBLIC = {
    "checks": (
        "CheckReport",
        "CheckResult",
        "run_all_checks",
    ),
    "config": (
        "ConfigError",
        "RunConfig",
    ),
    "datagen": (
        "SpikedGroundTruth",
        "SpikedSpec",
        "make_spiked_stream",
        "monte_carlo_offset_norm",
    ),
    "featuremaps": (
        "FeatureMapSpec",
    ),
    "harness": (
        "check_trajectory_file",
        "run",
        "run_trial",
        "sweep",
    ),
    "linalg": (
        "ConvergenceError",
        "DimensionError",
        "EigenDecomposition",
        "eigendecomposition",
    ),
    "oja": (
        "NumericError",
        "OjaConfig",
        "StreamState",
        "init_state",
        "init_state_at",
        "oja_step",
        "run_stream",
        "select_learning_rate",
    ),
    "spectral": (
        "AlphaBeta",
        "SpectralSummary",
        "alignment_error",
        "compute_alpha_beta",
        "summarize",
    ),
    "trajectory": (
        "Trajectory",
        "TrajectoryParseError",
        "read_trajectory",
        "write_trajectory",
    ),
}

_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()).union(__all__))
