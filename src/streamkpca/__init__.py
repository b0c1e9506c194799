"""Streaming kernel PCA with explicit feature maps, an offline spectral
oracle, and machine-checkable trajectory guarantees."""

from .checks import (
    CheckReport,
    CheckResult,
    check_final_bound,
    check_growth_implies_correctness,
    check_norm_lower_bounds,
    check_projected_energy,
    check_two_time_steps,
    check_update_properties,
    run_all_checks,
)
from .datagen import (
    SpikedGroundTruth,
    SpikedSpec,
    make_spiked_stream,
    monte_carlo_offset_norm,
)
from .featuremaps import FeatureMapSpec
from .harness import (
    ConfigError,
    RunConfig,
    TrajectoryParseError,
    check_trajectory_file,
    read_trajectory,
    run,
    run_trial,
    sweep,
    write_trajectory,
)
from .linalg import (
    ConvergenceError,
    DimensionError,
    EigenDecomposition,
    eigendecomposition,
)
from .oja import (
    NumericError,
    OjaConfig,
    StepRecord,
    StreamState,
    Trajectory,
    init_state,
    init_state_at,
    oja_step,
    run_stream,
    select_learning_rate,
)
from .spectral import (
    AlphaBeta,
    SpectralSummary,
    alignment_error,
    compute_alpha_beta,
    summarize,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaBeta",
    "CheckReport",
    "CheckResult",
    "ConfigError",
    "ConvergenceError",
    "DimensionError",
    "EigenDecomposition",
    "FeatureMapSpec",
    "NumericError",
    "OjaConfig",
    "RunConfig",
    "SpectralSummary",
    "SpikedGroundTruth",
    "SpikedSpec",
    "StepRecord",
    "StreamState",
    "Trajectory",
    "TrajectoryParseError",
    "alignment_error",
    "check_final_bound",
    "check_growth_implies_correctness",
    "check_norm_lower_bounds",
    "check_projected_energy",
    "check_trajectory_file",
    "check_two_time_steps",
    "check_update_properties",
    "compute_alpha_beta",
    "eigendecomposition",
    "init_state",
    "init_state_at",
    "make_spiked_stream",
    "monte_carlo_offset_norm",
    "oja_step",
    "read_trajectory",
    "run",
    "run_all_checks",
    "run_stream",
    "run_trial",
    "select_learning_rate",
    "summarize",
    "sweep",
    "write_trajectory",
]
