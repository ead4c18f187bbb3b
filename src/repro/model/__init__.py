"""The analytic slack-penalty model: Equations 1-3, binning, predictor.

Turns an application's traced profile plus the proxy's slack response
surface into the lower/upper penalty bounds of the paper's Table IV,
and self-validates the methodology on proxy traces (Section IV-D).
"""

from .adaptive import DEFAULT_TOL, AdaptiveSweepResult, adaptive_slack_sweep
from .surrogate import (
    BOUND_SAFETY_FACTOR,
    SURROGATE_METHODS,
    TrainingSeries,
    crossval_bounds,
    extract_training_series,
    interp_penalty,
)
from .binning import (
    BinnedDistribution,
    TABLE3_BIN_EDGES_MIB,
    bin_kernel_durations,
    bin_transfer_sizes,
    bin_values,
    matrix_bytes,
    table3_bins,
    transfer_grid_bytes,
)
from .equations import (
    equation1_remove_direct_slack,
    equation2_total_slack_penalty,
    equation3_binned_slack_penalty,
)
from .predictor import CDIProfiler, SlackPrediction
from .sensitivity import SensitivityPoint, cap_sensitivity, ramp_sensitivity
from .validation import (
    SelfValidationResult,
    validate_self_prediction,
    validation_report,
)

__all__ = [
    "DEFAULT_TOL",
    "AdaptiveSweepResult",
    "adaptive_slack_sweep",
    "TrainingSeries",
    "extract_training_series",
    "crossval_bounds",
    "interp_penalty",
    "BOUND_SAFETY_FACTOR",
    "SURROGATE_METHODS",
    "equation1_remove_direct_slack",
    "equation2_total_slack_penalty",
    "equation3_binned_slack_penalty",
    "BinnedDistribution",
    "bin_values",
    "bin_transfer_sizes",
    "bin_kernel_durations",
    "matrix_bytes",
    "transfer_grid_bytes",
    "table3_bins",
    "TABLE3_BIN_EDGES_MIB",
    "CDIProfiler",
    "SlackPrediction",
    "SelfValidationResult",
    "validate_self_prediction",
    "validation_report",
    "SensitivityPoint",
    "ramp_sensitivity",
    "cap_sensitivity",
]
