"""The analytic slack-penalty model: Equations 1-3, binning, predictor.

Turns an application's traced profile plus the proxy's slack response
surface into the lower/upper penalty bounds of the paper's Table IV,
and self-validates the methodology on proxy traces (Section IV-D).
"""

from .._lazy import lazy_exports

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

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".adaptive": (
            "DEFAULT_TOL",
            "AdaptiveSweepResult",
            "adaptive_slack_sweep",
        ),
        ".surrogate": (
            "TrainingSeries",
            "extract_training_series",
            "crossval_bounds",
            "interp_penalty",
            "BOUND_SAFETY_FACTOR",
            "SURROGATE_METHODS",
        ),
        ".equations": (
            "equation1_remove_direct_slack",
            "equation2_total_slack_penalty",
            "equation3_binned_slack_penalty",
        ),
        ".binning": (
            "BinnedDistribution",
            "bin_values",
            "bin_transfer_sizes",
            "bin_kernel_durations",
            "matrix_bytes",
            "transfer_grid_bytes",
            "table3_bins",
            "TABLE3_BIN_EDGES_MIB",
        ),
        ".predictor": ("CDIProfiler", "SlackPrediction"),
        ".validation": (
            "SelfValidationResult",
            "validate_self_prediction",
            "validation_report",
        ),
        ".sensitivity": (
            "SensitivityPoint",
            "ramp_sensitivity",
            "cap_sensitivity",
        ),
    },
)
