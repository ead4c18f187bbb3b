"""The slack proxy application and its response surface.

Implements the paper's Section III-C proxy (synchronous matmul loop
with per-call slack injection and OpenMP-style thread parallelism),
the Section IV-B sweeps, and the interpolating response surface the
prediction model queries.
"""

from .._lazy import lazy_exports

__all__ = [
    "ProxyConfig",
    "ProxyResult",
    "FastForwardInfo",
    "run_proxy",
    "CUDA_CALLS_PER_ITERATION",
    "calibrate_iterations",
    "calibrate_matrix_size",
    "time_single_kernel",
    "KernelCalibration",
    "TARGET_COMPUTE_SECONDS",
    "ITERATION_FLOOR",
    "ITERATION_CEILING",
    "run_slack_sweep",
    "plan_grid_tasks",
    "grid_series",
    "assemble_sweep_result",
    "SweepOptions",
    "slack_bucket",
    "slack_tolerance",
    "same_slack",
    "snap_slack",
    "dedupe_slacks",
    "SweepPoint",
    "SweepResult",
    "SweepTiming",
    "PAPER_MATRIX_SIZES",
    "PAPER_SLACK_VALUES_S",
    "PAPER_THREAD_COUNTS",
    "SlackResponseSurface",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".matmul": (
            "ProxyConfig",
            "ProxyResult",
            "run_proxy",
            "CUDA_CALLS_PER_ITERATION",
        ),
        "..gpusim.flatcore": ("FastForwardInfo",),
        ".calibration": (
            "calibrate_iterations",
            "calibrate_matrix_size",
            "time_single_kernel",
            "KernelCalibration",
            "TARGET_COMPUTE_SECONDS",
            "ITERATION_FLOOR",
            "ITERATION_CEILING",
        ),
        ".sweep": (
            "run_slack_sweep",
            "plan_grid_tasks",
            "grid_series",
            "assemble_sweep_result",
            "SweepPoint",
            "SweepResult",
            "SweepTiming",
            "PAPER_MATRIX_SIZES",
            "PAPER_SLACK_VALUES_S",
            "PAPER_THREAD_COUNTS",
        ),
        ".options": ("SweepOptions",),
        ".quantize": (
            "slack_bucket",
            "slack_tolerance",
            "same_slack",
            "snap_slack",
            "dedupe_slacks",
        ),
        ".response": ("SlackResponseSurface",),
    },
)
