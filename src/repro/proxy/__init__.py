"""The slack proxy application and its response surface.

Implements the paper's Section III-C proxy (synchronous matmul loop
with per-call slack injection and OpenMP-style thread parallelism),
the Section IV-B sweeps, and the interpolating response surface the
prediction model queries.
"""

from .calibration import (
    ITERATION_CEILING,
    ITERATION_FLOOR,
    KernelCalibration,
    TARGET_COMPUTE_SECONDS,
    calibrate_iterations,
    calibrate_matrix_size,
    time_single_kernel,
)
from ..gpusim.flatcore import FastForwardInfo
from .options import ShardingUnsupportedError, SweepOptions
from .quantize import (
    dedupe_slacks,
    same_slack,
    slack_bucket,
    slack_tolerance,
    snap_slack,
)
from .matmul import (
    CUDA_CALLS_PER_ITERATION,
    ProxyConfig,
    ProxyResult,
    run_proxy,
)
from .response import SlackResponseSurface
from .sweep import (
    PAPER_MATRIX_SIZES,
    PAPER_SLACK_VALUES_S,
    PAPER_THREAD_COUNTS,
    SweepPoint,
    SweepResult,
    SweepTiming,
    assemble_sweep_result,
    grid_series,
    plan_grid_tasks,
    run_slack_sweep,
)

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
    "ShardingUnsupportedError",
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
