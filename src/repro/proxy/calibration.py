"""Proxy calibration: iteration counts and kernel baselines (Sec III-C).

The paper's proxy first times a single kernel, then sizes the main
compute loop to ~30 seconds of raw GPU compute, clamped to [5, 1000]
iterations so small kernels (with proportionally noisier runtimes)
still get enough repetitions and huge kernels don't run for hours.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..gpusim.flatcore import FlatDevice
from ..hw.specs import A100_SXM4_40GB, GPUSpec, PCIE_GEN4_X16, PCIeSpec
from ..network.slack import SlackModel
from .core import iteration_body

__all__ = [
    "TARGET_COMPUTE_SECONDS",
    "ITERATION_FLOOR",
    "ITERATION_CEILING",
    "calibrate_iterations",
    "time_single_kernel",
    "KernelCalibration",
    "calibrate_matrix_size",
]

#: The paper's compute budget for the main loop.
TARGET_COMPUTE_SECONDS = 30.0
#: The paper's iteration-count bounds.
ITERATION_FLOOR = 5
ITERATION_CEILING = 1000

#: Per-process memo of :func:`time_single_kernel`. The timing is a pure
#: function of its arguments (the specs are frozen dataclasses), and
#: sweeps, Table II and the predictor's marks ask for the same handful
#: of sizes dozens of times per run.
_KERNEL_TIMES: Dict[Tuple[int, GPUSpec, PCIeSpec, int], float] = {}


def calibrate_iterations(
    kernel_time_s: float,
    target_s: float = TARGET_COMPUTE_SECONDS,
    floor: int = ITERATION_FLOOR,
    ceiling: int = ITERATION_CEILING,
) -> int:
    """Iterations for ~``target_s`` of raw GPU compute, clamped.

    >>> calibrate_iterations(1.0)
    30
    >>> calibrate_iterations(100.0)  # huge kernel -> floor
    5
    >>> calibrate_iterations(1e-6)  # tiny kernel -> ceiling
    1000
    """
    if kernel_time_s <= 0:
        raise ValueError("kernel_time_s must be positive")
    if floor < 1 or ceiling < floor:
        raise ValueError("need 1 <= floor <= ceiling")
    n = int(round(target_s / kernel_time_s))
    return max(floor, min(ceiling, n))


def time_single_kernel(
    matrix_size: int,
    gpu: GPUSpec = A100_SXM4_40GB,
    pcie: PCIeSpec = PCIE_GEN4_X16,
    dtype_bytes: int = 4,
) -> float:
    """The proxy's preliminary kernel timing (paper Section III-C).

    Times the matmul *inside one realistic loop iteration* (copies in,
    kernel, copy out) rather than in isolation: an in-loop kernel pays
    the structural few-microsecond re-priming cost after the host-side
    call turnaround, so calibrating this way makes the Table II marks
    line up exactly with the kernel durations loop traces show — which
    is what the binning of Section IV-D compares against.

    The iteration is the proxy's own loop body
    (:func:`repro.proxy.core.iteration_body`), run once without slack
    on the index core (:class:`~repro.gpusim.flatcore.FlatDevice`); the
    timing is the duration of the one kernel in its trace, the value
    the same iteration on :class:`~repro.gpusim.CudaRuntime` records.
    Memoized per process: a repeated call returns the identical float
    without re-simulating.
    """
    key = (matrix_size, gpu, pcie, dtype_bytes)
    cached = _KERNEL_TIMES.get(key)
    if cached is not None:
        return cached
    dev = FlatDevice(gpu, pcie, SlackModel(0.0))
    run = dev.run([iteration_body(dev, matrix_size, dtype_bytes)], [0])
    kernel_time = float(run.trace.kernels()[0].duration)
    _KERNEL_TIMES[key] = kernel_time
    return kernel_time


@dataclass(frozen=True)
class KernelCalibration:
    """Everything Table II reports for one matrix size."""

    matrix_size: int
    matrix_bytes: int
    kernel_time_s: float
    iterations: int

    @property
    def raw_compute_s(self) -> float:
        """Total kernel time the calibrated loop will spend."""
        return self.kernel_time_s * self.iterations


def calibrate_matrix_size(
    matrix_size: int,
    gpu: GPUSpec = A100_SXM4_40GB,
    pcie: PCIeSpec = PCIE_GEN4_X16,
    dtype_bytes: int = 4,
    target_s: float = TARGET_COMPUTE_SECONDS,
) -> KernelCalibration:
    """Time the kernel and derive the loop's iteration count."""
    kernel_time = time_single_kernel(matrix_size, gpu, pcie, dtype_bytes)
    return KernelCalibration(
        matrix_size=matrix_size,
        matrix_bytes=matrix_size * matrix_size * dtype_bytes,
        kernel_time_s=kernel_time,
        iterations=calibrate_iterations(kernel_time, target_s=target_s),
    )
