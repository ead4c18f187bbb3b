"""Kernel cost models for the simulated GPU.

A :class:`KernelSpec` describes one kernel launch; its execution time
on a given GPU comes either from an explicit duration (application
models replaying measured distributions) or from a roofline estimate
(compute-bound vs memory-bound) with a size-dependent efficiency
curve. :func:`matmul_kernel` builds the square SGEMM the paper's slack
proxy runs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..hw.specs import GPUSpec

__all__ = ["KernelSpec", "explicit_execution_time", "matmul_kernel", "matmul_efficiency", "matmul_sm_fraction", "MATMUL_EFF_HALF_N"]

#: Matrix dimension at which SGEMM reaches half its peak efficiency.
#: Small GEMMs underutilize the SMs (tile quantization, launch ramp);
#: the saturating curve n / (n + half_n) captures the measured shape.
MATMUL_EFF_HALF_N = 1536.0

_kernel_ids = itertools.count(1)


@dataclass(frozen=True)
class KernelSpec:
    """One kernel launch's work description.

    Exactly one of ``duration_s`` or (``flops`` and/or
    ``bytes_accessed``) should describe the work: an explicit duration
    wins; otherwise the roofline bound is used.
    """

    name: str
    duration_s: Optional[float] = None
    flops: float = 0.0
    bytes_accessed: float = 0.0
    efficiency: float = 1.0
    sm_fraction: float = 1.0
    meta: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.duration_s is not None and self.duration_s < 0:
            raise ValueError("duration_s must be non-negative")
        if self.flops < 0 or self.bytes_accessed < 0:
            raise ValueError("work terms must be non-negative")
        if not 0 < self.efficiency <= 1:
            raise ValueError("efficiency must be in (0, 1]")
        if not 0 < self.sm_fraction <= 1:
            raise ValueError("sm_fraction must be in (0, 1]")
        if self.duration_s is None and self.flops == 0 and self.bytes_accessed == 0:
            raise ValueError(
                f"kernel {self.name!r} has no duration and no work description"
            )

    def execution_time(self, gpu: GPUSpec) -> float:
        """Busy time this kernel occupies the compute engine for.

        Roofline: the larger of the compute-bound time (at the
        kernel's efficiency) and the memory-bound time, floored at the
        GPU's minimum kernel time.
        """
        if self.duration_s is not None:
            return explicit_execution_time(self.duration_s, gpu)
        compute_t = (
            self.flops / (gpu.peak_flops * self.efficiency) if self.flops else 0.0
        )
        memory_t = (
            self.bytes_accessed / gpu.memory_bandwidth_Bps
            if self.bytes_accessed
            else 0.0
        )
        return max(compute_t, memory_t, gpu.min_kernel_time_s)


def explicit_execution_time(duration_s: float, gpu: GPUSpec) -> float:
    """Busy time of a kernel given an explicit duration on ``gpu``.

    The duration, floored at the GPU's minimum kernel time (what
    :meth:`KernelSpec.execution_time` returns for ``duration_s``
    kernels).
    """
    return max(duration_s, gpu.min_kernel_time_s)


def matmul_efficiency(n: int, half_n: float = MATMUL_EFF_HALF_N) -> float:
    """Fraction of peak FLOP/s an ``n x n`` SGEMM achieves.

    Saturating curve ``n / (n + half_n)``: ~25% at n=512, ~84% at
    n=8192, ~96% at n=32768 — consistent with published cuBLAS SGEMM
    efficiency trends on A100.
    """
    if n <= 0:
        raise ValueError("matrix dimension must be positive")
    return n / (n + half_n)


#: SGEMM tile edge: one 128x128 output tile occupies roughly one SM.
_GEMM_TILE = 128


def matmul_sm_fraction(n: int, sm_count: int = 108) -> float:
    """Fraction of the device's SMs an ``n x n`` SGEMM occupies.

    One thread block computes a 128x128 output tile; the kernel fills
    the device once its (n/128)^2 blocks cover the SM count. Small
    GEMMs leave SMs free for concurrent kernels — the occupancy
    headroom the :class:`OccupancyComputeEngine` models.
    """
    if n <= 0:
        raise ValueError("matrix dimension must be positive")
    blocks = max(1, (n + _GEMM_TILE - 1) // _GEMM_TILE) ** 2
    return min(1.0, blocks / sm_count)


def matmul_kernel(n: int, dtype_bytes: int = 4) -> KernelSpec:
    """The proxy's square matmul kernel ``A(nxn) @ B(nxn) = C``."""
    if n <= 0:
        raise ValueError("matrix dimension must be positive")
    if dtype_bytes <= 0:
        raise ValueError("dtype_bytes must be positive")
    return KernelSpec(
        name=f"sgemm_n{n}",
        flops=2.0 * n**3,
        bytes_accessed=3.0 * n * n * dtype_bytes,
        efficiency=matmul_efficiency(n),
        sm_fraction=matmul_sm_fraction(n),
        meta={"matrix_size": n, "dtype_bytes": dtype_bytes},
    )
