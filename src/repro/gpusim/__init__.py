"""A discrete-event simulated CUDA runtime.

The substitution for the paper's real A100 node: a CUDA-like host API
(:class:`CudaRuntime`) over three serial device engines (compute + two
DMA directions), device memory, streams and events — with slack
injection at the API boundary and a starvation cost model that charges
for idle gaps the way a real GPU's clock ramp and queue re-priming do.
"""

from .graphs import CudaGraph, GraphNode
from .engines import (
    ComputeEngine,
    OccupancyComputeEngine,
    CopyEngine,
    DeviceActivity,
    Engine,
    ExecutionReceipt,
)
from .interception import SlackInjector
from .kernels import (
    KernelSpec,
    matmul_sm_fraction,
    MATMUL_EFF_HALF_N,
    matmul_efficiency,
    matmul_kernel,
)
from .multigpu import (
    CHASSIS_INTERNAL,
    CROSS_CHASSIS,
    GPUGroup,
    NVLINK3,
    PeerLinkSpec,
    ring_allreduce_time,
)
from .preload import PreloadShim
from .remoting import RemotingSpec, make_remoting_runtime
from .runtime import CudaRuntime
from .stream import CopyOp, KernelOp, Stream

__all__ = [
    "CudaRuntime",
    "Stream",
    "KernelOp",
    "CopyOp",
    "KernelSpec",
    "matmul_kernel",
    "matmul_efficiency",
    "matmul_sm_fraction",
    "MATMUL_EFF_HALF_N",
    "Engine",
    "ComputeEngine",
    "OccupancyComputeEngine",
    "CopyEngine",
    "DeviceActivity",
    "ExecutionReceipt",
    "SlackInjector",
    "GPUGroup",
    "PeerLinkSpec",
    "NVLINK3",
    "CHASSIS_INTERNAL",
    "CROSS_CHASSIS",
    "ring_allreduce_time",
    "PreloadShim",
    "RemotingSpec",
    "make_remoting_runtime",
    "CudaGraph",
    "GraphNode",
]
