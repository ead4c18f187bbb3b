"""A discrete-event simulated CUDA runtime.

The substitution for the paper's real A100 node: a CUDA-like host API
(:class:`CudaRuntime`) over three serial device engines (compute + two
DMA directions), device memory, streams and events — with slack
injection at the API boundary and a starvation cost model that charges
for idle gaps the way a real GPU's clock ramp and queue re-priming do.
"""

from .._lazy import lazy_exports

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
    "CudaGraph",
    "GraphNode",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".runtime": ("CudaRuntime",),
        ".stream": ("Stream", "KernelOp", "CopyOp"),
        ".kernels": (
            "KernelSpec",
            "matmul_kernel",
            "matmul_efficiency",
            "matmul_sm_fraction",
            "MATMUL_EFF_HALF_N",
        ),
        ".engines": (
            "Engine",
            "ComputeEngine",
            "OccupancyComputeEngine",
            "CopyEngine",
            "DeviceActivity",
            "ExecutionReceipt",
        ),
        ".interception": ("SlackInjector",),
        ".multigpu": (
            "GPUGroup",
            "PeerLinkSpec",
            "NVLINK3",
            "CHASSIS_INTERNAL",
            "CROSS_CHASSIS",
            "ring_allreduce_time",
        ),
        ".preload": ("PreloadShim",),
        ".remoting": ("RemotingSpec",),
        ".graphs": ("CudaGraph", "GraphNode"),
    },
)
