"""CosmoFlow (MLPerf HPC, mini dataset) workload model.

A 3D-CNN training loop over the simulated GPU: layer-derived kernel
sequences, prefetch input pipeline, Horovod-style gradient exchange —
the GPU-dominant counterpart to LAMMPS in the paper's study.
"""

from ..._lazy import lazy_exports

__all__ = [
    "CosmoFlowNet",
    "Conv3DBlock",
    "DenseLayer",
    "cosmoflow_layers",
    "INPUT_SHAPE",
    "CONV_CHANNELS",
    "DENSE_UNITS",
    "CosmoFlowProfileConfig",
    "profile_cosmoflow",
    "cosmoflow_cpu_runtime",
    "COSMOFLOW_REQUIRED_CORES",
    "LAUNCH_PHASE_FRACTION",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".model": ("CosmoFlowNet",),
        ".layers": (
            "Conv3DBlock",
            "DenseLayer",
            "cosmoflow_layers",
            "INPUT_SHAPE",
            "CONV_CHANNELS",
            "DENSE_UNITS",
        ),
        ".training": (
            "CosmoFlowProfileConfig",
            "profile_cosmoflow",
            "cosmoflow_cpu_runtime",
            "COSMOFLOW_REQUIRED_CORES",
            "LAUNCH_PHASE_FRACTION",
        ),
    },
)
