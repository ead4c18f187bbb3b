"""Hardware models: CPU/GPU/node specs, PCIe fabric, device memory.

Defaults parameterize the paper's testbed (Narval: 2x EPYC 7413 +
4x A100-SXM4-40GB over PCIe Gen4).
"""

from .._lazy import lazy_exports

__all__ = [
    "GiB",
    "MiB",
    "KiB",
    "GPUSpec",
    "CPUSpec",
    "PCIeSpec",
    "NodeSpec",
    "A100_SXM4_40GB",
    "EPYC_7413",
    "PCIE_GEN4_X16",
    "NARVAL_NODE",
    "DeviceMemory",
    "DeviceAllocation",
    "OutOfMemoryError",
    "BDF",
    "PCIeDevice",
    "PCIeDomain",
    "PCIeSwitch",
    "PCIeTopology",
    "EnumerationError",
    "completion_timeout_margin",
    "PCIE_MAX_BUSES",
    "PCIE_MAX_DEVICES_PER_BUS",
    "PCIE_DEFAULT_COMPLETION_TIMEOUT_S",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".specs": (
            "GiB",
            "MiB",
            "KiB",
            "GPUSpec",
            "CPUSpec",
            "PCIeSpec",
            "NodeSpec",
            "A100_SXM4_40GB",
            "EPYC_7413",
            "PCIE_GEN4_X16",
            "NARVAL_NODE",
        ),
        ".memory": ("DeviceMemory", "DeviceAllocation", "OutOfMemoryError"),
        ".pcie": (
            "BDF",
            "PCIeDevice",
            "PCIeDomain",
            "PCIeSwitch",
            "PCIeTopology",
            "EnumerationError",
            "completion_timeout_margin",
            "PCIE_MAX_BUSES",
            "PCIE_MAX_DEVICES_PER_BUS",
            "PCIE_DEFAULT_COMPLETION_TIMEOUT_S",
        ),
    },
)
