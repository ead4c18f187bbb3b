"""GPU API remoting (rCUDA-style) — the related-work comparator.

The paper's Related Work discusses remoting solutions like rCUDA,
which run GPUs from hosts outside the PCIe domain by forwarding each
CUDA call over the network. Remoting differs from CDI in *what*
crosses the network:

* **CDI** extends the PCIe fabric: data still moves host-to-GPU at
  PCIe-class bandwidth, and only *latency* (slack) is added per call;
* **remoting** is an RPC layer: every call pays an RPC round trip,
  and every memcpy's payload is carried by the *network*, so
  bandwidth drops from PCIe's ~25.6 GB/s to the NIC's line rate.

:func:`make_remoting_device` builds an index-core
:class:`~repro.gpusim.flatcore.FlatDevice` with that cost structure,
letting the proxy compare CDI against remoting on the same workload
(the paper's reason for rejecting remoting as a slack *measurement*
tool was controllability, but the performance contrast is what a
deployer cares about).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..hw.specs import A100_SXM4_40GB, PCIE_GEN4_X16, PCIeSpec
from ..network.slack import SlackModel
from .flatcore import FlatDevice
from .runtime import API_OVERHEAD_S

__all__ = ["RemotingSpec", "make_remoting_device"]


@dataclass(frozen=True)
class RemotingSpec:
    """Cost structure of an API-remoting deployment."""

    rpc_latency_s: float = 5.0e-6
    network_bandwidth_Bps: float = 12.5e9  # 100 Gb/s NIC
    per_call_overhead_s: float = 2.0e-6  # marshalling/unmarshalling

    def __post_init__(self) -> None:
        if self.rpc_latency_s < 0 or self.per_call_overhead_s < 0:
            raise ValueError("latencies must be non-negative")
        if self.network_bandwidth_Bps <= 0:
            raise ValueError("network_bandwidth_Bps must be positive")

    @property
    def effective_bandwidth_Bps(self) -> float:
        """Payload bandwidth available to forwarded memcpys."""
        return self.network_bandwidth_Bps

    def as_link_spec(self, pcie: PCIeSpec = PCIE_GEN4_X16) -> PCIeSpec:
        """The host link a remoted GPU effectively presents.

        Bandwidth is the smaller of PCIe and the network (the transfer
        crosses both); latency gains the RPC hop.
        """
        effective = min(pcie.effective_bandwidth_Bps, self.network_bandwidth_Bps)
        # Express the bandwidth cap through the efficiency knob so the
        # lane/rate bookkeeping stays honest.
        efficiency = effective / pcie.raw_bandwidth_Bps
        return replace(
            pcie,
            efficiency=min(1.0, efficiency),
            latency_s=pcie.latency_s + self.rpc_latency_s,
        )


def make_remoting_device(spec: RemotingSpec) -> FlatDevice:
    """A :class:`~repro.gpusim.flatcore.FlatDevice` with rCUDA-style
    remoting costs on the default A100 and PCIe Gen4 specs.

    Per-call RPC latency arrives as slack (it is a per-call delay,
    exactly like CDI slack); the bandwidth cap and the latency on the
    data path arrive through the link spec; call marshalling inflates
    the API overhead.
    """
    return FlatDevice(
        A100_SXM4_40GB,
        spec.as_link_spec(PCIE_GEN4_X16),
        SlackModel(spec.rpc_latency_s),
        api_overhead_s=API_OVERHEAD_S + spec.per_call_overhead_s,
    )
