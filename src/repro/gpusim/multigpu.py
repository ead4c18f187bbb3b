"""Multi-GPU nodes: peer links, D2D copies and collectives.

The paper's Discussion argues a CDI chassis can couple more GPUs
tightly than any node ("fitting 16 GPUs in a single node is not
possible... CDI can allow for this in a single GPU chassis, which can
greatly increase the performance of CPU-asynchronous operations such
as GPU-to-GPU collective operations"). This module makes that claim
quantitative:

* :class:`GPUGroup` — several :class:`CudaRuntime` devices joined by a
  peer interconnect (NVLink inside a node/chassis, or the CDI fabric
  between chassis);
* :func:`ring_allreduce_time` — the standard 2(N-1)/N ring cost model
  Horovod/NCCL follow, parameterized by the group's link;
* :meth:`GPUGroup.allreduce` — the same as a simulated operation that
  occupies every member's copy engines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, List, Optional, Sequence

from ..des.core import Environment, Event
from ..hw.specs import A100_SXM4_40GB, GPUSpec, PCIeSpec, PCIE_GEN4_X16
from ..network.slack import SlackModel
from ..trace.tracer import Tracer
from .runtime import CudaRuntime

__all__ = [
    "PeerLinkSpec",
    "NVLINK3",
    "CHASSIS_INTERNAL",
    "CROSS_CHASSIS",
    "GPUGroup",
    "ring_allreduce_time",
]


@dataclass(frozen=True)
class PeerLinkSpec:
    """A GPU-to-GPU interconnect between group members."""

    name: str = "nvlink3"
    bandwidth_Bps: float = 300e9  # NVLink3 aggregate per GPU pair
    latency_s: float = 1.0e-6

    def __post_init__(self) -> None:
        if self.bandwidth_Bps <= 0:
            raise ValueError("bandwidth_Bps must be positive")
        if self.latency_s < 0:
            raise ValueError("latency_s must be non-negative")


#: NVLink 3 (A100): ~300 GB/s per direction between peers.
NVLINK3 = PeerLinkSpec()

#: GPUs inside one CDI chassis: switch-backplane coupled (NVSwitch- or
#: PCIe-Gen5-class fabric internal to the chassis).
CHASSIS_INTERNAL = PeerLinkSpec(name="chassis-backplane",
                                bandwidth_Bps=100e9, latency_s=1.5e-6)

#: GPUs split across chassis: traffic crosses the CDI network fabric
#: (200 Gb/s-class links plus extra hops).
CROSS_CHASSIS = PeerLinkSpec(name="cross-chassis", bandwidth_Bps=25e9,
                             latency_s=5.0e-6)


def ring_allreduce_time(
    nbytes: float, world: int, link: PeerLinkSpec
) -> float:
    """Ring allreduce cost: ``2 (N-1)/N`` of the buffer over the link.

    Each of the 2(N-1) steps moves ``nbytes/N`` and pays the link
    latency — the cost model NCCL's ring and Horovod inherit.
    """
    if nbytes < 0:
        raise ValueError("nbytes must be non-negative")
    if world < 1:
        raise ValueError("world must be >= 1")
    if world == 1:
        return 0.0
    steps = 2 * (world - 1)
    per_step = nbytes / world / link.bandwidth_Bps + link.latency_s
    return steps * per_step


class GPUGroup:
    """Several simulated GPUs joined by a peer interconnect."""

    def __init__(
        self,
        env: Environment,
        count: int,
        link: PeerLinkSpec = NVLINK3,
        gpu: GPUSpec = A100_SXM4_40GB,
        pcie: PCIeSpec = PCIE_GEN4_X16,
        slack: Optional[SlackModel] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if count < 1:
            raise ValueError("count must be >= 1")
        self.env = env
        self.link = link
        self.tracer = tracer or Tracer(env, name="gpu-group")
        self.devices: List[CudaRuntime] = [
            CudaRuntime(env, gpu=gpu, pcie=pcie, tracer=self.tracer,
                        slack=slack)
            for _ in range(count)
        ]
        self.allreduces_done = 0
        self.allreduce_seconds = 0.0

    @property
    def world(self) -> int:
        """Number of member GPUs."""
        return len(self.devices)

    def allreduce(self, nbytes: float) -> Generator[Event, Any, float]:
        """One allreduce across the group (a host-side generator).

        Occupies simulated time per the ring model; returns the
        operation's duration. CPU-asynchronous: only the caller waits.
        """
        duration = ring_allreduce_time(nbytes, self.world, self.link)
        if duration > 0:
            yield self.env.timeout(duration)
        self.allreduces_done += 1
        self.allreduce_seconds += duration
        return duration

    def allreduce_time(self, nbytes: float) -> float:
        """The ring-model cost without running the simulation."""
        return ring_allreduce_time(nbytes, self.world, self.link)
