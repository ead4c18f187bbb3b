"""CDI resource inventory: CPU nodes, GPU chassis, pools.

In a composable system the schedulable units are no longer whole
heterogeneous nodes but *pools* of CPU nodes and GPU chassis that can
be wired together per job. These classes model that inventory plus
the PCIe-domain bookkeeping each chassis needs (Background, Sec II).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..hw.specs import CPUSpec, EPYC_7413, GPUSpec, A100_SXM4_40GB
from ..hw.pcie import PCIeDomain

__all__ = ["CPUNode", "GPUChassis", "ResourcePool", "Composition"]

_composition_ids = itertools.count(1)


@dataclass
class CPUNode:
    """A CPU-only node contributing cores to compositions."""

    node_id: str
    spec: CPUSpec = field(default_factory=lambda: EPYC_7413)
    sockets: int = 1
    allocated_cores: int = 0

    @property
    def total_cores(self) -> int:
        """All physical cores on the node."""
        return self.spec.cores * self.sockets

    @property
    def free_cores(self) -> int:
        """Unallocated cores."""
        return self.total_cores - self.allocated_cores

    def allocate(self, cores: int) -> None:
        """Reserve ``cores`` on this node."""
        if cores <= 0:
            raise ValueError("cores must be positive")
        if cores > self.free_cores:
            raise ValueError(
                f"node {self.node_id}: requested {cores} cores, "
                f"{self.free_cores} free"
            )
        self.allocated_cores += cores

    def release(self, cores: int) -> None:
        """Return ``cores`` to the node."""
        if cores <= 0 or cores > self.allocated_cores:
            raise ValueError(f"invalid release of {cores} cores")
        self.allocated_cores -= cores


@dataclass
class GPUChassis:
    """A chassis of pooled GPUs served over the CDI fabric.

    Each chassis is its own PCIe domain (the row-scale answer to bus
    enumeration); GPUs power down when unallocated — the efficiency
    benefit the paper's introduction highlights.
    """

    chassis_id: str
    gpu_count: int = 8
    gpu_spec: GPUSpec = field(default_factory=lambda: A100_SXM4_40GB)
    rack: int = 0
    allocated: Set[int] = field(default_factory=set)
    powered_on: Set[int] = field(default_factory=set)

    def __post_init__(self) -> None:
        if self.gpu_count <= 0:
            raise ValueError("gpu_count must be positive")
        self.domain = PCIeDomain(domain_id=hash(self.chassis_id) & 0xFFFF)

    @property
    def free_gpus(self) -> int:
        """Unallocated GPUs in the chassis."""
        return self.gpu_count - len(self.allocated)

    def allocate(self, count: int) -> List[int]:
        """Reserve (and power on) ``count`` GPUs; returns their slots."""
        if count <= 0:
            raise ValueError("count must be positive")
        if count > self.free_gpus:
            raise ValueError(
                f"chassis {self.chassis_id}: requested {count} GPUs, "
                f"{self.free_gpus} free"
            )
        slots = [i for i in range(self.gpu_count) if i not in self.allocated]
        taken = slots[:count]
        self.allocated.update(taken)
        self.powered_on.update(taken)
        return taken

    def release(self, slots: List[int]) -> None:
        """Return (and power down) the given GPU slots."""
        for s in slots:
            if s not in self.allocated:
                raise ValueError(f"slot {s} is not allocated")
        for s in slots:
            self.allocated.discard(s)
            self.powered_on.discard(s)

    def idle_power_fraction(self) -> float:
        """Fraction of the chassis' GPUs burning idle power.

        Zero for CDI (unallocated GPUs power off); contrast with
        trapped GPUs in traditional nodes, which cannot power down.
        """
        return len(self.powered_on - self.allocated) / self.gpu_count


@dataclass
class Composition:
    """One composed allocation: cores from nodes + GPUs from chassis."""

    job: str
    cores: Dict[str, int] = field(default_factory=dict)  # node_id -> cores
    gpus: Dict[str, List[int]] = field(default_factory=dict)  # chassis -> slots
    composition_id: int = field(default_factory=lambda: next(_composition_ids))

    @property
    def total_cores(self) -> int:
        """Cores across all contributing nodes."""
        return sum(self.cores.values())

    @property
    def total_gpus(self) -> int:
        """GPUs across all contributing chassis."""
        return sum(len(slots) for slots in self.gpus.values())

    @property
    def cores_per_gpu(self) -> float:
        """The composed CPU:GPU ratio (inf for CPU-only jobs)."""
        if self.total_gpus == 0:
            return float("inf")
        return self.total_cores / self.total_gpus


class ResourcePool:
    """The schedulable inventory of a CDI system."""

    def __init__(
        self,
        nodes: Optional[List[CPUNode]] = None,
        chassis: Optional[List[GPUChassis]] = None,
    ) -> None:
        self.nodes: Dict[str, CPUNode] = {n.node_id: n for n in nodes or []}
        self.chassis: Dict[str, GPUChassis] = {
            c.chassis_id: c for c in chassis or []
        }
        if len(self.nodes) != len(nodes or []):
            raise ValueError("duplicate node ids")
        if len(self.chassis) != len(chassis or []):
            raise ValueError("duplicate chassis ids")

    # -- aggregate queries ---------------------------------------------------------
    @property
    def total_cores(self) -> int:
        """All cores in the pool."""
        return sum(n.total_cores for n in self.nodes.values())

    @property
    def free_cores(self) -> int:
        """Unallocated cores."""
        return sum(n.free_cores for n in self.nodes.values())

    @property
    def total_gpus(self) -> int:
        """All GPUs in the pool."""
        return sum(c.gpu_count for c in self.chassis.values())

    @property
    def free_gpus(self) -> int:
        """Unallocated GPUs."""
        return sum(c.free_gpus for c in self.chassis.values())

    def add_node(self, node: CPUNode) -> None:
        """Register a CPU node."""
        if node.node_id in self.nodes:
            raise ValueError(f"duplicate node {node.node_id}")
        self.nodes[node.node_id] = node

    def add_chassis(self, chassis: GPUChassis) -> None:
        """Register a GPU chassis."""
        if chassis.chassis_id in self.chassis:
            raise ValueError(f"duplicate chassis {chassis.chassis_id}")
        self.chassis[chassis.chassis_id] = chassis
