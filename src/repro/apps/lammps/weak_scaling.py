"""Weak-scaling projection from the strong-scaling basic unit.

The paper's Section III-B: the single-GPU, fixed-problem strong
scaling study "provides a basic unit of CPU-to-GPU resources [that]
can inform weak scaling for large scale production applications as the
best basic CPU-to-GPU ratio". This module performs that projection:

* find the best (cores : 1 GPU) unit for a given per-GPU problem size;
* replicate it N times (problem grows with resources — weak scaling);
* compare the achievable configuration under CDI (exact units) vs
  traditional nodes (units rounded to node shape), including the
  slack the CDI fabric adds at each deployment scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ...network.fabric import Fabric, FabricSpec, Scale
from .lj import LJParams
from .scaling import LammpsScalingModel

__all__ = ["BasicUnit", "find_basic_unit", "WeakScalingProjection",
           "project_weak_scaling"]


@dataclass(frozen=True)
class BasicUnit:
    """The best per-GPU resource unit for one workload density."""

    box_size: int
    cores: int
    threads: int
    runtime_s: float

    @property
    def cores_per_gpu(self) -> int:
        """The unit's CPU:GPU core ratio."""
        return self.cores


def find_basic_unit(
    box_size: int = 120,
    core_candidates: Sequence[Tuple[int, int]] = (
        (1, 1), (2, 1), (4, 1), (8, 1), (8, 2), (8, 3), (8, 6),
        (12, 2), (16, 3), (24, 2),
    ),
    model: Optional[LammpsScalingModel] = None,
) -> BasicUnit:
    """The (processes, threads) unit minimizing single-GPU runtime.

    Candidates are (MPI ranks, OpenMP threads per rank) pairs; the
    unit's core count is their product.
    """
    model = model or LammpsScalingModel()
    params = LJParams(box_size)
    best = None
    for procs, threads in core_candidates:
        t = model.runtime(params, procs, threads)
        if best is None or t < best[0]:
            best = (t, procs, threads)
    assert best is not None
    t, procs, threads = best
    return BasicUnit(
        box_size=box_size, cores=procs * threads, threads=threads,
        runtime_s=t,
    )


@dataclass(frozen=True)
class WeakScalingProjection:
    """Projected weak-scaled run at one GPU count."""

    gpus: int
    total_atoms: int
    cdi_cores: int
    traditional_cores: int
    cdi_runtime_s: float
    traditional_runtime_s: float
    slack_s: float

    @property
    def cdi_advantage(self) -> float:
        """Traditional over CDI runtime (>1 means CDI is faster)."""
        return self.traditional_runtime_s / self.cdi_runtime_s


def project_weak_scaling(
    unit: BasicUnit,
    gpu_counts: Sequence[int] = (1, 4, 16, 64),
    cores_per_node: int = 48,
    gpus_per_node: int = 4,
    fabric_spec: Optional[FabricSpec] = None,
    slack_penalty_per_second: float = 0.0,
    model: Optional[LammpsScalingModel] = None,
) -> List[WeakScalingProjection]:
    """Replicate the basic unit across ``gpu_counts`` GPUs.

    Weak scaling: each GPU carries one ``unit.box_size`` problem, so
    per-GPU runtime stays the unit's runtime plus a replication
    overhead for the cross-GPU halo (modelled with the scaling model's
    communication term at the unit's rank count). Under CDI every GPU
    gets the unit's full core count; under traditional nodes the cores
    per GPU are capped by the node shape. ``slack_penalty_per_second``
    lets callers add the (measured tiny) CDI starvation cost per unit
    of slack; the fabric supplies the slack per deployment size.
    """
    if slack_penalty_per_second < 0:
        raise ValueError("slack_penalty_per_second must be non-negative")
    model = model or LammpsScalingModel()
    params = LJParams(unit.box_size)
    node_ratio = cores_per_node // gpus_per_node if gpus_per_node else cores_per_node

    projections: List[WeakScalingProjection] = []
    for gpus in gpu_counts:
        if gpus <= 0:
            raise ValueError("gpu counts must be positive")
        # CDI: the unit's ideal cores per GPU, composed exactly.
        procs_cdi = max(1, unit.cores // unit.threads)
        t_cdi_unit = model.runtime(params, procs_cdi, unit.threads)
        # Traditional: cores per GPU capped by the node shape.
        trad_cores = min(unit.cores, node_ratio)
        trad_threads = min(unit.threads, trad_cores)
        trad_procs = max(1, trad_cores // trad_threads)
        t_trad_unit = model.runtime(params, trad_procs, trad_threads)
        # Weak-scaling replication overhead: cross-replica halo, one
        # extra comm share per doubling.
        import math

        replication = 1.0 + 0.02 * math.log2(gpus) if gpus > 1 else 1.0

        # CDI slack at the scale this many GPUs requires.
        spec = fabric_spec or _fabric_for(gpus, gpus_per_node)
        fabric = Fabric(spec)
        slack = fabric.worst_case_slack()
        slack_cost = 1.0 + slack_penalty_per_second * slack

        projections.append(
            WeakScalingProjection(
                gpus=gpus,
                total_atoms=params.atoms * gpus,
                cdi_cores=unit.cores * gpus,
                traditional_cores=trad_cores * gpus,
                cdi_runtime_s=t_cdi_unit * replication * slack_cost,
                traditional_runtime_s=t_trad_unit * replication,
                slack_s=slack,
            )
        )
    return projections


def _fabric_for(gpus: int, gpus_per_node: int) -> FabricSpec:
    """A fabric sized for ``gpus`` pooled GPUs."""
    chassis_needed = max(1, (gpus + 15) // 16)
    if chassis_needed <= 1:
        return FabricSpec(scale=Scale.RACK, racks_per_row=1, chassis_racks=(0,))
    racks = max(2, chassis_needed)
    if racks <= 8:
        return FabricSpec(
            scale=Scale.ROW, racks_per_row=racks,
            chassis_racks=tuple(range(chassis_needed)),
        )
    rows = (racks + 7) // 8
    return FabricSpec(
        scale=Scale.CLUSTER, rows=rows, racks_per_row=8,
        chassis_racks=tuple(range(chassis_needed)),
    )
