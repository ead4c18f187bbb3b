"""Section V's scheduling example: traditional vs CDI on 40 GPUs / 20 CPUs."""

from __future__ import annotations

from ..cdi.utilization import discussion_example
from .context import ExperimentContext
from .report import ExperimentResult, Table

__all__ = ["run"]


def run(ctx: ExperimentContext | None = None) -> ExperimentResult:
    """Reproduce the Discussion-section scheduling comparison."""
    cmp = discussion_example()
    table = Table(
        title="Section V example: 40 GPUs + 20 CPUs (24 cores each), "
              "LAMMPS and CosmoFlow each wanting 20 GPUs",
        headers=["scheduler", "job", "cores", "GPUs", "cores/GPU",
                 "trapped cores", "trapped GPUs"],
    )
    for label, outcome in (("traditional", cmp.traditional), ("CDI", cmp.cdi)):
        for p in outcome.placements:
            table.add_row(
                label, p.job.name, p.granted_cores, p.granted_gpus,
                round(p.cores_per_gpu, 2), p.trapped_cores, p.trapped_gpus,
            )
    table.notes.append(
        "CDI gives CosmoFlow 4 CPUs for 20 tightly-coupled GPUs and "
        "leaves LAMMPS 16 CPUs — 19.2 cores/GPU vs the forced 12 under "
        "traditional nodes (the paper phrases the CPU:GPU unit ratio as "
        "16 CPUs : 20 GPUs)"
    )
    return ExperimentResult(
        experiment_id="discussion",
        tables=[table],
        notes=[
            f"trapped cores: traditional {cmp.traditional.trapped_cores} "
            f"vs CDI {cmp.cdi.trapped_cores}",
            f"ratio improvement (|achieved-ideal| reduction): "
            f"lammps {cmp.ratio_improvement('lammps'):.2f}, "
            f"cosmoflow {cmp.ratio_improvement('cosmoflow'):.2f}",
        ],
    )
