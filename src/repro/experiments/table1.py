"""Table I: LAMMPS LJ box sizes, atom counts and single-core runtimes."""

from __future__ import annotations

from ..apps.lammps.lj import LJParams, PAPER_BOX_SIZES
from ..apps.lammps.scaling import LammpsScalingModel
from .context import ExperimentContext
from .report import ExperimentResult, Table

__all__ = ["run", "PAPER_TABLE1_RUNTIMES"]

#: The paper's published Table I runtimes (seconds, 1 proc / 1 thread).
PAPER_TABLE1_RUNTIMES = {20: 5.473, 60: 66.523, 80: 160.703, 100: 312.185,
                         120: 541.452}


def run(ctx: ExperimentContext | None = None) -> ExperimentResult:
    """Reproduce Table I from the calibrated scaling model."""
    model = LammpsScalingModel()
    table = Table(
        title="Table I: LAMMPS box sizes at 1 process / 1 thread",
        headers=["Box Size", "Total Atoms", "Runtime [s]", "Paper [s]",
                 "Delta %"],
    )
    for box in PAPER_BOX_SIZES:
        params = LJParams(box)
        runtime = model.runtime(params)
        paper = PAPER_TABLE1_RUNTIMES[box]
        table.add_row(
            box,
            params.atoms,
            round(runtime, 3),
            paper,
            round(100 * (runtime / paper - 1), 1),
        )
    table.notes.append(
        "box 60 atom count follows the cubic rule (864k); the paper's "
        "288k entry is inconsistent with its own 3x3x3 description and "
        "with the linear runtime trend of the other rows"
    )
    return ExperimentResult(experiment_id="table1", tables=[table])
