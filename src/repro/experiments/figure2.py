"""Figure 2: LAMMPS strong scaling, MPI processes 1-24, per box size."""

from __future__ import annotations

from ..apps.lammps.lj import LJParams, PAPER_BOX_SIZES
from ..apps.lammps.scaling import LammpsScalingModel
from .context import ExperimentContext
from .report import ExperimentResult, Series

__all__ = ["run", "PROCESS_GRID"]

#: MPI process counts swept in the paper's Figure 2.
PROCESS_GRID = (1, 2, 4, 8, 12, 16, 20, 24)


def run(ctx: ExperimentContext | None = None) -> ExperimentResult:
    """Reproduce Figure 2's normalized strong-scaling curves."""
    model = LammpsScalingModel()
    series = Series(
        title="Figure 2: LAMMPS strong scaling (single GPU, normalized)",
        x_label="MPI processes",
        y_label="runtime normalized to 1 process",
        x=[float(p) for p in PROCESS_GRID],
    )
    for box in PAPER_BOX_SIZES:
        params = LJParams(box)
        series.add_line(
            f"Box Size {box}",
            [model.normalized_runtime(params, p) for p in PROCESS_GRID],
        )
    series.notes.append(
        "paper anchors: box 60 -17.2% at 8 procs; box 120 -55.6% at 24 "
        "with diminishing returns after 16; box 20 monotonically degrades"
    )
    result = ExperimentResult(experiment_id="figure2", series=[series])

    # Shape assertions recorded as notes (checked in tests/benches).
    r60 = model.normalized_runtime(LJParams(60), 8)
    r120 = model.normalized_runtime(LJParams(120), 24)
    result.notes.append(
        f"measured: box60@8 = {r60:.3f} (paper 0.828); "
        f"box120@24 = {r120:.3f} (paper 0.444)"
    )
    return result
