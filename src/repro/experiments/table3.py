"""Table III: binning of data-transfer sizes for LAMMPS and CosmoFlow."""

from __future__ import annotations

from ..hw.specs import MiB
from ..model.binning import table3_bins
from .context import ExperimentContext
from .report import ExperimentResult, Table

__all__ = ["run", "PAPER_TABLE3"]

#: The paper's Table III (full-length runs: 5000 steps / 5 epochs).
PAPER_TABLE3 = {
    "lammps": {"<=1": 2264, "<=16": 42016, "<=256": 40008, "<=4096": 1,
               ">4096": 0, "mean_mib": 16.85},
    "cosmoflow": {"<=1": 8186, "<=16": 668, "<=256": 335, "<=4096": 640,
                  ">4096": 0, "mean_mib": 34.4},
}


def run(ctx: ExperimentContext | None = None) -> ExperimentResult:
    """Reproduce Table III's transfer-size binning."""
    ctx = ctx or ExperimentContext()
    table = Table(
        title="Table III: data transfer sizes binned (MiB)",
        headers=["app", "<=1", "<=16", "<=256", "<=4096", ">4096",
                 "Mean [MiB]"],
    )
    result = ExperimentResult(experiment_id="table3", tables=[table])
    for profile in ctx.profiles():
        sizes = profile.trace.memcpys().sizes()
        bins = table3_bins(sizes)
        table.add_row(
            profile.name,
            bins["<=1"], bins["<=16"], bins["<=256"], bins["<=4096"],
            bins[">4096"],
            sizes.mean() / MiB,
        )
        paper = PAPER_TABLE3[profile.name]
        result.notes.append(
            f"{profile.name}: paper row {paper} — counts scale with run "
            f"length (quick mode shortens the runs); bin *shape* and mean "
            f"are the comparable quantities"
        )
    return result
