"""Figure 4: violin distributions of kernel durations for both apps."""

from __future__ import annotations

from ..trace.analysis import kernel_duration_profile
from .context import ExperimentContext
from .report import ExperimentResult, Table

__all__ = ["run"]


def run(ctx: ExperimentContext | None = None) -> ExperimentResult:
    """Reproduce Figure 4's kernel-duration distributions."""
    ctx = ctx or ExperimentContext()
    result = ExperimentResult(experiment_id="figure4")
    for profile in ctx.profiles():
        dist = kernel_duration_profile(
            profile.trace, top_n=5,
            title=f"{profile.name} kernel durations [s]",
        )
        table = Table(
            title=dist.title,
            headers=["kernel", "count", "min", "q1", "median", "q3", "max"],
        )
        for v in dist.violins:
            table.add_row(v.label, v.count, v.minimum, v.q1, v.median,
                          v.q3, v.maximum)
        kernels = profile.trace.kernels()
        top = kernels.top_names_by_total_time(5)
        share = sum(
            kernels.by_name()[n].total_time() for n in top
        ) / kernels.total_time()
        table.notes.append(
            f"top-5 kernels cover {100 * share:.1f}% of kernel time"
            + (" (paper: 49.9% for CosmoFlow)" if profile.name == "cosmoflow"
               else "")
        )
        result.tables.append(table)
    return result
