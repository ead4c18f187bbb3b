"""Figure 5: violin distributions of memcpy sizes for both apps."""

from __future__ import annotations

from ..hw.specs import MiB
from ..trace.analysis import memcpy_size_profile
from .context import ExperimentContext
from .report import ExperimentResult, Table

__all__ = ["run"]


def run(ctx: ExperimentContext | None = None) -> ExperimentResult:
    """Reproduce Figure 5's memcpy-size distributions."""
    ctx = ctx or ExperimentContext()
    result = ExperimentResult(experiment_id="figure5")
    for profile in ctx.profiles():
        dist = memcpy_size_profile(
            profile.trace, title=f"{profile.name} memcpy sizes [MiB]"
        )
        table = Table(
            title=dist.title,
            headers=["direction", "count", "min", "q1", "median", "q3", "max"],
        )
        for v in dist.violins:
            table.add_row(
                v.label, v.count,
                v.minimum / MiB, v.q1 / MiB, v.median / MiB,
                v.q3 / MiB, v.maximum / MiB,
            )
        table.notes.append(
            "memory behaviour consistent with the kernel distributions "
            "(paper Section IV-C)"
        )
        result.tables.append(table)
    return result
