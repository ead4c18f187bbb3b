"""Figure 3: the proxy's slack response at 1/2/4/8 OpenMP threads.

One panel (Series) per thread count: normalized Equation-1-corrected
runtime vs matrix size, one line per slack value. Values below 1
(slack hidden by concurrent threads yet still subtracted by Eq. 1)
are reported clamped to 1, with the raw value preserved in the notes
— matching how the penalty aggregation treats them.
"""

from __future__ import annotations

from ..proxy.sweep import PAPER_SLACK_VALUES_S
from .context import ExperimentContext
from .report import ExperimentResult, Series

__all__ = ["run"]


def run(ctx: ExperimentContext | None = None) -> ExperimentResult:
    """Reproduce Figure 3(a-c) (plus the unplotted 4-thread panel)."""
    ctx = ctx or ExperimentContext()
    surface = ctx.surface()
    result = ExperimentResult(experiment_id="figure3")
    for threads in (1, 2, 4, 8):
        sizes = surface.matrix_sizes(threads)
        panel = Series(
            title=(
                f"Figure 3 panel: {threads} OpenMP thread(s) "
                f"(2^15 absent above 2 threads: out of device memory)"
            ),
            x_label="matrix size",
            y_label="corrected runtime normalized to zero slack",
            x=[float(n) for n in sizes],
        )
        for slack in PAPER_SLACK_VALUES_S:
            panel.add_line(
                f"slack {slack * 1e6:g} us",
                [1.0 + surface.penalty(n, slack, threads) for n in sizes],
            )
        result.series.append(panel)
    result.notes.append(
        "paper trends: longer kernels are more slack-resilient; more "
        "parallel threads raise tolerance; drop-off sharpens with slack; "
        "2^13 first exceeds +10% at 10 ms; 2^15 unaffected"
    )
    p13 = surface.penalty(2**13, 1e-2, 1)
    result.notes.append(
        f"measured: 2^13 at 10 ms, 1 thread: +{100 * p13:.1f}% (paper ~10%)"
    )
    return result
