"""Section IV-A: CosmoFlow's CPU-to-GPU ratio study.

CosmoFlow sees no benefit from additional CPU cores — it needs two.
The experiment also quantifies the traditional-node waste the paper
derives from this: 4 GPUs use at most 8 cores, stranding 40.
"""

from __future__ import annotations

from ..apps.cosmoflow.training import (
    COSMOFLOW_REQUIRED_CORES,
    cosmoflow_cpu_runtime,
)
from .context import ExperimentContext
from .report import ExperimentResult, Series, Table

__all__ = ["run", "CORE_GRID"]

#: Core allocations swept.
CORE_GRID = (1, 2, 4, 8, 12, 24, 48)


def run(ctx: ExperimentContext | None = None) -> ExperimentResult:
    """Reproduce CosmoFlow's flat CPU-scaling curve."""
    ctx = ctx or ExperimentContext()
    config = ctx.cosmoflow_config()
    series = Series(
        title="CosmoFlow runtime vs CPU cores (batch 4, mini dataset)",
        x_label="CPU cores",
        y_label="runtime normalized to 2 cores",
        x=[float(c) for c in CORE_GRID],
    )
    base = cosmoflow_cpu_runtime(COSMOFLOW_REQUIRED_CORES, config)
    series.add_line(
        "CosmoFlow",
        [cosmoflow_cpu_runtime(c, config) / base for c in CORE_GRID],
    )
    series.notes.append(
        "flat above 2 cores (paper: 'absolutely no benefits from "
        "increasing the number of processes or threads'); degrades below"
    )

    table = Table(
        title="Traditional-node core waste with CosmoFlow (Narval node)",
        headers=["GPUs used", "cores needed", "cores in node", "cores wasted"],
    )
    table.add_row(4, 4 * COSMOFLOW_REQUIRED_CORES, 48,
                  48 - 4 * COSMOFLOW_REQUIRED_CORES)
    table.notes.append(
        "a CDI node could instead drive up to 24 GPUs from one 48-core "
        "CPU node (2 cores per GPU)"
    )
    return ExperimentResult(
        experiment_id="cosmoflow_cpu", tables=[table], series=[series]
    )
