"""Table II: proxy matrix sizes, kernel runtimes, iteration counts and
compute-loop runtimes."""

from __future__ import annotations

from ..hw.specs import MiB
from ..network.slack import SlackModel
from ..proxy.sweep import PAPER_MATRIX_SIZES
from ..proxy.matmul import ProxyConfig, run_proxy
from ..proxy.calibration import calibrate_matrix_size
from .context import ExperimentContext
from .report import ExperimentResult, Table

__all__ = ["run"]


def run(ctx: ExperimentContext | None = None) -> ExperimentResult:
    """Reproduce Table II by calibrating and timing the proxy."""
    ctx = ctx or ExperimentContext()
    table = Table(
        title="Table II: proxy characteristics per matrix size",
        headers=[
            "Matrix Size",
            "Matrix [MiB]",
            "Kernel Runtime [s]",
            "Iterations (N)",
            "Compute Loop Runtime [s]",
        ],
    )
    for n in PAPER_MATRIX_SIZES:
        cal = calibrate_matrix_size(n)
        iterations = cal.iterations if not ctx.quick else min(cal.iterations, 25)
        result = run_proxy(
            ProxyConfig(matrix_size=n, iterations=iterations),
            SlackModel.none(),
        )
        table.add_row(
            f"2^{n.bit_length() - 1}",
            cal.matrix_bytes // MiB,
            cal.kernel_time_s,
            cal.iterations,
            result.loop_runtime_s
            * (cal.iterations / iterations if ctx.quick else 1.0),
        )
    table.notes.append(
        "iteration counts: ~30 s of raw GPU compute clamped to [5, 1000]; "
        "2^9 hits the ceiling, 2^15 sits near the floor"
    )
    if ctx.quick:
        table.notes.append(
            "quick mode: loop runtime extrapolated from 25 measured iterations"
        )
    return ExperimentResult(experiment_id="table2", tables=[table])
