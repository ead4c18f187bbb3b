"""Section IV-D methodology validation: proxy self-prediction."""

from __future__ import annotations

from ..model.validation import validation_report
from .context import ExperimentContext
from .report import ExperimentResult, Table

__all__ = ["run"]


def run(ctx: ExperimentContext | None = None) -> ExperimentResult:
    """Self-predict the proxy's penalty from its own traces."""
    ctx = ctx or ExperimentContext()
    surface = ctx.surface()
    iterations = 25 if ctx.quick else None
    table = Table(
        title="Methodology self-validation (single thread)",
        headers=["matrix", "slack [us]", "actual", "lower", "upper",
                 "lower err"],
    )
    results = validation_report(
        surface,
        matrix_sizes=(2**9, 2**11, 2**13),
        slack_values_s=(1e-4, 1e-2),
        threads=1,
        iterations=iterations,
    )
    worst = 0.0
    for r in results:
        table.add_row(
            f"2^{r.matrix_size.bit_length() - 1}", r.slack_s * 1e6,
            round(r.actual_penalty, 4), round(r.predicted_lower, 4),
            round(r.predicted_upper, 4), round(r.lower_error, 4),
        )
        scale = max(1.0, r.actual_penalty / 0.05)
        worst = max(worst, abs(r.lower_error) / scale)
    table.notes.append(
        "paper: the lower bound self-predicts within 0.005 of the actual "
        "(single-threaded); the residue is the host-time fraction "
        "Equation 2 leaves unweighted"
    )

    jitter_table = Table(
        title="Upper-bound pessimism under measurement noise",
        headers=["matrix", "slack [us]", "actual", "upper (exact)",
                 "upper (jittered)"],
    )
    for n in (2**11,):
        for s in (1e-2,):
            exact = validation_report(
                surface, (n,), (s,), iterations=iterations,
                duration_jitter=0.0,
            )[0]
            noisy = validation_report(
                surface, (n,), (s,), iterations=iterations,
                duration_jitter=0.15,
            )[0]
            jitter_table.add_row(
                f"2^{n.bit_length() - 1}", s * 1e6,
                round(exact.actual_penalty, 4),
                round(exact.predicted_upper, 4),
                round(noisy.predicted_upper, 4),
            )
    jitter_table.notes.append(
        "measurement noise pushes observations off grid points; the "
        "round-down bracket then reaches the far more slack-sensitive "
        "smaller matrix — the paper's 'severely pessimistic' upper bound"
    )
    return ExperimentResult(
        experiment_id="validation",
        tables=[table, jitter_table],
        notes=[f"worst scaled lower-bound error: {worst:.4f} (tolerance 0.005 "
               f"scaled by penalty magnitude)"],
    )
