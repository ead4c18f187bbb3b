"""Degraded-mode response surfaces: penalty vs. slack vs. fault intensity.

The healthy-fabric sweep (:func:`repro.proxy.run_slack_sweep`) answers
"what does slack cost?". This module answers the production question
on top of it: "what does slack cost *while the fabric is misbehaving*,
and how fast does that cost grow with fault intensity?" —
:func:`run_degraded_sweep` runs the same grid once per intensity step
of a scaled :class:`~repro.faults.FaultPlan` (``plan.scaled(x)``) and
collects the per-intensity surfaces side by side.

Intensity 0 is the healthy fabric (an empty plan — bit-identical to a
sweep with no ``faults=`` at all); intensity 1 is the plan as written;
values above 1 stress beyond it. Every run inherits the sweep layer's
determinism: same plan + seed ⇒ bit-identical points across workers,
cache, and repeated invocations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from .plan import FaultPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..proxy.options import SweepOptions
    from ..proxy.sweep import SweepResult

__all__ = ["DegradedSweepResult", "run_degraded_sweep"]

#: Default intensity steps: healthy baseline, half strength, as-written.
DEFAULT_INTENSITIES: Tuple[float, ...] = (0.0, 0.5, 1.0)


@dataclass
class DegradedSweepResult:
    """Per-intensity slack sweeps of one scaled fault plan."""

    plan: FaultPlan
    intensities: Tuple[float, ...]
    #: One full :class:`~repro.proxy.SweepResult` per intensity, in
    #: ``intensities`` order.
    sweeps: List["SweepResult"] = field(default_factory=list)

    def sweep_at(self, intensity: float) -> "SweepResult":
        """The sweep measured at one intensity step."""
        for x, sweep in zip(self.intensities, self.sweeps):
            if x == intensity:
                return sweep
        raise KeyError(intensity)

    def penalty_surface(
        self, matrix_size: int, threads: int
    ) -> Dict[float, Dict[float, float]]:
        """``{intensity: {slack_s: penalty}}`` for one configuration.

        Penalties are clamped at 0 like the healthy response surface
        (free-running threads can hide slack, driving the Equation-1
        residual slightly negative).
        """
        surface: Dict[float, Dict[float, float]] = {}
        for x, sweep in zip(self.intensities, self.sweeps):
            row: Dict[float, float] = {}
            for p in sweep.series(matrix_size, threads):
                row[p.slack_s] = max(0.0, p.penalty)
            surface[x] = row
        return surface

    def faults_totals(self) -> Dict[float, Dict[str, float]]:
        """Summed ``faults.*`` telemetry per intensity (from reports).

        Empty for intensities swept without metrics enabled.
        """
        totals: Dict[float, Dict[str, float]] = {}
        for x, sweep in zip(self.intensities, self.sweeps):
            row: Dict[str, float] = {}
            if sweep.report is not None:
                for metric, value in sweep.report.metrics.get(
                    "faults", {}
                ).items():
                    row[f"faults.{metric}"] = value
            totals[x] = row
        return totals


def run_degraded_sweep(
    plan: FaultPlan,
    intensities: Sequence[float] = DEFAULT_INTENSITIES,
    *,
    matrix_sizes: Optional[Sequence[int]] = None,
    slack_values_s: Optional[Sequence[float]] = None,
    threads: Sequence[int] = (1,),
    iterations: Optional[int] = None,
    options: Optional["SweepOptions"] = None,
) -> DegradedSweepResult:
    """Measure the slack response surface at several fault intensities.

    Runs :func:`repro.proxy.run_slack_sweep` once per intensity with
    ``options.replace(faults=plan.scaled(x))``. Grid knobs default to
    the sweep layer's defaults (``None`` = the paper's grid) and
    ``options`` carries the other execution knobs; its ``faults``
    must be unset (or an empty plan), because the plan supplies them. A cache in the
    options is shared across intensities — the point cache keys on
    the scaled plan, so intensities never alias each other (and
    intensity 0 shares entries with healthy sweeps).
    """
    from ..proxy.options import SweepOptions
    from ..proxy.sweep import run_slack_sweep
    from ..proxy.sweep import PAPER_MATRIX_SIZES, PAPER_SLACK_VALUES_S

    opts = (options if options is not None else SweepOptions()).validate()
    if opts.faults is not None:
        raise ValueError(
            "run_degraded_sweep takes its faults from the plan; "
            "options.faults must be None"
        )
    xs = tuple(float(x) for x in intensities)
    if not xs:
        raise ValueError("at least one intensity is required")
    if any(x < 0 for x in xs):
        raise ValueError("intensities must be non-negative")
    plan.validate()

    result = DegradedSweepResult(plan=plan, intensities=xs)
    for x in xs:
        result.sweeps.append(
            run_slack_sweep(
                matrix_sizes=(
                    matrix_sizes if matrix_sizes is not None
                    else PAPER_MATRIX_SIZES
                ),
                slack_values_s=(
                    slack_values_s if slack_values_s is not None
                    else PAPER_SLACK_VALUES_S
                ),
                threads=threads,
                iterations=iterations,
                options=opts.replace(faults=plan.scaled(x)),
            )
        )
    return result
