"""Error-bounded adaptive refinement of proxy slack sweeps.

A dense sweep measures every (matrix size, threads, slack) point of
its grid, but the slack response is log-linear over most of its range
(that is exactly the interpolation :class:`repro.proxy.SlackResponseSurface`
applies between grid points) — so most interior points only confirm
what their neighbours already imply. This module measures a coarse
seed of each series, *predicts* the interior by the surface's own
log-linear rule, and only measures where the prediction cannot be
certified:

1. **Seed** — the zero-slack baseline plus the first, middle and last
   slack values of every series, one executor batch for all series.
2. **Refine** — for each unverified interval, measure its midpoint and
   compare against the log-linear interpolation of the endpoints. If
   the deviation is within ``tol`` the whole interval is *certified*
   (its interior points inherit the observed deviation as their error
   bound); otherwise both halves are queued for the next round. Each
   round is one executor batch across every active series, so the
   refinement parallelizes exactly like a dense sweep.
3. **Predict** — unmeasured grid points are synthesized from their
   nearest measured neighbours; the result is a *dense*
   :class:`~repro.proxy.SweepResult` on the full requested grid,
   plus a per-point error bound (0 for measured points).

Interpolation error is evaluated in the clamped-penalty space
(``max(0, penalty)``) that every downstream consumer reads through
:class:`~repro.proxy.SlackResponseSurface`, so ``tol`` bounds exactly
the quantity the prediction model consumes: ``tol=1e-3`` certifies the
predicted surface to within 0.1 percentage points of penalty.

Certification probes each interval at its *geometric* midpoint — the
point where log-linear interpolation error peaks for a smooth convex
response — so the bound is a sampling argument, not a proof: it holds
for the smooth monotone penalty curves the calibrated proxy produces,
but a series that oscillates *between* grid probes (short
fixed-iteration multi-thread runs can beat against the slack period)
can deviate more than its recorded bound. Dense sweeps remain the
ground truth; the parity tests pin the regimes where the bound holds.

Determinism: rounds, series order and midpoint choice are all fixed by
the input grid, so an adaptive sweep measures the same points in the
same order every run — and each measured point carries the same
:class:`~repro.parallel.PointTask` a dense sweep would use, so the
per-point cache is shared bidirectionally between the two modes.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from ..obs.metrics import get_registry
from ..proxy.matmul import CUDA_CALLS_PER_ITERATION
from ..proxy.options import SweepOptions
from ..proxy.sweep import (
    SweepPoint,
    SweepResult,
    _finish_sweep,
    plan_grid_tasks,
)
from .surrogate import interp_penalty

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..parallel.point import PointMeasurement, PointTask
    from ..parallel.executor import SweepExecutor

__all__ = [
    "DEFAULT_TOL",
    "AdaptiveSweepResult",
    "adaptive_slack_sweep",
]

#: Default certification tolerance: 0.1 percentage points of penalty.
DEFAULT_TOL = 1e-3


# The canonical rule lives in model.surrogate so the serving layer,
# this refinement loop and the surface certify against one function.
_interp_penalty = interp_penalty


@dataclass
class _Series:
    """Refinement state of one (matrix size, threads) series."""

    #: The series' zero-slack task from :func:`plan_grid_tasks`; every
    #: probe is this task with ``slack_s`` replaced.
    task: "PointTask"
    baseline: Optional["PointMeasurement"] = None
    #: Measured slack points by grid index (clamped penalty cached).
    measured: Dict[int, Tuple["PointMeasurement", float]] = field(
        default_factory=dict
    )
    #: Certified error bound of each *unmeasured* grid index.
    bounds: Dict[int, float] = field(default_factory=dict)
    #: Intervals (lo, hi) of measured indices still awaiting a verdict.
    pending: List[Tuple[int, int]] = field(default_factory=list)
    dead: bool = False  # baseline failed: whole series unmeasurable

    def penalty_at(self, idx: int) -> float:
        return self.measured[idx][1]

    def probe(self, slack_s: float) -> "PointTask":
        return dataclasses.replace(self.task, slack_s=slack_s)


@dataclass
class AdaptiveSweepResult:
    """Outcome of one adaptive sweep.

    ``measured`` holds only the points that actually ran;``dense``
    covers the full requested grid, with unmeasured points synthesized
    by log-linear interpolation — feeding it to
    :class:`~repro.proxy.SlackResponseSurface` reproduces the adaptive
    predictions exactly. ``bounds`` maps every dense grid key
    ``(matrix_size, threads, slack_s)`` to its certified error bound in
    penalty units: 0.0 for measured points, the observed interval
    deviation for predicted ones (``inf`` marks points whose interval
    could not be certified because a measurement failed mid-refinement).
    """

    measured: SweepResult
    dense: SweepResult
    bounds: Dict[Tuple[int, int, float], float]
    tol: float
    #: Slack points measured in the seed round (baselines excluded).
    seed_points: int
    #: Midpoints measured during refinement rounds.
    refined_points: int
    #: Dense grid points predicted instead of measured.
    predicted_points: int
    #: Largest observed midpoint interpolation error (penalty units),
    #: certified or not — an error bound only when it is within ``tol``.
    max_error: float
    #: Points a dense sweep of the same grid would run
    #: (``series x (slacks + baseline)``).
    dense_grid_points: int
    #: Points this adaptive sweep ran (baselines + seeds + midpoints).
    measured_grid_points: int
    #: Largest midpoint error that certified its interval (<= ``tol``):
    #: the error bound every predicted point carries.
    max_certified_error: float = 0.0
    #: Largest midpoint error that failed certification (> ``tol``; the
    #: interval was split and refined, so no prediction carries it).
    max_rejected_error: float = 0.0

    @property
    def measured_fraction(self) -> float:
        """Share of the dense grid actually run (baselines included)."""
        if not self.dense_grid_points:
            return 0.0
        return self.measured_grid_points / self.dense_grid_points

    def error_bound(
        self, matrix_size: int, threads: int, slack_s: float
    ) -> float:
        """Certified error bound of one dense grid point."""
        return self.bounds[(matrix_size, threads, slack_s)]


def adaptive_slack_sweep(
    matrix_sizes: Sequence[int],
    slack_values_s: Sequence[float],
    threads: Sequence[int] = (1,),
    iterations: Optional[int] = None,
    target_compute_s: float = 30.0,
    *,
    options: Optional[SweepOptions] = None,
    executor: Optional["SweepExecutor"] = None,
) -> AdaptiveSweepResult:
    """Measure a slack response surface by adaptive refinement.

    Same grid semantics as :func:`repro.proxy.run_slack_sweep` (whose
    ``adaptive=True`` path delegates here), and the same execution
    knobs through ``options=`` — of which this sweep reads
    ``workers``, ``cache``, ``fast_forward``, ``faults`` and ``tol``:
    the certification tolerance in penalty units (``None`` =
    :data:`DEFAULT_TOL`). Slack values must be positive (the zero-slack
    baseline is implicit, exactly like the dense sweep) and are sorted
    internally; the dense result covers the sorted grid.
    """
    from ..parallel.executor import SweepExecutor
    from ..parallel.executor import merge_stats

    opts = (options if options is not None else SweepOptions()).validate()
    tol = DEFAULT_TOL if opts.tol is None else opts.tol
    slacks = sorted({float(s) for s in slack_values_s})
    if not slacks:
        raise ValueError("slack_values_s must be non-empty")
    if slacks[0] <= 0:
        raise ValueError(
            "adaptive sweeps need positive slack values (the zero-slack "
            "baseline is measured implicitly)"
        )
    n = len(slacks)

    series_list = [
        _Series(task=task)
        for task in plan_grid_tasks(
            matrix_sizes,
            (),
            threads,
            iterations,
            target_compute_s,
            fast_forward=opts.fast_forward,
            faults=opts.faults,
        )
    ]

    ex = executor if executor is not None else SweepExecutor(
        opts.workers, opts.point_cache()
    )
    round_stats = []

    def run_batch(tasks: List["PointTask"]) -> List["PointMeasurement"]:
        ms = ex.run(tasks)
        round_stats.append(ex.stats)
        return ms

    measured_result = SweepResult()

    def clamped_penalty(
        series: _Series, m: "PointMeasurement"
    ) -> float:
        base = series.baseline.loop_runtime_s  # type: ignore[union-attr]
        return max(0.0, m.corrected_runtime_s / base - 1.0)

    def record_failure(series: _Series, lo: int, hi: int, error: str) -> None:
        # A slack point failed on its own (fault-plan fabric timeout):
        # record the skip, give up on this interval — its interior can
        # never be certified, which the infinite bound makes explicit.
        measured_result.skipped.append(
            (series.task.config.matrix_size, series.task.config.threads, error)
        )
        for k in range(lo + 1, hi):
            if k not in series.measured:
                series.bounds[k] = float("inf")

    # -- Round 0: baselines + seed points -----------------------------
    seed_idx = sorted({0, n // 2, n - 1})
    seed_tasks: List["PointTask"] = []
    owners: List[Tuple[_Series, Optional[int]]] = []
    for series in series_list:
        seed_tasks.append(series.task)
        owners.append((series, None))
        for idx in seed_idx:
            seed_tasks.append(series.probe(slacks[idx]))
            owners.append((series, idx))
    seed_points = 0
    for (series, idx), m in zip(owners, run_batch(seed_tasks)):
        if idx is None:
            series.baseline = m
            if not m.ok:
                series.dead = True
                measured_result.skipped.append(
                    (
                        series.task.config.matrix_size,
                        series.task.config.threads,
                        m.error,
                    )
                )
        elif not series.dead:
            seed_points += 1
            if m.ok:
                series.measured[idx] = (m, clamped_penalty(series, m))
            else:
                record_failure(series, idx, idx, m.error)
    for series in series_list:
        if series.dead:
            continue
        anchors = sorted(series.measured)
        series.pending = [
            (lo, hi)
            for lo, hi in zip(anchors, anchors[1:])
            if hi - lo > 1
        ]

    # -- Refinement rounds --------------------------------------------
    def split_index(lo: int, hi: int) -> int:
        # Probe where log-linear interpolation error peaks for a
        # convex response: the grid index nearest the *geometric*
        # midpoint of the interval. On a uniform log grid this is the
        # index midpoint; on irregular grids it keeps the probe at the
        # worst-deviation point instead of a lopsided index split.
        target = 0.5 * (math.log(slacks[lo]) + math.log(slacks[hi]))
        return min(
            range(lo + 1, hi),
            key=lambda k: (abs(math.log(slacks[k]) - target), k),
        )

    refined_points = 0
    max_certified = 0.0
    max_rejected = 0.0
    while any(s.pending for s in series_list):
        batch: List["PointTask"] = []
        batch_owners: List[Tuple[_Series, int, int, int]] = []
        for series in series_list:
            for lo, hi in series.pending:
                mid = split_index(lo, hi)
                batch.append(series.probe(slacks[mid]))
                batch_owners.append((series, lo, hi, mid))
            series.pending = []
        for (series, lo, hi, mid), m in zip(batch_owners, run_batch(batch)):
            refined_points += 1
            if not m.ok:
                record_failure(series, lo, hi, m.error)
                continue
            pen = clamped_penalty(series, m)
            series.measured[mid] = (m, pen)
            predicted = _interp_penalty(
                slacks[lo], series.penalty_at(lo),
                slacks[hi], series.penalty_at(hi),
                slacks[mid],
            )
            err = abs(pen - predicted)
            if err <= tol:
                max_certified = max(max_certified, err)
                # Certified: the interior of both halves inherits the
                # observed deviation as its error bound.
                for k in range(lo + 1, hi):
                    if k != mid:
                        series.bounds[k] = err
            else:
                max_rejected = max(max_rejected, err)
                for a, b in ((lo, mid), (mid, hi)):
                    if b - a > 1:
                        series.pending.append((a, b))

    # -- Assembly: measured + dense predicted results -----------------
    dense_result = SweepResult()
    # Both views agree on what could not be measured (baseline OOMs
    # plus any per-point fabric-timeout failures).
    dense_result.skipped.extend(measured_result.skipped)
    bounds: Dict[Tuple[int, int, float], float] = {}
    predicted_points = 0
    for series in series_list:
        if series.dead:
            continue
        cfg = series.task.config
        base = series.baseline.loop_runtime_s  # type: ignore[union-attr]
        anchors = sorted(series.measured)
        for idx in sorted(series.measured):
            m, _ = series.measured[idx]
            point = SweepPoint(
                matrix_size=cfg.matrix_size,
                threads=cfg.threads,
                slack_s=slacks[idx],
                loop_runtime_s=m.loop_runtime_s,
                corrected_runtime_s=m.corrected_runtime_s,
                baseline_runtime_s=base,
                iterations=m.iterations,
                kernel_time_s=m.kernel_time_s,
            )
            measured_result.add(point)
            dense_result.add(point)
            bounds[(cfg.matrix_size, cfg.threads, slacks[idx])] = 0.0
        if not anchors:
            continue
        kt, iters = series.task.kernel_time_s, cfg.iterations
        for idx in range(n):
            if idx in series.measured:
                continue
            lo = max((a for a in anchors if a < idx), default=None)
            hi = min((a for a in anchors if a > idx), default=None)
            if lo is None:
                pen = series.penalty_at(hi)  # type: ignore[arg-type]
            elif hi is None:
                pen = series.penalty_at(lo)
            else:
                pen = _interp_penalty(
                    slacks[lo], series.penalty_at(lo),
                    slacks[hi], series.penalty_at(hi),
                    slacks[idx],
                )
            # Synthesize the point the proxy would have reported for
            # this penalty: invert the normalization and Equation 1.
            corrected = base * (1.0 + pen)
            loop = corrected + CUDA_CALLS_PER_ITERATION * iters * slacks[idx]
            dense_result.add(
                SweepPoint(
                    matrix_size=cfg.matrix_size,
                    threads=cfg.threads,
                    slack_s=slacks[idx],
                    loop_runtime_s=loop,
                    corrected_runtime_s=corrected,
                    baseline_runtime_s=base,
                    iterations=iters,
                    kernel_time_s=kt,
                )
            )
            predicted_points += 1
            bounds[(cfg.matrix_size, cfg.threads, slacks[idx])] = (
                series.bounds.get(idx, float("inf"))
            )

    result = AdaptiveSweepResult(
        measured=measured_result,
        dense=dense_result,
        bounds=bounds,
        tol=tol,
        seed_points=seed_points,
        refined_points=refined_points,
        predicted_points=predicted_points,
        max_error=max(max_certified, max_rejected),
        dense_grid_points=len(series_list) * (n + 1),
        measured_grid_points=len(series_list) + seed_points + refined_points,
        max_certified_error=max_certified,
        max_rejected_error=max_rejected,
    )

    reg = get_registry()
    if reg.enabled:
        reg.counter("sweep.adaptive.seed_points").inc(seed_points)
        reg.counter("sweep.adaptive.refined_points").inc(refined_points)
        reg.counter("sweep.adaptive.skipped_points").inc(predicted_points)
        reg.gauge("sweep.adaptive.max_error").set(result.max_error)
        reg.gauge("sweep.adaptive.max_certified_error").set(max_certified)
        reg.gauge("sweep.adaptive.max_rejected_error").set(max_rejected)
    _finish_sweep(
        dense_result,
        merge_stats(round_stats),
        matrix_sizes=matrix_sizes,
        slack_values_s=slacks,
        threads=threads,
        iterations=iterations,
        faults_doc=opts.faults.to_doc() if opts.faults is not None else None,
        adaptive=True,
        tol=tol,
    )
    measured_result.timing = dense_result.timing
    measured_result.report = dense_result.report
    return result
