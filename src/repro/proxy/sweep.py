"""Slack sweeps over the proxy's parameter grid (paper Section IV-B).

Runs the proxy at every (matrix size, thread count, slack) point of
the paper's grid — matrix sizes 2^9..2^15 in steps of 2^2, slack
1 us..10 ms in decades, threads {1, 2, 4, 8} — applies the Equation 1
correction, and normalizes against the zero-slack baseline of the same
configuration. The result is the slack response surface Figures 3(a-c)
plot and the prediction model (Eq 2-3) consumes.

Every grid point is an independent DES run, so the sweep fans out over
:class:`repro.parallel.SweepExecutor` — ``workers=1`` (the default)
reproduces the historical strictly-sequential behavior in-process,
``workers=N`` uses a process pool, and both orderings are guaranteed
identical because the executor returns measurements in grid order.
Attaching a :class:`repro.parallel.PointCache` makes re-sweeps and
grid extensions reuse every previously measured point.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from ..obs.report import RunReport
from ..obs.metrics import get_registry
from .options import SweepOptions
from .quantize import slack_bucket, slack_tolerance

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .matmul import ProxyConfig
    from ..faults.plan import FaultPlan
    from ..parallel.executor import SweepExecutor
    from ..parallel.point import PointMeasurement, PointTask

__all__ = [
    "PAPER_MATRIX_SIZES",
    "PAPER_SLACK_VALUES_S",
    "PAPER_THREAD_COUNTS",
    "SweepPoint",
    "SweepResult",
    "SweepTiming",
    "assemble_sweep_result",
    "grid_series",
    "plan_grid_tasks",
    "run_slack_sweep",
]

#: The paper's matrix-size grid: 2^9 to 2^15 in multiples of 2^2.
PAPER_MATRIX_SIZES: Tuple[int, ...] = (2**9, 2**11, 2**13, 2**15)

#: The paper's slack grid: 1 us to 10 ms in decades.
PAPER_SLACK_VALUES_S: Tuple[float, ...] = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2)

#: OpenMP thread counts tested (4 collected but unplotted in the paper).
PAPER_THREAD_COUNTS: Tuple[int, ...] = (1, 2, 4, 8)

#: Version tag of the per-point measurement store
#: (:class:`repro.parallel.PointCache`), and of the surface files
#: assembled from it. Bump whenever simulator changes alter what a
#: (config, slack) point measures — stale entries must not survive a
#: behavioral change. It lives here, not beside the store, so that
#: reading a cached surface does not import the simulator.
#: 2026.08-4: points are additionally keyed on the fault plan (the
#: degraded-fabric knob); pre-fault entries must not be mistaken for
#: healthy measurements of the new keyspace.
POINT_CACHE_VERSION = "2026.08-4"


#: Rounded-slack secondary-index key — the shared quantization rule of
#: :mod:`repro.proxy.quantize` (the surface and the serving surrogate
#: index by the exact same buckets).
_slack_bucket = slack_bucket


@dataclass(frozen=True)
class SweepPoint:
    """One measured point of the slack response surface."""

    matrix_size: int
    threads: int
    slack_s: float
    loop_runtime_s: float
    corrected_runtime_s: float
    baseline_runtime_s: float
    iterations: int
    kernel_time_s: float

    @property
    def normalized_runtime(self) -> float:
        """Equation-1-corrected runtime over the zero-slack baseline.

        1.0 means slack costs nothing beyond the admissible network
        delay; the paper's Figure 3 y-axis.
        """
        return self.corrected_runtime_s / self.baseline_runtime_s

    @property
    def penalty(self) -> float:
        """Fractional starvation penalty (normalized runtime - 1)."""
        return self.normalized_runtime - 1.0


@dataclass(frozen=True)
class SweepTiming:
    """Wall-clock instrumentation of one sweep or executor run.

    :attr:`repro.parallel.SweepExecutor.stats` holds one per
    :meth:`~repro.parallel.SweepExecutor.run`; a sweep's
    ``SweepResult.timing`` is that of its executor run, or the
    roll-up of several (adaptive rounds).
    """

    #: End-to-end wall time (includes cache resolution).
    wall_s: float
    #: Grid points resolved in total (baselines included).
    grid_points: int
    #: Points actually measured this run (cache misses).
    measured: int
    #: Points served from the per-point cache.
    cached: int
    #: Worker processes used ("inline" mode always reports 1).
    workers: int
    #: "process" (pool) or "inline" (deterministic in-process loop).
    mode: str
    #: Summed wall time of the fresh measurements (the
    #: sequential-equivalent cost; cached points count 0).
    point_seconds: float

    @property
    def points_per_sec(self) -> float:
        """Grid points resolved per wall second."""
        return self.grid_points / self.wall_s if self.wall_s > 0 else float("inf")

    @property
    def speedup_vs_sequential(self) -> Optional[float]:
        """Summed per-point time over wall time, or ``None`` when
        the run *was* sequential.

        With one worker the "parallel" leg is the inline path measured
        against itself — the ratio would read as a misleading ~0.95×
        "slowdown" that is really just dispatch overhead, so single
        worker runs report ``None`` (JSON ``null``) instead.
        """
        if self.workers <= 1:
            return None
        return self.point_seconds / self.wall_s if self.wall_s > 0 else 0.0

    def to_doc(self) -> Dict[str, Optional[float]]:
        """Plain-dict form for perf artifacts (BENCH_sweep.json)."""
        return {
            "wall_s": self.wall_s,
            "grid_points": self.grid_points,
            "measured": self.measured,
            "cached": self.cached,
            "workers": self.workers,
            "mode": self.mode,
            "point_seconds": self.point_seconds,
            "points_per_sec": self.points_per_sec,
            "speedup_vs_sequential": self.speedup_vs_sequential,
        }


@dataclass
class SweepResult:
    """All points of a sweep, indexable by configuration."""

    points: List[SweepPoint] = field(default_factory=list)
    skipped: List[Tuple[int, int, str]] = field(default_factory=list)
    #: Execution instrumentation (None for hand-assembled results).
    timing: Optional[SweepTiming] = field(default=None, compare=False)
    #: Telemetry snapshot of the sweep (None unless metrics were
    #: enabled via repro.obs when the sweep ran).
    report: Optional[RunReport] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        # O(1) exact-lookup index plus a rounded-slack secondary index
        # for near-miss lookups; both kept in sync by add().
        self._index: Dict[Tuple[int, int, float], SweepPoint] = {}
        self._near: Dict[Tuple[int, int, str], SweepPoint] = {}
        for p in self.points:
            self._index_point(p)

    def _index_point(self, point: SweepPoint) -> None:
        self._index[(point.matrix_size, point.threads, point.slack_s)] = point
        self._near[
            (point.matrix_size, point.threads, _slack_bucket(point.slack_s))
        ] = point

    def add(self, point: SweepPoint) -> None:
        """Record one measured point."""
        self.points.append(point)
        self._index_point(point)

    def get(self, matrix_size: int, threads: int, slack_s: float) -> SweepPoint:
        """Exact lookup of one grid point (O(1) on the grid key).

        Slack values float-close to a stored value without being
        bit-identical resolve through a rounded-slack secondary index:
        any point within the tolerance ``1e-12 + 1e-9 * slack_s``
        shares a 7-significant-digit bucket with ``slack_s`` or with
        one of ``slack_s +/- tolerance`` (rounding is monotone and the
        bucket width dwarfs the tolerance, so the three probes cover
        every boundary crossing) — near-miss lookups stay O(1) instead
        of scanning every point.
        """
        point = self._index.get((matrix_size, threads, slack_s))
        if point is not None:
            return point
        tol = slack_tolerance(slack_s)
        for probe in (slack_s, slack_s - tol, slack_s + tol):
            p = self._near.get((matrix_size, threads, _slack_bucket(probe)))
            if p is not None and abs(p.slack_s - slack_s) <= tol:
                return p
        raise KeyError((matrix_size, threads, slack_s))

    def series(self, matrix_size: int, threads: int) -> List[SweepPoint]:
        """All slack points of one (matrix size, threads) series."""
        pts = [
            p
            for p in self.points
            if p.matrix_size == matrix_size and p.threads == threads
        ]
        return sorted(pts, key=lambda p: p.slack_s)

    def matrix_sizes(self) -> List[int]:
        """Distinct matrix sizes measured."""
        return sorted({p.matrix_size for p in self.points})

    def thread_counts(self) -> List[int]:
        """Distinct thread counts measured."""
        return sorted({p.threads for p in self.points})


def grid_series(
    matrix_sizes: Sequence[int], threads: Sequence[int]
) -> List[Tuple[int, int]]:
    """``(matrix_size, threads)`` series keys in canonical grid order.

    Threads-major, then matrix size — the historical sequential loop
    nesting every sweep (dense and adaptive) must reproduce.
    """
    return [(n, t) for t in threads for n in matrix_sizes]


def plan_grid_tasks(
    matrix_sizes: Sequence[int],
    slack_values_s: Sequence[float],
    threads: Sequence[int],
    iterations: Optional[int] = None,
    target_compute_s: float = 30.0,
    *,
    fast_forward: Optional[bool] = None,
    faults: Optional["FaultPlan"] = None,
) -> List["PointTask"]:
    """The canonical task list of one sweep grid.

    Calibration is hoisted out of the per-point workers: the
    single-kernel duration and the iteration count are computed once
    per matrix size here, and every point of that size (all thread
    counts, all slacks) shares them via its task. The resulting
    iteration count is identical to what per-point calibration would
    choose (same inputs, same function).

    Task order is the grid contract: per :func:`grid_series` entry,
    the zero-slack baseline followed by the slack values in the order
    given. Every slack task is its baseline with ``slack_s`` replaced,
    so ``slack_values_s=()`` plans the baselines alone, from which the
    adaptive sweep derives its probes.
    """
    from ..parallel.point import PointTask
    from .calibration import calibrate_iterations, time_single_kernel
    from .matmul import ProxyConfig

    calibration: Dict[int, Tuple[float, int]] = {}
    tasks: List[PointTask] = []
    for n, t in grid_series(matrix_sizes, threads):
        if n not in calibration:
            probe = ProxyConfig(matrix_size=n, target_compute_s=target_compute_s)
            kt = time_single_kernel(n, probe.gpu, probe.pcie, probe.dtype_bytes)
            calibration[n] = (
                kt,
                iterations or calibrate_iterations(kt, target_s=target_compute_s),
            )
        kt, iters = calibration[n]
        baseline = PointTask(
            ProxyConfig(
                matrix_size=n,
                threads=t,
                iterations=iters,
                target_compute_s=target_compute_s,
            ),
            0.0,
            kernel_time_s=kt,
            fast_forward=fast_forward,
            faults=faults,
        )
        tasks.append(baseline)
        tasks.extend(
            dataclasses.replace(baseline, slack_s=s) for s in slack_values_s
        )
    return tasks


def assemble_sweep_result(
    series: Sequence[Tuple[int, int]],
    slack_values_s: Sequence[float],
    measurements: Sequence["PointMeasurement"],
) -> SweepResult:
    """Reduce ordered point measurements to a :class:`SweepResult`.

    ``measurements`` must follow the task order of
    :func:`plan_grid_tasks` (per series: baseline, then each slack).
    """
    result = SweepResult()
    i = 0
    for matrix_size, threads in series:
        baseline = measurements[i]
        i += 1
        if not baseline.ok:
            # The baseline OOMed: the whole series is unmeasurable (its
            # slack points failed identically) — record the one skip the
            # sequential sweep records and move past the series.
            result.skipped.append((matrix_size, threads, baseline.error))
            i += len(slack_values_s)
            continue
        for slack_s in slack_values_s:
            m = measurements[i]
            i += 1
            if not m.ok:
                # Under a fault plan a single point can fail on its own
                # (fabric timeout) even though its baseline survived;
                # record the skip instead of fabricating a zero point.
                result.skipped.append((matrix_size, threads, m.error))
                continue
            result.add(
                SweepPoint(
                    matrix_size=matrix_size,
                    threads=threads,
                    slack_s=slack_s,
                    loop_runtime_s=m.loop_runtime_s,
                    corrected_runtime_s=m.corrected_runtime_s,
                    baseline_runtime_s=baseline.loop_runtime_s,
                    iterations=m.iterations,
                    kernel_time_s=m.kernel_time_s,
                )
            )
    return result


def run_slack_sweep(
    *,
    matrix_sizes: Sequence[int] = PAPER_MATRIX_SIZES,
    slack_values_s: Sequence[float] = PAPER_SLACK_VALUES_S,
    threads: Sequence[int] = (1,),
    iterations: Optional[int] = None,
    target_compute_s: float = 30.0,
    options: Optional[SweepOptions] = None,
    executor: Optional["SweepExecutor"] = None,
) -> SweepResult:
    """Measure the slack response surface over a parameter grid.

    All parameters are keyword-only. The grid keywords default to the
    paper's values; ``iterations=None`` auto-calibrates and
    ``target_compute_s`` sets the calibration budget (a fixed
    ``iterations`` keeps tests fast). Configurations whose matrices
    exceed device memory are skipped and recorded in
    ``SweepResult.skipped`` (the paper's 2^15 exclusion above 2
    threads).

    The execution knobs travel as one
    :class:`~repro.proxy.SweepOptions` (``options=None`` = its
    defaults: one inline worker, no cache):

    * ``workers`` > 1 fans the grid out over a process pool (``None``
      = ``os.cpu_count()``); results come back in the same
      deterministic grid order either way.
    * ``cache`` attaches a per-point result store so previously
      measured points are never re-run.
    * ``fast_forward`` reaches every point's
      :func:`repro.proxy.run_proxy` (``None`` = the proxy default;
      results are bit-identical either way).
    * ``faults`` attaches a :class:`~repro.faults.FaultPlan` to every
      point of the grid (baselines included — the fabric is degraded,
      period), producing a degraded-mode response surface. The plan
      rides inside each :class:`~repro.parallel.PointTask`, is part
      of the point-cache key, and disables per-point fast-forward; an
      empty plan is normalized to ``None`` and reproduces the healthy
      sweep bit-identically. For surfaces across *fault intensities*
      see :func:`repro.faults.run_degraded_sweep`.
    * ``adaptive=True`` measures only a seed of each series plus
      error-driven refinements and *predicts* the rest
      (:func:`repro.model.adaptive.adaptive_slack_sweep`): the
      returned result still covers the full grid, each predicted
      point certified to within ``tol`` (default
      :data:`~repro.model.adaptive.DEFAULT_TOL`, 0.1 pp of penalty).
      Measured points are bit-identical to the dense sweep's and
      share its per-point cache. Call ``adaptive_slack_sweep``
      directly to also get the measured-only view and per-point
      error bounds.

    ``executor`` substitutes a fully custom
    :class:`~repro.parallel.SweepExecutor` (its ``workers``/``cache``
    then take precedence over the options').

    Calibration is hoisted out of the per-point workers: the
    single-kernel duration and the iteration count are computed once
    per matrix size here, and every point of that size (all thread
    counts, all slacks) shares them via its task.

    When metrics are enabled (:func:`repro.obs.enable_metrics` or the
    CLI's ``--metrics-out``), the sweep publishes DES/GPU/fabric/cache
    telemetry into the active registry and attaches a
    :class:`repro.obs.RunReport` snapshot as ``SweepResult.report``.
    """
    from ..parallel.executor import SweepExecutor

    opts = (options if options is not None else SweepOptions()).validate()

    if opts.adaptive:
        # Lazy import: repro.model imports repro.proxy at module level.
        from ..model.adaptive import adaptive_slack_sweep

        return adaptive_slack_sweep(
            matrix_sizes=matrix_sizes,
            slack_values_s=slack_values_s,
            threads=threads,
            iterations=iterations,
            target_compute_s=target_compute_s,
            options=opts,
            executor=executor,
        ).dense

    tasks = plan_grid_tasks(
        matrix_sizes,
        slack_values_s,
        threads,
        iterations,
        target_compute_s,
        fast_forward=opts.fast_forward,
        faults=opts.faults,
    )

    ex = executor if executor is not None else SweepExecutor(
        opts.workers, opts.point_cache()
    )
    measurements = ex.run(tasks)

    return _finish_sweep(
        assemble_sweep_result(
            grid_series(matrix_sizes, threads), slack_values_s, measurements
        ),
        ex.stats,
        matrix_sizes=matrix_sizes,
        slack_values_s=slack_values_s,
        threads=threads,
        iterations=iterations,
        faults_doc=opts.faults.to_doc() if opts.faults is not None else None,
    )


def _finish_sweep(
    result: SweepResult,
    timing: Optional[SweepTiming],
    *,
    matrix_sizes: Sequence[int],
    slack_values_s: Sequence[float],
    threads: Sequence[int],
    iterations: Optional[int],
    faults_doc: Optional[Dict[str, Any]],
    **meta: Any,
) -> SweepResult:
    """The one roll-up of a finished sweep: dense or adaptive.

    Sets ``result.timing`` and, when metrics are enabled, publishes
    ``sweep.runs``/``points``/``skipped``/``wall_s`` and attaches the
    ``kind="sweep"`` :class:`~repro.obs.RunReport` whose meta is the
    grid (after any extra ``meta`` keys the caller adds).
    """
    result.timing = timing
    reg = get_registry()
    if reg.enabled:
        reg.counter("sweep.runs").inc()
        reg.counter("sweep.points").inc(len(result.points))
        reg.counter("sweep.skipped").inc(len(result.skipped))
        if timing is not None:
            reg.counter("sweep.wall_s").inc(timing.wall_s)
        result.report = RunReport.collect(
            reg,
            kind="sweep",
            meta={
                **meta,
                "matrix_sizes": list(matrix_sizes),
                "slack_values_s": list(slack_values_s),
                "threads": list(threads),
                "iterations": iterations,
                "faults": faults_doc,
            },
        )
    return result
