"""Parallel sweep execution: fan independent grid points over processes.

:class:`SweepExecutor` takes an ordered list of :class:`PointTask`s and
returns their measurements **in the same order**, so parallel output is
byte-identical to sequential. Internally it

1. resolves as many tasks as possible from the per-point
   :class:`~repro.parallel.PointCache` (when one is attached),
2. fans the misses out over a ``concurrent.futures
   .ProcessPoolExecutor`` (fork start method, chunked so each worker
   amortizes dispatch overhead),
3. falls back to a deterministic in-process loop for ``workers=1``,
   platforms without ``fork``, or a pool that fails to start
   (restricted sandboxes), and
4. writes fresh measurements back to the cache.

Every run leaves a :class:`~repro.proxy.SweepTiming` on
``executor.stats`` — wall time, points/sec, cached-vs-measured split,
and the speedup-vs-sequential implied by the per-point timings — which
the sweep layer attaches to :class:`~repro.proxy.SweepResult` as-is.
"""

from __future__ import annotations

import os
from time import perf_counter
from typing import List, Optional, Sequence

from ..obs.metrics import get_registry
from ..obs.publish import publish_executor, publish_snapshot
from ..proxy.sweep import SweepTiming
from .point import PointMeasurement, PointTask, measure_point
from .pointcache import PointCache

__all__ = ["SweepExecutor"]


def merge_stats(
    runs: Sequence[Optional[SweepTiming]],
) -> Optional[SweepTiming]:
    """Combine the stats of several executor runs into one.

    Multi-round drivers (the adaptive sweep refines in batches, each a
    separate :meth:`SweepExecutor.run`) would otherwise only see the
    last round on ``executor.stats``. Additive fields sum; ``workers``
    is the maximum any round used; ``mode`` reports "process" if any
    round pooled. Returns ``None`` for an empty sequence.
    """
    runs = [r for r in runs if r is not None]
    if not runs:
        return None
    return SweepTiming(
        wall_s=sum(r.wall_s for r in runs),
        grid_points=sum(r.grid_points for r in runs),
        measured=sum(r.measured for r in runs),
        cached=sum(r.cached for r in runs),
        workers=max(r.workers for r in runs),
        mode="process" if any(r.mode == "process" for r in runs) else "inline",
        point_seconds=sum(r.point_seconds for r in runs),
    )


def fork_available() -> bool:
    """Whether this platform supports the ``fork`` start method."""
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


class SweepExecutor:
    """Executes point tasks over a process pool with per-point caching.

    Parameters
    ----------
    workers:
        Process count; ``None`` means ``os.cpu_count()``. ``1`` always
        runs in-process (deterministic, no pool).
    cache:
        Optional :class:`PointCache`; hits skip the proxy run entirely
        and fresh results are written back.
    chunk_size:
        Tasks per worker dispatch; default splits the miss list into
        roughly four chunks per worker so stragglers rebalance while
        interpreter/dispatch startup still amortizes.

    The sweep entry points build one from their
    :class:`~repro.proxy.SweepOptions` as
    ``SweepExecutor(opts.workers, opts.point_cache())``.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        cache: Optional[PointCache] = None,
        chunk_size: Optional[int] = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1 (or None for cpu_count)")
        self.workers = workers if workers is not None else (os.cpu_count() or 1)
        self.cache = cache
        self.chunk_size = chunk_size
        #: Stats of the most recent :meth:`run` (None before first use).
        self.stats: Optional[SweepTiming] = None

    def run(self, tasks: Sequence[PointTask]) -> List[PointMeasurement]:
        """Resolve every task, preserving input order exactly."""
        tasks = list(tasks)
        t0 = perf_counter()
        results: List[Optional[PointMeasurement]] = [None] * len(tasks)

        # 1. Cache pass: resolve known points without running anything.
        miss_idx: List[int] = []
        if self.cache is not None:
            for i, task in enumerate(tasks):
                hit = self.cache.get_task(task)
                if hit is not None:
                    results[i] = hit
                else:
                    miss_idx.append(i)
        else:
            miss_idx = list(range(len(tasks)))
        cached = len(tasks) - len(miss_idx)

        # 2. Measure the misses — pooled when it can help, else inline.
        mode = "inline"
        workers_used = 1
        if miss_idx:
            miss_tasks = [tasks[i] for i in miss_idx]
            pool_workers = min(self.workers, len(miss_tasks))
            measured: Optional[List[PointMeasurement]] = None
            if pool_workers > 1 and fork_available():
                from concurrent.futures.process import BrokenProcessPool

                try:
                    measured = self._run_pool(miss_tasks, pool_workers)
                    mode = "process"
                    workers_used = pool_workers
                except (OSError, PermissionError, BrokenProcessPool):
                    # Pool could not start or died (e.g. sandboxed
                    # environments without process spawning): the
                    # in-process path below produces identical results.
                    measured = None
            if measured is None:
                measured = [measure_point(task) for task in miss_tasks]
            for i, m in zip(miss_idx, measured):
                results[i] = m
                if self.cache is not None:
                    self.cache.put_task(tasks[i], m)

        wall = perf_counter() - t0
        self.stats = SweepTiming(
            wall_s=wall,
            grid_points=len(tasks),
            measured=len(miss_idx),
            cached=cached,
            workers=workers_used,
            mode=mode,
            point_seconds=sum(results[i].elapsed_s for i in miss_idx),
        )
        reg = get_registry()
        if reg.enabled:
            # Identical publication on the pool and inline paths: the
            # per-run simulator telemetry rides inside each measurement
            # (and inside cache entries), so cached points count too.
            publish_executor(self.stats, reg)
            miss_set = set(miss_idx)
            ff_hits = ff_fallbacks = ff_skipped = 0
            for i, m in enumerate(results):
                publish_snapshot(m.sim, reg)  # type: ignore[union-attr]
                if i in miss_set:
                    reg.histogram("executor.point_wall_s").observe(
                        m.elapsed_s  # type: ignore[union-attr]
                    )
                    # Fast-forward telemetry counts freshly measured
                    # points only: cached entries did not exercise the
                    # engine this run.
                    if m.fastforward_hit:  # type: ignore[union-attr]
                        ff_hits += 1
                        ff_skipped += m.fastforward_events_skipped  # type: ignore[union-attr]
                    elif m.ok:  # type: ignore[union-attr]
                        ff_fallbacks += 1
                    if m.ok:  # type: ignore[union-attr]
                        # Which engine measured the point: the index
                        # core, or the DES and why.
                        fallback = m.core_fallback  # type: ignore[union-attr]
                        reg.counter(
                            "proxycore.runs" if fallback is None
                            else f"proxycore.fallbacks.{fallback}"
                        ).inc()
            if ff_hits or ff_fallbacks:
                reg.counter("proxy.fastforward.hits").inc(ff_hits)
                reg.counter("proxy.fastforward.fallbacks").inc(ff_fallbacks)
                reg.counter("proxy.fastforward.events_skipped").inc(
                    ff_skipped
                )
        return results  # type: ignore[return-value]

    def _run_pool(
        self, miss_tasks: List[PointTask], pool_workers: int
    ) -> List[PointMeasurement]:
        chunk = self.chunk_size or max(
            1, len(miss_tasks) // (pool_workers * 4)
        )
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(
            max_workers=pool_workers, mp_context=ctx
        ) as pool:
            # map() yields results in submission order regardless of
            # completion order — the determinism guarantee.
            return list(pool.map(measure_point, miss_tasks, chunksize=chunk))
