"""Experiment registry and runner.

Maps each paper artifact (table/figure id) to its reproduction
function; the CLI and the benchmark harness both dispatch through
:func:`run_experiment`.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict, List, Optional

from ..obs.metrics import get_registry
from .context import ExperimentContext
# The experiments reach the app models and the sweep through ``ctx``,
# which imports them on first use: a context that only serves a cached
# surface never loads them. The runner builds every artifact, so it
# loads them with the experiments, and running one imports nothing.
from ..apps import profilecache, registry  # noqa: F401
from ..parallel import executor, pointcache  # noqa: F401
from .report import ExperimentResult
from . import (
    cosmoflow_cpu,
    discussion,
    extensions,
    figure1,
    figure2,
    figure3,
    figure4,
    figure5,
    omp_scaling,
    table1,
    table2,
    table3,
    table4,
    validation,
)

__all__ = ["EXPERIMENTS", "run_experiment", "run_all", "experiment_ids"]

#: Registry: experiment id -> runner(ctx) -> ExperimentResult.
EXPERIMENTS: Dict[str, Callable[[Optional[ExperimentContext]], ExperimentResult]] = {
    "table1": table1.run,
    "figure2": figure2.run,
    "omp_scaling": omp_scaling.run,
    "cosmoflow_cpu": cosmoflow_cpu.run,
    "table2": table2.run,
    "figure3": figure3.run,
    "figure4": figure4.run,
    "figure5": figure5.run,
    "table3": table3.run,
    "table4": table4.run,
    "validation": validation.run,
    "figure1": figure1.run,
    "discussion": discussion.run,
    # Extensions: claims the paper makes in prose, quantified.
    "ext_collectives": extensions.run_collectives,
    "ext_congestion": extensions.run_congestion,
    "ext_preload": extensions.run_preload,
    "ext_power": extensions.run_power,
    "ext_remoting": extensions.run_remoting,
    "ext_sensitivity": extensions.run_sensitivity,
    "ext_graphs": extensions.run_graphs,
    "ext_throughput": extensions.run_throughput,
    "ext_weak_scaling": extensions.run_weak_scaling,
    "ext_resilience": extensions.run_resilience,
}


def experiment_ids() -> List[str]:
    """All registered experiment ids, in paper order."""
    return list(EXPERIMENTS)


def run_experiment(
    experiment_id: str, ctx: Optional[ExperimentContext] = None
) -> ExperimentResult:
    """Run one experiment by id."""
    if experiment_id not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; "
            f"available: {', '.join(EXPERIMENTS)}"
        )
    return EXPERIMENTS[experiment_id](ctx)


def run_all(
    ctx: Optional[ExperimentContext] = None, *, workers: int = 1
) -> List[ExperimentResult]:
    """Run every experiment, sharing one context (and its caches).

    Experiments are independent of each other once the shared artifacts
    exist, so ``workers > 1`` (keyword-only, like every execution knob
    on the stable API) fans them out over a process pool: the
    parent first builds the proxy surface (warming the disk caches),
    then each worker rebuilds an equivalent context (the parent's
    options with ``workers=1``, so it keys the same surface) that
    loads those caches instead of re-sweeping. Results come back in
    registry order regardless of completion order. Falls back to the
    sequential loop on platforms without ``fork`` or where pools
    cannot start.

    When metrics are enabled (:mod:`repro.obs`), per-experiment wall
    times are published into the ``experiments`` section of the active
    registry (sequential path: one histogram observation per
    experiment; pool path: one batch wall-time total).
    """
    ctx = ctx or ExperimentContext()
    ids = experiment_ids()
    if workers <= 1 or len(ids) <= 1:
        return _run_all_sequential(ids, ctx)
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    if "fork" not in multiprocessing.get_all_start_methods():
        return _run_all_sequential(ids, ctx)

    # Warm the shared disk caches once so workers load, not re-measure.
    ctx.surface()
    try:
        mp_ctx = multiprocessing.get_context("fork")
        t0 = perf_counter()
        with ProcessPoolExecutor(
            max_workers=min(workers, len(ids)),
            mp_context=mp_ctx,
            initializer=_init_worker_context,
            initargs=(
                ctx.quick, ctx.cache_dir, ctx.options.replace(workers=1)
            ),
        ) as pool:
            results = list(pool.map(_run_in_worker, ids))
        reg = get_registry()
        if reg.enabled:
            reg.counter("experiments.runs").inc(len(results))
            reg.counter("experiments.batch_wall_s").inc(perf_counter() - t0)
            reg.gauge("experiments.workers").set(min(workers, len(ids)))
        return results
    except (OSError, PermissionError, BrokenProcessPool):
        # Pool unavailable (restricted environment): same results,
        # sequentially.
        return _run_all_sequential(ids, ctx)


def _run_all_sequential(
    ids: List[str], ctx: ExperimentContext
) -> List[ExperimentResult]:
    reg = get_registry()
    results = []
    for eid in ids:
        t0 = perf_counter()
        results.append(run_experiment(eid, ctx))
        if reg.enabled:
            reg.counter("experiments.runs").inc()
            reg.histogram("experiments.wall_s").observe(perf_counter() - t0)
    return results


#: Per-worker-process context, created once by the pool initializer.
_WORKER_CTX: Optional[ExperimentContext] = None


def _init_worker_context(quick, cache_dir, options) -> None:
    global _WORKER_CTX
    # The parent's options minus its pool (workers=1): the experiment
    # level is the parallel axis here; nesting pools would only
    # oversubscribe.
    _WORKER_CTX = ExperimentContext(
        quick=quick, cache_dir=cache_dir, options=options
    )


def _run_in_worker(experiment_id: str) -> ExperimentResult:
    assert _WORKER_CTX is not None
    return run_experiment(experiment_id, _WORKER_CTX)
