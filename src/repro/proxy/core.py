"""Index core of the matmul proxy.

The proxy's loop (see :mod:`repro.proxy.matmul`) is one loop body per
OpenMP thread (:func:`iteration_body`). :func:`proxy_core` runs the
threads on :class:`~repro.gpusim.flatcore.FlatDevice`: the same run
the DES interpreter makes of the same body, bit for bit, without an
event loop. Each thread repeats
``[H2D, H2D, launch(blocking), D2H, cudaStreamSynchronize]`` on its own
stream; the threads free-run against the shared engines. Once the loop
is certified periodic the core skips its steady state, which makes a
run cost O(warm-up) iterations; :class:`FastForwardInfo` records the
skip or why there was none.

The run's telemetry is rebuilt to equal what
:func:`repro.obs.simulation_snapshot` reads off the DES:

* the ``gpu.*`` counts follow from the program, and the three engine
  utilizations sum the same busy and idle intervals, in the same order,
  as :class:`~repro.des.UtilizationTracker`;
* the ``fabric.*`` values are the core's own slack accounting, made
  like :class:`~repro.gpusim.interception.SlackInjector`'s;
* the ``des.*`` values are DES-equivalent counts: the events the
  reference run dispatches (30 per thread iteration, 3 per thread, 4
  for the run, 1 per positive slack sleep), its final callback pool
  and an empty heap. ``tests/proxy/test_proxycore.py`` checks the whole
  dict against the DES.

The engine utilizations are computed from the full trace, skipped
cycles included, so they need no extrapolation of their own.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple

import numpy as np

from ..gpusim.kernels import matmul_kernel
from ..gpusim.flatcore import FastForwardInfo, FlatDevice, FlatRun
from ..trace.events import CopyKind, EventKind
from ..trace.store import COPY_CODE, KIND_CODE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .matmul import ProxyConfig

__all__ = ["iteration_body", "proxy_core"]

#: DES events of one proxy thread iteration, of one thread, and of the
#: run itself (main process, its ``all_of`` and the runtime's default
#: stream). Every positive slack sleep adds one timeout event.
_EVENTS_PER_ITERATION = 30
_EVENTS_PER_THREAD = 3
_EVENTS_PER_RUN = 4
#: Event callbacks left in the DES's free pool: per thread and per run.
_POOL_PER_THREAD = 3
_POOL_PER_RUN = 3

_KERNEL = KIND_CODE[EventKind.KERNEL]
_MEMCPY = KIND_CODE[EventKind.MEMCPY]


def proxy_core(
    config: "ProxyConfig", dev: FlatDevice, body: List[Tuple], iterations: int
) -> Tuple[FlatRun, Dict[str, float], FastForwardInfo]:
    """Run ``iterations`` proxy iterations of ``config`` on the index core:
    every thread repeats ``body`` (:func:`iteration_body` on ``dev``).

    Returns the run (``end_s`` is the loop runtime), its simulator
    telemetry, equal to the DES run's ``sim_metrics``, and the record
    of its steady-state skip.
    """
    threads = config.threads
    run = dev.run([body] * threads, range(threads), count=iterations)
    skipped = run.cycles_skipped
    if skipped:
        info = FastForwardInfo(
            enabled=True,
            certified=True,
            warmup_iterations=iterations - skipped,
            skipped_iterations=skipped,
            events_skipped=(
                _EVENTS_PER_ITERATION * threads * skipped + run.sleeps_skipped
            ),
            cycle_period_s=run.cycle_period_s,
        )
    else:
        info = FastForwardInfo(
            enabled=True, certified=False, reason=run.refusal
        )
    sim_metrics = _sim_metrics(
        run, threads * iterations, threads, config.matrix_bytes
    )
    return run, sim_metrics, info


def iteration_body(
    dev: FlatDevice, matrix_size: int, dtype_bytes: int = 4
) -> List[Tuple]:
    """One proxy thread iteration as a :class:`FlatDevice` program:
    ``[H2D, H2D, launch(blocking), D2H, cudaStreamSynchronize]`` of
    ``matrix_size``-square matrices."""
    kernel = matmul_kernel(matrix_size, dtype_bytes)
    nbytes = matrix_size * matrix_size * dtype_bytes
    h2d = dev.memcpy(nbytes, CopyKind.H2D)
    return [
        h2d,
        h2d,
        dev.launch(
            kernel.name,
            kernel.execution_time(dev.gpu),
            meta=kernel.meta,
            blocking=True,
        ),
        dev.memcpy(nbytes, CopyKind.D2H),
        FlatDevice.SYNC_STREAM,
    ]


def _sim_metrics(
    run: FlatRun, loops: int, threads: int, nbytes: int
) -> Dict[str, float]:
    """:func:`repro.obs.simulation_snapshot` of the equivalent DES run,
    for ``loops`` thread iterations over ``threads`` threads."""
    events = float(
        _EVENTS_PER_ITERATION * loops
        + _EVENTS_PER_THREAD * threads
        + _EVENTS_PER_RUN
        + run.slack_sleeps
    )
    store = run.trace.store
    n = store.n
    start, end = store.start[:n], store.end[:n]
    kind, copy = store.kind[:n], store.copy[:n]
    memcpy = kind == _MEMCPY
    engines = (
        kind == _KERNEL,
        memcpy & (copy == COPY_CODE[CopyKind.H2D]),
        memcpy & (copy == COPY_CODE[CopyKind.D2H]),
    )
    compute, copy_h2d, copy_d2h = (
        _utilization(start[rows], end[rows], run.end_s) for rows in engines
    )
    calls = 5.0 * loops
    return {
        "des.events_scheduled": events,
        "des.events_dispatched": events,
        "des.heap_depth": 0.0,
        "des.cb_pool_free": float(_POOL_PER_THREAD * threads + _POOL_PER_RUN),
        "des.sim_time_s": run.end_s,
        "gpu.kernel_launches": float(loops),
        "gpu.api_calls": calls,
        "gpu.memcpy_h2d_bytes": float(2 * loops * nbytes),
        "gpu.memcpy_d2h_bytes": float(loops * nbytes),
        "gpu.memcpy_count": 3.0 * loops,
        "gpu.stream_count": float(threads + 1),
        "gpu.compute_utilization": compute,
        "gpu.copy_h2d_utilization": copy_h2d,
        "gpu.copy_d2h_utilization": copy_d2h,
        "gpu.starvation_cost_s": run.starvation_s,
        "fabric.calls_intercepted": calls,
        "fabric.slack_calls": float(run.slack_calls),
        "fabric.slack_injected_s": run.injected_slack_s,
    }


def _utilization(starts: np.ndarray, ends: np.ndarray, end_s: float) -> float:
    """One engine's :meth:`UtilizationTracker.utilization` at ``end_s``.

    The engine ran its ops over ``[starts[i], ends[i]]`` in order; the
    tracker closes a busy interval per op and an idle one per gap and
    after the last op, keeping the positive ones, and sums each kind
    in interval order (jittered slack puts times off the dyadic grid,
    where the order of the sum matters).
    """
    if not len(starts):
        return 0.0
    busy = ends - starts
    idle = np.append(starts[1:], end_s) - ends
    busy_s = sum(busy[busy > 0].tolist())
    idle_s = sum(idle[idle > 0].tolist())
    total = busy_s + idle_s
    return busy_s / total if total > 0 else 0.0
