"""Publication glue: turn simulator state into registry metrics.

The DES kernel and GPU runtime are the reproduction's hot paths, so
they are **not** instrumented per event. Instead, each layer exposes
cheap pull-style accessors (``Environment.metrics_snapshot``, the
``CudaRuntime`` call/byte counters, ``Link``/``NIC`` carry counters)
and this module snapshots them *once per run* into the active
:class:`~repro.obs.MetricsRegistry`:

* :func:`simulation_snapshot` — reduce one finished simulation
  (environment + optional runtime) to a flat ``{dotted name: value}``
  dict. This is what :func:`repro.proxy.run_proxy` attaches to every
  :class:`~repro.proxy.ProxyResult`, and what sweep workers ship back
  to the parent process inside :class:`~repro.parallel.PointMeasurement`.
* :func:`publish_snapshot` — fold such a dict into the registry
  (additive metrics accumulate into counters, per-run metrics like
  engine utilization become histogram observations).
* :func:`publish_executor` / :func:`publish_link` — same idea for the
  parallel engine's :class:`~repro.proxy.SweepTiming` and for
  fabric links.

Everything here is a no-op (beyond a dict build the caller asked for)
when metrics are disabled.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, TYPE_CHECKING

from .metrics import MetricsRegistry, get_registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..des.core import Environment
    from ..gpusim.runtime import CudaRuntime
    from ..network.link import Link, NIC
    from ..proxy.sweep import SweepTiming

__all__ = [
    "simulation_snapshot",
    "publish_snapshot",
    "publish_executor",
    "publish_fleet",
    "publish_inference",
    "publish_link",
    "publish_nic",
    "publish_service",
    "publish_shard",
    "publish_shard_merge",
    "publish_trace_store",
]

#: Snapshot keys that are *per-run observations* (distributions across
#: runs), not additive totals: they land in histograms. Everything else
#: accumulates into a counter.
_HISTOGRAM_KEYS = frozenset(
    {
        "des.heap_depth",
        "des.cb_pool_free",
        "gpu.compute_utilization",
        "gpu.copy_h2d_utilization",
        "gpu.copy_d2h_utilization",
        "gpu.stream_count",
    }
)


def simulation_snapshot(
    env: "Environment", runtime: Optional["CudaRuntime"] = None
) -> Dict[str, float]:
    """Reduce one simulation to flat scalar telemetry.

    Sections produced: ``des.*`` always; ``gpu.*`` and ``fabric.*``
    when a :class:`~repro.gpusim.CudaRuntime` is given (the fabric
    numbers come from its :class:`~repro.gpusim.interception.SlackInjector`,
    the emulation point where CDI fabric latency enters a run); and
    ``faults.*`` when the runtime carries an active
    :class:`~repro.faults.FaultInjector` (healthy runs publish no
    faults section at all, keeping their snapshots byte-identical to
    pre-fault builds).
    """
    snap: Dict[str, float] = {
        f"des.{key}": value for key, value in env.metrics_snapshot().items()
    }
    if runtime is not None:
        util = runtime.engine_utilization()
        snap.update(
            {
                "gpu.kernel_launches": float(runtime.kernel_launches),
                "gpu.api_calls": float(runtime.api_calls),
                "gpu.memcpy_h2d_bytes": float(runtime.memcpy_bytes_h2d),
                "gpu.memcpy_d2h_bytes": float(runtime.memcpy_bytes_d2h),
                "gpu.memcpy_count": float(runtime.memcpy_count),
                "gpu.stream_count": float(len(runtime.streams)),
                "gpu.compute_utilization": util["compute"],
                "gpu.copy_h2d_utilization": util["copy_h2d"],
                "gpu.copy_d2h_utilization": util["copy_d2h"],
                "gpu.starvation_cost_s": runtime.total_starvation_cost(),
                "fabric.calls_intercepted": float(
                    runtime.injector.calls_intercepted
                ),
                "fabric.slack_calls": float(runtime.injector.calls_delayed),
                "fabric.slack_injected_s": runtime.injector.total_injected_s,
            }
        )
        faults = getattr(runtime, "faults", None)
        if faults is not None:
            snap.update(faults.snapshot())
    return snap


def publish_snapshot(
    snapshot: Dict[str, float],
    registry: Optional[MetricsRegistry] = None,
) -> None:
    """Fold one flat snapshot dict into the (active) registry."""
    reg: Any = registry if registry is not None else get_registry()
    if not reg.enabled or not snapshot:
        return
    for name, value in snapshot.items():
        if name in _HISTOGRAM_KEYS:
            reg.histogram(name).observe(value)
        else:
            reg.counter(name).inc(value)


def publish_executor(
    stats: "SweepTiming",
    registry: Optional[MetricsRegistry] = None,
) -> None:
    """Publish one executor run: throughput, cache split, utilization."""
    reg: Any = registry if registry is not None else get_registry()
    if not reg.enabled:
        return
    reg.counter("executor.runs").inc()
    reg.counter("executor.points").inc(stats.grid_points)
    reg.counter("executor.measured").inc(stats.measured)
    reg.counter("executor.cached").inc(stats.cached)
    reg.counter("executor.wall_s").inc(stats.wall_s)
    reg.counter("executor.point_seconds").inc(stats.point_seconds)
    reg.gauge("executor.workers").set(stats.workers)
    # Fraction of the worker-seconds the pool had available that were
    # actually spent measuring (1.0 = perfectly packed workers).
    if stats.wall_s > 0 and stats.workers > 0:
        reg.histogram("executor.worker_utilization").observe(
            min(1.0, stats.point_seconds / (stats.wall_s * stats.workers))
        )


def publish_trace_store(
    trace: Any, registry: Optional[MetricsRegistry] = None
) -> None:
    """Publish one trace's column-store accounting.

    Counters under ``trace.store.*`` accumulate events recorded,
    column bytes and geometric growths across every trace published in
    the run; ``trace.store.peak_bytes`` is a high-water gauge (the
    largest single columnar footprint seen), the one-shot memory
    number ``repro metrics`` surfaces.
    """
    reg: Any = registry if registry is not None else get_registry()
    if not reg.enabled:
        return
    stats = trace.store.stats()
    reg.counter("trace.store.events").inc(stats["events"])
    reg.counter("trace.store.bytes").inc(stats["bytes"])
    reg.counter("trace.store.growths").inc(stats["growths"])
    reg.counter("trace.store.interned_names").inc(stats["interned_names"])
    peak = reg.gauge("trace.store.peak_bytes")
    peak.set(max(peak.value, stats["bytes"]))


def publish_inference(
    result: Any,
    registry: Optional[MetricsRegistry] = None,
) -> None:
    """Publish one serving run under ``apps.inference.*``.

    ``result`` is a :class:`repro.apps.inference.InferenceRunResult`.
    Counters accumulate requests/batches/tokens and SLO violations
    across runs; per-request TTFT/TPOT and per-batch occupancy/queue
    depth land in histograms; ``apps.inference.queue_high_water``
    max-merges into a gauge. Called once per run from
    :func:`repro.apps.inference.run_inference` — the snapshot idiom of
    every other layer, nothing on the DES hot path.
    """
    reg: Any = registry if registry is not None else get_registry()
    if not reg.enabled:
        return
    slo = result.slo
    reg.counter("apps.inference.runs").inc()
    reg.counter("apps.inference.requests").inc(slo.requests)
    reg.counter("apps.inference.batches").inc(len(result.batches))
    reg.counter("apps.inference.ttft_violations").inc(slo.ttft_violations)
    reg.counter("apps.inference.tpot_violations").inc(slo.tpot_violations)
    reg.counter("apps.inference.prefill_tokens").inc(
        sum(b.prefill_tokens for b in result.batches)
    )
    reg.counter("apps.inference.decode_steps").inc(
        sum(b.decode_steps for b in result.batches)
    )
    reg.counter("apps.inference.kv_spilled_bytes").inc(
        sum(b.kv_spilled_bytes for b in result.batches)
    )
    reg.counter("apps.inference.kv_restored_bytes").inc(
        sum(b.kv_restored_bytes for b in result.batches)
    )
    ttft = reg.histogram("apps.inference.ttft_s")
    tpot = reg.histogram("apps.inference.tpot_s")
    for req in result.requests:
        ttft.observe(req.ttft_s)
        if req.tpot_s is not None:
            tpot.observe(req.tpot_s)
    occupancy = reg.histogram("apps.inference.batch_occupancy")
    depth = reg.histogram("apps.inference.queue_depth")
    for batch in result.batches:
        occupancy.observe(batch.size)
        depth.observe(batch.queue_depth)
    high_water = reg.gauge("apps.inference.queue_high_water")
    high_water.set(max(high_water.value, result.queue_high_water))


def publish_fleet(
    result: Any,
    registry: Optional[MetricsRegistry] = None,
) -> None:
    """Publish one fleet run under ``fleet.*``.

    ``result`` is a :class:`repro.cdi.fleet.FleetResult`. Counters
    accumulate job counts, busy and trapped resource-seconds,
    surrogate refusals and the admission core's certified jobs and
    drain hand-offs across runs; per-tenant queue-wait and penalty
    percentiles land in histograms (one observation per tenant per
    run, never per job — a million-job run publishes a handful of
    scalars); utilizations and the makespan max-merge into gauges.
    The snapshot idiom of every other layer: nothing on the engine's
    hot path.
    """
    reg: Any = registry if registry is not None else get_registry()
    if not reg.enabled:
        return
    reg.counter("fleet.runs").inc()
    reg.counter("fleet.jobs").inc(len(result))
    reg.counter("fleet.core_busy_s").inc(result.core_busy_s)
    reg.counter("fleet.gpu_busy_s").inc(result.gpu_busy_s)
    reg.counter("fleet.trapped_core_s").inc(
        result.trapped_core_hours * 3600.0
    )
    reg.counter("fleet.trapped_gpu_s").inc(result.trapped_gpu_hours * 3600.0)
    reg.counter("fleet.penalty_refusals").inc(result.penalty_refusals)
    reg.counter("fleet.core.certified_jobs").inc(result.certified_jobs)
    reg.counter("fleet.core.handoffs").inc(result.handoffs)
    wait_p50 = reg.histogram("fleet.tenant_wait_p50_s")
    wait_p99 = reg.histogram("fleet.tenant_wait_p99_s")
    pen_p50 = reg.histogram("fleet.tenant_penalty_p50")
    pen_p99 = reg.histogram("fleet.tenant_penalty_p99")
    for stats in result.tenant_stats().values():
        wait_p50.observe(stats.wait_p50_s)
        wait_p99.observe(stats.wait_p99_s)
        if stats.penalty_p50 is not None:
            pen_p50.observe(stats.penalty_p50)
        if stats.penalty_p99 is not None:
            pen_p99.observe(stats.penalty_p99)
    core_util = reg.gauge("fleet.core_utilization")
    core_util.set(max(core_util.value, result.core_utilization))
    gpu_util = reg.gauge("fleet.gpu_utilization")
    gpu_util.set(max(gpu_util.value, result.gpu_utilization))
    makespan = reg.gauge("fleet.makespan_s")
    makespan.set(max(makespan.value, result.makespan_s))


#: Serving stats that are high-water marks, not additive totals: they
#: land in gauges (max-merged) instead of counters.
_SERVE_GAUGE_KEYS = frozenset({"max_batch", "queue_high_water"})


def publish_service(
    stats: Dict[str, float],
    registry: Optional[MetricsRegistry] = None,
) -> None:
    """Publish one penalty service's counters under ``serve.*``.

    ``stats`` is :meth:`repro.serve.PenaltyService.stats` — plain
    scalars accumulated off the hot path (the service never touches
    the registry per request, matching the snapshot idiom of the
    simulator layers). Additive counts accumulate into counters;
    high-water marks (``max_batch``, ``queue_high_water``) max-merge
    into gauges.
    """
    reg: Any = registry if registry is not None else get_registry()
    if not reg.enabled or not stats:
        return
    for name, value in stats.items():
        if name in _SERVE_GAUGE_KEYS:
            gauge = reg.gauge(f"serve.{name}")
            gauge.set(max(gauge.value, value))
        else:
            reg.counter(f"serve.{name}").inc(value)


#: Shard-stats keys that describe the shard rather than accumulate:
#: published as gauges (last/max write wins), everything else sums.
_SHARD_GAUGE_KEYS = frozenset({"workers", "mode_process"})


def publish_shard(
    shard_index: int,
    shard_count: int,
    stats: Dict[str, float],
    registry: Optional[MetricsRegistry] = None,
) -> None:
    """Publish one shard worker's run under ``sweep.shard.*``.

    ``stats`` is the roll-up :func:`repro.parallel.run_sweep_shard`
    builds (executor wall/split, cache deltas, fast-forward counts).
    Additive numbers accumulate into counters so a process hosting
    several shard runs (tests, in-process merges) reports totals;
    ``sweep.shard.index`` / ``sweep.shard.count`` are gauges recording
    the most recent assignment — the one-worker-one-shard case every
    subprocess worker is.
    """
    reg: Any = registry if registry is not None else get_registry()
    if not reg.enabled:
        return
    reg.counter("sweep.shard.runs").inc()
    reg.gauge("sweep.shard.index").set(shard_index)
    reg.gauge("sweep.shard.count").set(shard_count)
    for name, value in stats.items():
        if name in _SHARD_GAUGE_KEYS:
            reg.gauge(f"sweep.shard.{name}").set(value)
        else:
            reg.counter(f"sweep.shard.{name}").inc(value)


def publish_shard_merge(
    merge: Any,
    registry: Optional[MetricsRegistry] = None,
) -> None:
    """Publish one merge under ``sweep.shard.merge.*``.

    ``merge`` is a :class:`repro.parallel.ShardMergeStats`. Counters
    accumulate shards/points/overlaps and the merge wall;
    ``sweep.shard.merge.overhead`` observes the merge-wall over
    slowest-shard-wall ratio (the <5% budget the bench asserts).
    """
    reg: Any = registry if registry is not None else get_registry()
    if not reg.enabled:
        return
    reg.counter("sweep.shard.merge.runs").inc()
    reg.counter("sweep.shard.merge.shards").inc(len(merge.shards))
    reg.counter("sweep.shard.merge.points").inc(merge.grid_points)
    reg.counter("sweep.shard.merge.overlap_points").inc(
        merge.overlap_points
    )
    reg.counter("sweep.shard.merge.wall_s").inc(merge.merge_wall_s)
    if merge.merge_overhead is not None:
        reg.histogram("sweep.shard.merge.overhead").observe(
            merge.merge_overhead
        )


def publish_link(
    link: "Link", registry: Optional[MetricsRegistry] = None
) -> None:
    """Publish one fabric link's carried traffic and queueing delay."""
    reg: Any = registry if registry is not None else get_registry()
    if not reg.enabled:
        return
    reg.counter("fabric.link_bytes").inc(link.bytes_carried)
    reg.counter("fabric.link_messages").inc(link.messages_carried)
    reg.counter("fabric.link_queue_wait_s").inc(link.queue_wait_s)


def publish_nic(
    nic: "NIC", registry: Optional[MetricsRegistry] = None
) -> None:
    """Publish one NIC's processed traffic and queueing delay."""
    reg: Any = registry if registry is not None else get_registry()
    if not reg.enabled:
        return
    reg.counter("fabric.nic_messages").inc(nic.messages_processed)
    reg.counter("fabric.nic_queue_wait_s").inc(nic.queue_wait_s)
