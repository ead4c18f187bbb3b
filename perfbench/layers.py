"""Per-layer attribution: which spans wrap what, and what they reduce to.

:func:`install` puts span wrappers (spans.py) around the public
functions of every layer a workload passes through. :func:`raw_values`
reads one phase of a sample as additive quantities -- span self/total
times and calls, the counters the ``repro.obs`` registry publishes,
and the workload's own per-pass values -- and :func:`derive` turns the
combined quantities into the per-layer metrics BENCHMARK.json names.
:data:`EXPECTED` says which spans must fire, and which must not, on
each workload; :func:`coverage_problems` enforces it so a missed
binding fails instead of reading 0.
"""

from __future__ import annotations

from typing import Dict, List

__all__ = [
    "EXPERIMENT_IDS",
    "EXPECTED",
    "PER_LAYER",
    "combine",
    "coverage_problems",
    "derive",
    "install",
    "raw_values",
]

#: ``rowscale-cdi list`` order; a test keeps it equal to the registry.
EXPERIMENT_IDS = (
    "table1", "figure2", "omp_scaling", "cosmoflow_cpu", "table2",
    "figure3", "figure4", "figure5", "table3", "table4", "validation",
    "figure1", "discussion", "ext_collectives", "ext_congestion",
    "ext_preload", "ext_power", "ext_remoting", "ext_sensitivity",
    "ext_graphs", "ext_throughput", "ext_weak_scaling", "ext_resilience",
)

#: Counters read from the obs registry (summed per phase).
OBS_COUNTERS = (
    "des.events_dispatched",
    "gpu.kernel_launches",
    "gpu.api_calls",
    "proxy.fastforward.hits",
    "proxy.fastforward.fallbacks",
    "proxy.fastforward.events_skipped",
    "appff.hits",
    "appff.fallbacks",
    "cache.hits",
    "cache.misses",
    "cache.writes",
    "profilecache.hits",
    "profilecache.misses",
    "trace.store.events",
    "fleet.penalty_refusals",
)
#: Raw quantities that are high-water marks: combined by max, not sum.
MAX_KEYS = frozenset({"trace.store.peak_bytes", "serve.queue_high_water"})

#: Every per-layer metric with its unit, in BENCHMARK.json order. Each
#: run reports all of them; a layer its workload never reaches reads 0.
PER_LAYER = tuple(
    [(f"experiments.{eid}.wall_s", "s") for eid in EXPERIMENT_IDS]
    + [
        ("proxy.sweep.self_s", "s"),
        ("proxy.sweep.points", "count"),
        ("proxy.sweep.cached", "count"),
        ("proxy.calibration.self_s", "s"),
        ("proxy.run_proxy.self_s", "s"),
        ("proxy.run_proxy.calls", "count"),
        ("parallel.executor.self_s", "s"),
        ("des.events_dispatched", "count"),
        ("des.events_per_s", "1/s"),
        ("gpu.kernel_launches", "count"),
        ("gpu.api_calls", "count"),
        ("proxy.fastforward.hit_ratio", "1"),
        ("proxy.fastforward.events_skipped", "count"),
        ("apps.profile.lammps.self_s", "s"),
        ("apps.profile.cosmoflow.self_s", "s"),
        ("appff.hit_ratio", "1"),
        ("parallel.pointcache.get_s", "s"),
        ("parallel.pointcache.put_s", "s"),
        ("cache.hits", "count"),
        ("cache.misses", "count"),
        ("cache.writes", "count"),
        ("apps.profilecache.get_s", "s"),
        ("apps.profilecache.put_s", "s"),
        ("profilecache.hits", "count"),
        ("profilecache.misses", "count"),
        ("proxy.surface_load_s", "s"),
        ("trace.store.events", "count"),
        ("trace.store.peak_bytes", "B"),
        ("trace.timeline.self_s", "s"),
        ("trace.analysis.self_s", "s"),
        ("model.bin_values.self_s", "s"),
        ("model.bin_values.calls", "count"),
        ("model.predict.self_s", "s"),
        ("model.predict.calls", "count"),
        ("serve.fit_s", "s"),
        ("serve.evaluate.self_s", "s"),
        ("serve.evaluate.calls", "count"),
        ("serve.evaluate.rows", "count"),
        ("serve.loop_self_s", "s"),
        ("serve.batch_size_mean", "count"),
        ("serve.batches", "count"),
        ("serve.queue_high_water", "count"),
        ("serve.refused", "count"),
        ("cdi.generate.self_s", "s"),
        ("cdi.run_fleet.cdi.self_s", "s"),
        ("cdi.run_fleet.traditional.self_s", "s"),
        ("cdi.placement.self_s", "s"),
        ("cdi.placement.calls", "count"),
        ("fleet.penalty_refusals", "count"),
        ("unattributed_s", "s"),
        ("trace_overhead_pct", "%"),
        ("cprofile_max_dev_pct", "%"),
    ]
)

_REPRODUCE = tuple(f"experiments.{eid}" for eid in EXPERIMENT_IDS)
_FLEET = (
    "cdi.generate", "cdi.run_fleet.cdi", "cdi.run_fleet.traditional",
    "cdi.placement",
)
#: Spans that must fire / must not fire, per workload. Set-up and
#: passes both count; the untimed harness phase does not.
EXPECTED: Dict[str, Dict[str, tuple]] = {
    "reproduce-cold": {
        "fire": _REPRODUCE + (
            "proxy.sweep", "proxy.calibration", "proxy.run_proxy",
            "parallel.executor", "parallel.pointcache.get",
            "parallel.pointcache.put", "apps.profile.lammps",
            "apps.profile.cosmoflow", "apps.profilecache.get",
            "apps.profilecache.put", "trace.analysis", "model.bin_values",
            "model.predict",
        ),
        "zero": _FLEET + ("proxy.surface_load", "serve.evaluate"),
    },
    "reproduce-warm": {
        "fire": _REPRODUCE + (
            "proxy.run_proxy", "proxy.surface_load", "apps.profilecache.get",
            "trace.analysis", "model.bin_values", "model.predict",
        ),
        "zero": _FLEET + (
            "proxy.sweep", "parallel.executor", "parallel.pointcache.put",
            "apps.profile.lammps", "apps.profile.cosmoflow",
            "apps.profilecache.put", "serve.evaluate",
        ),
    },
    "fleet-week": {
        "fire": _FLEET + ("proxy.surface_load", "serve.fit", "serve.evaluate"),
        "zero": _REPRODUCE + (
            "proxy.sweep", "proxy.run_proxy", "apps.profile.lammps",
            "apps.profile.cosmoflow", "model.predict",
        ),
    },
    "serve-closed": {
        "fire": ("proxy.surface_load", "serve.fit", "serve.evaluate"),
        "zero": _REPRODUCE + _FLEET + (
            "proxy.sweep", "proxy.run_proxy", "apps.profile.lammps",
            "apps.profile.cosmoflow", "model.predict",
        ),
    },
}


def _experiment_span(args, kwargs) -> str:
    return f"experiments.{args[0] if args else kwargs['experiment_id']}"


def _fleet_span(args, kwargs) -> str:
    mode = args[2] if len(args) > 2 else kwargs.get("mode", "cdi")
    return f"cdi.run_fleet.{mode}"


def _sweep_points(result) -> Dict[str, float]:
    timing = getattr(result, "timing", None)
    if timing is None:
        return {}
    return {
        "proxy.sweep.points": timing.grid_points,
        "proxy.sweep.cached": timing.cached,
    }


def _evaluated_rows(result) -> Dict[str, float]:
    return {"serve.evaluate.rows": len(result[0])}


def install(rec) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    fn, meth = rec.function, rec.method
    fn("repro.experiments.runner", "run_experiment", _experiment_span)
    fn("repro.proxy.sweep", "run_slack_sweep", "proxy.sweep", _sweep_points)
    fn("repro.proxy.calibration", "time_single_kernel", "proxy.calibration")
    fn("repro.proxy.calibration", "calibrate_iterations", "proxy.calibration")
    fn("repro.proxy.matmul", "run_proxy", "proxy.run_proxy")
    meth("repro.parallel.executor", "SweepExecutor", "run", "parallel.executor")
    meth("repro.parallel.pointcache", "PointCache", "get",
         "parallel.pointcache.get")
    meth("repro.parallel.pointcache", "PointCache", "put",
         "parallel.pointcache.put")
    fn("repro.apps.lammps.gpu_offload", "profile_lammps", "apps.profile.lammps")
    fn("repro.apps.cosmoflow.training", "profile_cosmoflow",
       "apps.profile.cosmoflow")
    meth("repro.apps.profilecache", "AppProfileCache", "get",
         "apps.profilecache.get")
    meth("repro.apps.profilecache", "AppProfileCache", "put",
         "apps.profilecache.put")
    meth("repro.proxy.response", "SlackResponseSurface", "from_json",
         "proxy.surface_load")
    fn("repro.trace.timeline", "device_gaps", "trace.timeline")
    fn("repro.trace.timeline", "utilization_series", "trace.timeline")
    fn("repro.trace.analysis", "kernel_duration_profile", "trace.analysis")
    fn("repro.trace.analysis", "memcpy_size_profile", "trace.analysis")
    fn("repro.model.binning", "bin_values", "model.bin_values")
    meth("repro.model.predictor", "CDIProfiler", "predict", "model.predict")
    meth("repro.model.predictor", "CDIProfiler", "predict_sweep",
         "model.predict")
    meth("repro.serve.surrogate", "SurrogateModel", "fit", "serve.fit")
    meth("repro.serve.surrogate", "SurrogateModel", "evaluate",
         "serve.evaluate", _evaluated_rows)
    fn("repro.cdi.fleet", "generate_fleet_jobs", "cdi.generate")
    fn("repro.cdi.fleet", "run_fleet", _fleet_span)
    for policy in ("place_pack", "place_spread", "place_locality"):
        fn("repro.cdi.placement", policy, "cdi.placement")


def raw_values(rec, registry, workload) -> Dict[str, float]:
    """One phase of a sample as additive quantities."""
    raw: Dict[str, float] = {}
    for name, st in rec.spans.items():
        raw[f"{name}.calls"] = st.calls
        raw[f"{name}.self_s"] = st.self_s
        raw[f"{name}.total_s"] = st.total_s
    raw.update(rec.counts)
    for name in OBS_COUNTERS:
        inst = registry.get(name)
        raw[name] = inst.value if inst is not None else 0.0
    peak = registry.get("trace.store.peak_bytes")
    raw["trace.store.peak_bytes"] = peak.value if peak is not None else 0.0
    raw.update(workload.extras)
    raw["spans.self_s"] = rec.total_self_s()
    return raw


def combine(setups: List[Dict[str, float]], passes: List[Dict[str, float]]):
    """The mean set-up plus the mean pass: what one of each costs."""
    out: Dict[str, float] = {}
    for group in (setups, passes):
        totals: Dict[str, float] = {}
        for raw in group:
            for key, value in raw.items():
                if key in MAX_KEYS:
                    out[key] = max(out.get(key, 0.0), value)
                else:
                    totals[key] = totals.get(key, 0.0) + value
        for key, total in totals.items():
            out[key] = out.get(key, 0.0) + total / len(group)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


#: Per-layer metrics read off a raw quantity of another name; every
#: other metric reads the quantity of its own name.
_RAW_NAME = {
    **{
        f"experiments.{eid}.wall_s": f"experiments.{eid}.total_s"
        for eid in EXPERIMENT_IDS
    },
    "parallel.pointcache.get_s": "parallel.pointcache.get.self_s",
    "parallel.pointcache.put_s": "parallel.pointcache.put.self_s",
    "apps.profilecache.get_s": "apps.profilecache.get.self_s",
    "apps.profilecache.put_s": "apps.profilecache.put.self_s",
    "proxy.surface_load_s": "proxy.surface_load.self_s",
    "serve.fit_s": "serve.fit.total_s",
}


def derive(raw: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metrics of one sample (``PER_LAYER`` names).

    ``unattributed_s``, ``trace_overhead_pct`` and
    ``cprofile_max_dev_pct`` compare samples, so the parent fills
    those in.
    """

    def g(key: str) -> float:
        return raw.get(key, 0.0)

    out = {name: g(_RAW_NAME.get(name, name)) for name, _unit in PER_LAYER}
    out["des.events_per_s"] = _ratio(
        g("des.events_dispatched"), g("proxy.run_proxy.self_s")
    )
    hits = g("proxy.fastforward.hits")
    out["proxy.fastforward.hit_ratio"] = _ratio(
        hits, hits + g("proxy.fastforward.fallbacks")
    )
    app_hits = g("appff.hits")
    out["appff.hit_ratio"] = _ratio(app_hits, app_hits + g("appff.fallbacks"))
    serve_wall = g("serve.pass_wall_s")
    out["serve.loop_self_s"] = (
        serve_wall - g("serve.evaluate.self_s") if serve_wall else 0.0
    )
    out["serve.batch_size_mean"] = _ratio(
        g("serve.requests"), g("serve.batches")
    )
    return out


def coverage_problems(workload: str, raw: Dict[str, float]) -> List[str]:
    """Spans that fired where none were predicted, or stayed silent."""
    table = EXPECTED[workload]
    problems = [
        f"{name}: no calls on {workload}"
        for name in table["fire"]
        if raw.get(f"{name}.calls", 0) == 0
    ]
    problems += [
        f"{name}: {raw[f'{name}.calls']:g} calls on {workload}, none expected"
        for name in table["zero"]
        if raw.get(f"{name}.calls", 0) != 0
    ]
    return problems
