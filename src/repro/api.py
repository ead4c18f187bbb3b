"""The stable public API of the reproduction.

``repro.api`` is the supported import surface: everything listed in
``__all__`` here follows the compatibility policy in
``docs/api.md`` — names are only removed after a deprecation cycle
(one release of ``DeprecationWarning``), sweep execution knobs have
one spelling (the :class:`SweepOptions` bundle, passed as
``options=``), and new releases may *add* names but never change the
meaning of existing ones.

**The front door is the serving layer.** Most consumers of this
reproduction want a penalty number, not a simulation:

    from repro.api import ExperimentContext, predict_penalty

    ctx = ExperimentContext(quick=True)
    penalty, bound = predict_penalty(2048, 1e-4, threads=2,
                                     surrogate=ctx.surrogate())

* :class:`SurrogateModel` — bounded-error vectorized interpolation
  over cached sweep points, exact parity with
  :class:`SlackResponseSurface` at measured points, typed refusals
  (:class:`SurrogateDomainError`) outside its validated domain.
* :class:`PenaltyService` — asyncio micro-batching service over a
  surrogate, with a bounded queue and an optional DES cold path
  (:class:`ColdPathConfig`) that measures refused queries for real
  and refines the surrogate online.
* :func:`predict_penalty` — the one-shot convenience
  (``rowscale-cdi predict`` on the command line, ``rowscale-cdi
  serve`` for the long-lived loop). See ``docs/serving.md``.

Beneath the serving layer, the measurement stack it is fit from:

sweeps & experiments
    :class:`ExperimentContext` (cached surface + app profiles; its
    :meth:`~repro.experiments.ExperimentContext.surrogate` bridges to
    the serving layer), :func:`run_slack_sweep`,
    :class:`SweepOptions` (the one bundle for the ``workers`` /
    ``cache`` / ``fast_forward`` / ``faults`` / ``adaptive`` / ``tol``
    knobs, accepted as ``options=`` by every sweep entry point),
    :class:`SweepResult`, :class:`SweepTiming`,
    :class:`SlackResponseSurface`, :func:`run_experiment`,
    :func:`run_all`, :class:`CDIProfiler`, :class:`SlackPrediction`.
simulation core
    :class:`Environment` (the DES engine), :class:`CudaRuntime`,
    :class:`KernelSpec`, :func:`matmul_kernel`, :class:`Trace` (the
    append-only columnar store behind every traced run — see
    ``docs/performance.md``), :class:`Tracer`.
hardware & network models
    :class:`GPUSpec`, :class:`NodeSpec`, the ``A100_SXM4_40GB`` /
    ``EPYC_7413`` / ``NARVAL_NODE`` catalog entries,
    :class:`SlackModel`, :class:`Fabric`, :class:`FabricSpec`,
    :func:`fibre_distance_for_latency`,
    :func:`latency_for_fibre_distance`.
proxy methodology
    :class:`ProxyConfig`, :class:`ProxyResult`, :func:`run_proxy`,
    :class:`FastForwardInfo` (the ``result.fastforward`` record of the
    steady-state fast-forward engine).
application models & registry
    :class:`LJParams`, :class:`LammpsScalingModel`,
    :class:`LammpsProfileConfig`, :func:`profile_lammps`,
    :class:`CosmoFlowProfileConfig`, :func:`profile_cosmoflow`,
    :class:`CpuOnlyProfileConfig` / :func:`profile_cpuonly`, the LLM
    inference-serving workload (:class:`LLMSpec`,
    :class:`InferenceProfileConfig`, :func:`run_inference` /
    :func:`profile_inference`, :func:`measure_slo_response` /
    :func:`predict_slo_response` for the latency-SLO penalty — see
    ``docs/workloads.md``), and the app registry
    (:class:`RegisteredApp`, :func:`get_app`, :func:`registered_apps`,
    :func:`app_names`) that ``ExperimentContext``, the CLI and the
    conformance tests enumerate workloads from.
fleet-scale CDI simulation
    :class:`ClusterSpec`, :class:`SimJob`, the scalar reference twins
    :func:`simulate_traditional` / :func:`simulate_cdi` and
    :func:`synthetic_job_mix`, plus the vectorized fleet engine:
    :class:`TenantSpec`, :class:`FleetConfig`,
    :func:`generate_fleet_jobs` (seeded tick-quantized multi-tenant
    Poisson streams), :func:`run_fleet` / :class:`FleetResult`
    (pointer-FIFO event core, bit-identical per-job metrics to the
    twins — :func:`assert_fleet_parity`), and
    :class:`FleetTopology` for pack/spread/locality GPU placement
    (see the fleet section of ``docs/performance.md``).
fault injection
    :class:`FaultPlan` and its event taxonomy (:class:`LatencySpike`,
    :class:`CongestionEpisode`, :class:`LinkFlap`,
    :class:`MessageLoss`, :class:`GpuStall`),
    :class:`FabricTimeoutError`, :func:`run_degraded_sweep`,
    :class:`DegradedSweepResult` — the ``faults=`` knob (see
    ``docs/faults.md``).
parallel execution & caching
    :class:`SweepExecutor`, :class:`PointCache`,
    :class:`AppProfileCache` (content-addressed traced-profile store,
    see ``docs/performance.md``).
multi-host sharding
    :class:`GridSpec`, :func:`run_sweep_shard`, :func:`merge_shards`,
    :class:`ShardCoordinator`, :func:`write_shard`,
    :func:`load_shard`, the compatibility digests
    :func:`faults_digest` / :func:`options_digest`, and the typed
    errors :class:`ShardMergeError` /
    :class:`ShardingUnsupportedError` — split one sweep grid across
    hosts and merge the artifacts byte-identically (see "Scaling out
    a sweep" in ``docs/performance.md``).
observability
    :class:`MetricsRegistry`, :class:`RunReport`,
    :func:`enable_metrics`, :func:`disable_metrics`,
    :func:`get_registry`, :func:`collecting` (the serving layer
    publishes under ``serve.*`` and reports ``kind="serve"``).

Every name resolves lazily (PEP 562, :mod:`repro._lazy`): reading it
imports its defining module once, so ``from repro.api import
predict_penalty`` loads the serving layer, not the simulator.

No deprecated aliases or legacy call forms remain; ``docs/api.md``
lists the removed spellings and their replacements.
"""

from __future__ import annotations

from . import __version__
from ._lazy import lazy_exports

__all__ = [
    "__version__",
    # serving (the front door)
    "SurrogateModel",
    "Prediction",
    "SurrogateDomainError",
    "PenaltyService",
    "ColdPathConfig",
    "ServiceOverloadedError",
    "predict_penalty",
    # sweeps & experiments
    "ExperimentContext",
    "run_experiment",
    "run_all",
    "run_slack_sweep",
    "SweepOptions",
    "SweepResult",
    "SweepTiming",
    "SlackResponseSurface",
    "CDIProfiler",
    "SlackPrediction",
    "PAPER_MATRIX_SIZES",
    "PAPER_SLACK_VALUES_S",
    "PAPER_THREAD_COUNTS",
    # simulation core
    "Environment",
    "CudaRuntime",
    "KernelSpec",
    "matmul_kernel",
    "Trace",
    "Tracer",
    # hardware & network models
    "GPUSpec",
    "NodeSpec",
    "A100_SXM4_40GB",
    "EPYC_7413",
    "NARVAL_NODE",
    "OutOfMemoryError",
    "SlackModel",
    "Fabric",
    "FabricSpec",
    "fibre_distance_for_latency",
    "latency_for_fibre_distance",
    # proxy methodology
    "ProxyConfig",
    "ProxyResult",
    "FastForwardInfo",
    "run_proxy",
    # application models & registry
    "LJParams",
    "LammpsScalingModel",
    "LammpsProfileConfig",
    "profile_lammps",
    "CosmoFlowProfileConfig",
    "profile_cosmoflow",
    "CpuOnlyProfileConfig",
    "profile_cpuonly",
    "LLMSpec",
    "InferenceProfileConfig",
    "InferenceRunResult",
    "SLOReport",
    "SLOResponse",
    "run_inference",
    "profile_inference",
    "measure_slo_response",
    "phase_profile",
    "predict_slo_response",
    "RegisteredApp",
    "PenaltyMetric",
    "register_app",
    "get_app",
    "registered_apps",
    "app_names",
    # fleet-scale CDI simulation
    "SimJob",
    "ClusterSpec",
    "simulate_traditional",
    "simulate_cdi",
    "synthetic_job_mix",
    "TenantSpec",
    "TenantStats",
    "FleetConfig",
    "FleetJobs",
    "FleetResult",
    "FleetTopology",
    "generate_fleet_jobs",
    "run_fleet",
    "assert_fleet_parity",
    # fault injection
    "FaultPlan",
    "LatencySpike",
    "CongestionEpisode",
    "LinkFlap",
    "MessageLoss",
    "GpuStall",
    "FabricTimeoutError",
    "run_degraded_sweep",
    "DegradedSweepResult",
    # parallel execution & caching
    "SweepExecutor",
    "PointCache",
    "AppProfileCache",
    # multi-host sharding
    "GridSpec",
    "SweepShard",
    "run_sweep_shard",
    "write_shard",
    "load_shard",
    "merge_shards",
    "ShardCoordinator",
    "ShardMergeStats",
    "ShardMergeError",
    "ShardingUnsupportedError",
    "faults_digest",
    "options_digest",
    # observability
    "MetricsRegistry",
    "RunReport",
    "enable_metrics",
    "disable_metrics",
    "get_registry",
    "collecting",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".serve.surrogate": (
            "SurrogateModel",
            "Prediction",
            "SurrogateDomainError",
        ),
        ".serve.service": (
            "PenaltyService",
            "ColdPathConfig",
            "ServiceOverloadedError",
            "predict_penalty",
        ),
        ".experiments.context": ("ExperimentContext",),
        ".experiments.runner": ("run_experiment", "run_all"),
        ".proxy.sweep": (
            "run_slack_sweep",
            "SweepResult",
            "SweepTiming",
            "PAPER_MATRIX_SIZES",
            "PAPER_SLACK_VALUES_S",
            "PAPER_THREAD_COUNTS",
        ),
        ".proxy.options": ("SweepOptions", "ShardingUnsupportedError"),
        ".proxy.response": ("SlackResponseSurface",),
        ".model.predictor": ("CDIProfiler", "SlackPrediction"),
        ".des.core": ("Environment",),
        ".gpusim.runtime": ("CudaRuntime",),
        ".gpusim.kernels": ("KernelSpec", "matmul_kernel"),
        ".trace.store": ("Trace",),
        ".trace.tracer": ("Tracer",),
        ".hw.specs": (
            "GPUSpec",
            "NodeSpec",
            "A100_SXM4_40GB",
            "EPYC_7413",
            "NARVAL_NODE",
        ),
        ".hw.memory": ("OutOfMemoryError",),
        ".network.slack": (
            "SlackModel",
            "fibre_distance_for_latency",
            "latency_for_fibre_distance",
        ),
        ".network.fabric": ("Fabric", "FabricSpec"),
        ".proxy.matmul": ("ProxyConfig", "ProxyResult", "run_proxy"),
        ".gpusim.flatcore": ("FastForwardInfo",),
        ".apps.lammps.lj": ("LJParams",),
        ".apps.lammps.scaling": ("LammpsScalingModel",),
        ".apps.lammps.gpu_offload": ("LammpsProfileConfig", "profile_lammps"),
        ".apps.cosmoflow.training": (
            "CosmoFlowProfileConfig",
            "profile_cosmoflow",
        ),
        ".apps.cpuonly": ("CpuOnlyProfileConfig", "profile_cpuonly"),
        ".apps.inference.llm": ("LLMSpec",),
        ".apps.inference.serving": (
            "InferenceProfileConfig",
            "InferenceRunResult",
            "SLOReport",
            "run_inference",
            "profile_inference",
        ),
        ".apps.inference.slo": (
            "SLOResponse",
            "measure_slo_response",
            "phase_profile",
            "predict_slo_response",
        ),
        ".apps.registry": (
            "RegisteredApp",
            "PenaltyMetric",
            "register_app",
            "get_app",
            "registered_apps",
            "app_names",
        ),
        ".cdi.simulation": (
            "SimJob",
            "ClusterSpec",
            "simulate_traditional",
            "simulate_cdi",
            "synthetic_job_mix",
        ),
        ".cdi.fleet": (
            "TenantSpec",
            "TenantStats",
            "FleetConfig",
            "FleetJobs",
            "FleetResult",
            "generate_fleet_jobs",
            "run_fleet",
            "assert_fleet_parity",
        ),
        ".cdi.placement": ("FleetTopology",),
        ".faults.plan": (
            "FaultPlan",
            "LatencySpike",
            "CongestionEpisode",
            "LinkFlap",
            "MessageLoss",
            "GpuStall",
        ),
        ".faults.runtime": ("FabricTimeoutError",),
        ".faults.degraded": ("run_degraded_sweep", "DegradedSweepResult"),
        ".parallel.executor": ("SweepExecutor",),
        ".parallel.pointcache": ("PointCache",),
        ".apps.profilecache": ("AppProfileCache",),
        ".parallel.shards": (
            "GridSpec",
            "SweepShard",
            "run_sweep_shard",
            "write_shard",
            "load_shard",
            "merge_shards",
            "ShardCoordinator",
            "ShardMergeStats",
            "ShardMergeError",
            "faults_digest",
            "options_digest",
        ),
        ".obs.metrics": (
            "MetricsRegistry",
            "enable_metrics",
            "disable_metrics",
            "get_registry",
            "collecting",
        ),
        ".obs.report": ("RunReport",),
    },
)
