"""rowscale-cdi: reproduction of "Examining the Viability of Row-Scale
Disaggregation for Production Applications" (Shorts & Grant, SC 2024).

A discrete-event GPU/network simulator, the paper's slack-injection
proxy methodology, mechanistic LAMMPS and CosmoFlow workload models,
and the analytic slack-penalty prediction model (Equations 1-3) —
plus per-table/figure experiment runners.

Quickstart
----------
>>> from repro import ProxyConfig, run_proxy, SlackModel
>>> base = run_proxy(ProxyConfig(matrix_size=4096, iterations=10))
>>> slowed = run_proxy(ProxyConfig(matrix_size=4096, iterations=10),
...                    SlackModel(100e-6))
>>> penalty = slowed.corrected_runtime_s / base.loop_runtime_s - 1

See ``examples/`` for complete scenarios and ``repro.experiments`` for
the per-paper-artifact runners. The *supported* import surface — the
names covered by the deprecation policy — is :mod:`repro.api`.
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "Environment",
    "CudaRuntime",
    "KernelSpec",
    "matmul_kernel",
    "GPUSpec",
    "NodeSpec",
    "A100_SXM4_40GB",
    "EPYC_7413",
    "NARVAL_NODE",
    "SlackModel",
    "Fabric",
    "FabricSpec",
    "fibre_distance_for_latency",
    "latency_for_fibre_distance",
    "Trace",
    "Tracer",
    "ProxyConfig",
    "ProxyResult",
    "run_proxy",
    "run_slack_sweep",
    "SweepExecutor",
    "PointCache",
    "SlackResponseSurface",
    "LJParams",
    "LammpsScalingModel",
    "LammpsProfileConfig",
    "profile_lammps",
    "CosmoFlowProfileConfig",
    "profile_cosmoflow",
    "CDIProfiler",
    "SlackPrediction",
    "ExperimentContext",
    "run_experiment",
    "run_all",
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
        ".des.core": ("Environment",),
        ".gpusim.runtime": ("CudaRuntime",),
        ".gpusim.kernels": ("KernelSpec", "matmul_kernel"),
        ".hw.specs": (
            "GPUSpec",
            "NodeSpec",
            "A100_SXM4_40GB",
            "EPYC_7413",
            "NARVAL_NODE",
        ),
        ".network.slack": (
            "SlackModel",
            "fibre_distance_for_latency",
            "latency_for_fibre_distance",
        ),
        ".network.fabric": ("Fabric", "FabricSpec"),
        ".trace.store": ("Trace",),
        ".trace.tracer": ("Tracer",),
        ".proxy.matmul": ("ProxyConfig", "ProxyResult", "run_proxy"),
        ".proxy.sweep": ("run_slack_sweep",),
        ".parallel.executor": ("SweepExecutor",),
        ".parallel.pointcache": ("PointCache",),
        ".proxy.response": ("SlackResponseSurface",),
        ".apps.lammps.lj": ("LJParams",),
        ".apps.lammps.scaling": ("LammpsScalingModel",),
        ".apps.lammps.gpu_offload": ("LammpsProfileConfig", "profile_lammps"),
        ".apps.cosmoflow.training": (
            "CosmoFlowProfileConfig",
            "profile_cosmoflow",
        ),
        ".model.predictor": ("CDIProfiler", "SlackPrediction"),
        ".experiments.context": ("ExperimentContext",),
        ".experiments.runner": ("run_experiment", "run_all"),
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
