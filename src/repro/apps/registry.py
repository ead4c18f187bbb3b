"""The application registry: one catalogue of profileable workloads.

Every production workload the reproduction models registers here under
a stable name, with a uniform profiler signature::

    profiler(config, slack=None, *, fast_forward=None, faults=None)
        -> AppProfile

so :class:`~repro.experiments.ExperimentContext`, the CLI's
``--app``/``profile`` choices and the cross-app conformance suite
enumerate workloads from one source of truth instead of hard-coded
pairs. Each entry also carries:

* ``model_version`` — bumped whenever the app's kernel mix or timing
  model changes; it joins the :class:`~repro.apps.AppProfileCache`
  digest so a revised workload can never alias its stale cached
  profiles (the cache-wide ``PROFILE_CACHE_VERSION`` stays for
  simulator-wide changes);
* ``default_config(quick)`` — the experiment-grade configuration
  (``quick=True`` is the shortened CI variant, exactly what
  ``ExperimentContext`` has always built);
* ``conformance_config()`` — a deliberately tiny configuration the
  conformance suite can run repeatedly;
* ``penalty`` — which penalty semantics the workload's slack response
  carries: classic normalized-runtime, a latency SLO, or none (the
  CPU-only category).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Tuple

from .base import AppProfile

__all__ = [
    "PenaltyMetric",
    "RegisteredApp",
    "register_app",
    "get_app",
    "registered_apps",
    "app_names",
    "app_model_version",
]

#: Penalty-metric kinds a workload can declare.
PENALTY_KINDS = ("runtime", "latency-slo", "none")


@dataclass(frozen=True)
class PenaltyMetric:
    """How a workload's slack penalty is scored."""

    kind: str
    description: str = ""

    def __post_init__(self) -> None:
        if self.kind not in PENALTY_KINDS:
            raise ValueError(
                f"penalty kind {self.kind!r} not in {PENALTY_KINDS}"
            )


@dataclass(frozen=True)
class RegisteredApp:
    """One workload's registry entry."""

    name: str
    #: App-model version; joins the profile-cache digest.
    model_version: str
    config_type: type
    profiler: Callable[..., AppProfile]
    #: ``quick: bool -> config`` — the experiment-grade configuration.
    default_config: Callable[[bool], Any]
    #: ``() -> config`` — a tiny configuration for conformance tests.
    conformance_config: Callable[[], Any]
    penalty: PenaltyMetric
    description: str = ""


_REGISTRY: Dict[str, RegisteredApp] = {}


def register_app(app: RegisteredApp) -> RegisteredApp:
    """Add one workload to the registry (unique by name)."""
    if app.name in _REGISTRY:
        raise ValueError(f"app {app.name!r} already registered")
    _REGISTRY[app.name] = app
    return app


def get_app(name: str) -> RegisteredApp:
    """Look up one registered workload by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown app {name!r}; registered: {', '.join(app_names())}"
        ) from None


def registered_apps() -> Tuple[RegisteredApp, ...]:
    """Every registered workload, sorted by name."""
    return tuple(_REGISTRY[name] for name in app_names())


def app_names() -> Tuple[str, ...]:
    """Registered workload names, sorted."""
    return tuple(sorted(_REGISTRY))


def app_model_version(name: str) -> str:
    """The app-model version joining the profile-cache digest.

    Unregistered names (profiles cached by external callers under
    their own keys) version as ``"unregistered"`` — still a stable
    digest component, just not a tracked one.
    """
    app = _REGISTRY.get(name)
    return app.model_version if app is not None else "unregistered"


def _register_builtin_apps() -> None:
    """Register the reproduction's own workloads (import-time)."""
    from .cosmoflow.training import CosmoFlowProfileConfig, profile_cosmoflow
    from .cpuonly import CpuOnlyProfileConfig, profile_cpuonly
    from .inference.serving import InferenceProfileConfig, profile_inference
    from .lammps.gpu_offload import LammpsProfileConfig, profile_lammps
    from .lammps.lj import LJParams

    def lammps_default(quick: bool) -> LammpsProfileConfig:
        return LammpsProfileConfig(
            params=LJParams(120, steps=500 if quick else 5000)
        )

    register_app(
        RegisteredApp(
            name="lammps",
            model_version="1",
            config_type=LammpsProfileConfig,
            profiler=profile_lammps,
            default_config=lammps_default,
            conformance_config=lambda: LammpsProfileConfig(
                params=LJParams(120, steps=40)
            ),
            penalty=PenaltyMetric(
                kind="runtime",
                description="normalized timestep-loop runtime",
            ),
            description="LAMMPS LJ benchmark, GPU-package offload",
        )
    )

    def cosmoflow_default(quick: bool) -> CosmoFlowProfileConfig:
        if quick:
            return CosmoFlowProfileConfig(
                epochs=1, train_samples=256, val_samples=256
            )
        return CosmoFlowProfileConfig()

    register_app(
        RegisteredApp(
            name="cosmoflow",
            model_version="1",
            config_type=CosmoFlowProfileConfig,
            profiler=profile_cosmoflow,
            default_config=cosmoflow_default,
            conformance_config=lambda: CosmoFlowProfileConfig(
                epochs=1, train_samples=64, val_samples=32
            ),
            penalty=PenaltyMetric(
                kind="runtime",
                description="normalized epoch runtime",
            ),
            description="CosmoFlow 3D-CNN training",
        )
    )

    register_app(
        RegisteredApp(
            name="cpuonly",
            model_version="1",
            config_type=CpuOnlyProfileConfig,
            profiler=profile_cpuonly,
            default_config=lambda quick: CpuOnlyProfileConfig(
                iterations=50 if quick else 500
            ),
            conformance_config=lambda: CpuOnlyProfileConfig(iterations=20),
            penalty=PenaltyMetric(
                kind="none",
                description="no accelerator, no slack exposure",
            ),
            description="CPU-only stencil solver (Sec III-D)",
        )
    )

    def inference_default(quick: bool) -> InferenceProfileConfig:
        return InferenceProfileConfig(
            num_requests=24 if quick else 128
        )

    register_app(
        RegisteredApp(
            name="inference",
            model_version="1",
            config_type=InferenceProfileConfig,
            profiler=profile_inference,
            default_config=inference_default,
            conformance_config=lambda: InferenceProfileConfig(
                num_requests=8,
                prompt_tokens_mean=64,
                decode_tokens_mean=12,
            ),
            penalty=PenaltyMetric(
                kind="latency-slo",
                description="p99 TTFT and mean TPOT inflation vs "
                "zero-slack baseline",
            ),
            description="LLM inference serving, dynamic batching",
        )
    )


_register_builtin_apps()
