"""Deterministic fabric fault injection (``repro.faults``).

The paper evaluates row-scale disaggregation on a *healthy* fabric.
This package models the unhealthy one: seeded, fully deterministic
fault plans (latency spikes, congestion episodes, link flaps, message
loss with retry/backoff/timeout, transient GPU stalls) that any
simulation entry point accepts via ``faults=`` and that the sweep
layer turns into degraded-mode response surfaces.

* :mod:`repro.faults.plan` — the declarative layer:
  :class:`FaultPlan` / the :data:`FaultEvent` taxonomy, the CLI spec
  DSL, JSON serialization, cache keying.
* :mod:`repro.faults.runtime` — the per-simulation
  :class:`FaultInjector` (compiled by :meth:`FaultPlan.compile`) and
  :class:`FabricTimeoutError`.
* :mod:`repro.faults.degraded` — :func:`run_degraded_sweep`, the
  penalty-vs-slack-vs-fault-intensity surface.

See ``docs/faults.md`` for the taxonomy, the spec format, and the
determinism guarantees.
"""

from .._lazy import lazy_exports

__all__ = [
    "FaultPlan",
    "FaultEvent",
    "LatencySpike",
    "CongestionEpisode",
    "LinkFlap",
    "MessageLoss",
    "GpuStall",
    "FaultInjector",
    "FabricTimeoutError",
    "DegradedSweepResult",
    "run_degraded_sweep",
    "parse_seconds",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".plan": (
            "FaultPlan",
            "FaultEvent",
            "LatencySpike",
            "CongestionEpisode",
            "LinkFlap",
            "MessageLoss",
            "GpuStall",
            "parse_seconds",
        ),
        ".runtime": ("FaultInjector", "FabricTimeoutError"),
        ".degraded": ("DegradedSweepResult", "run_degraded_sweep"),
    },
)
