"""Observability: unified metrics and run reports for every layer.

The reproduction's argument rests on measuring where time goes when
slack is injected (GPU starvation vs. admissible delay, Equation 1),
and its engineering rests on keeping the DES hot path fast. This
package gives both a first-class, *uniform* measurement surface:

* :mod:`repro.obs.metrics` — counters, gauges, histograms and timers
  behind a :class:`MetricsRegistry`. Disabled by default with a
  near-zero-cost no-op path; enable per scope with :func:`collecting`
  or process-wide with :func:`enable_metrics`.
* :mod:`repro.obs.publish` — pull-style snapshot publication from the
  DES kernel (events dispatched, heap depth, callback free pool), the
  GPU runtime (kernel launches, memcpy bytes by direction, stream
  occupancy), the fabric emulation point (slack calls and injected
  seconds, link bytes and queueing delay), and the parallel sweep
  engine (worker utilization, cache hit/miss split).
* :mod:`repro.obs.report` — :class:`RunReport`, the stable JSON +
  human-table artifact every instrumented sweep/experiment run emits
  (``rowscale-cdi ... --metrics-out report.json``; render one with
  ``rowscale-cdi metrics report.json``).

Metric names are dotted ``section.metric``; the sections are the
publishing layers (``des``, ``gpu``, ``fabric``, ``cache``,
``executor``, ``sweep``, ``experiments``, ``serve`` — the penalty
service publishes its request/batch/cold-path counters through
:func:`publish_service`).
"""

from .._lazy import lazy_exports

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Timer",
    "MetricsRegistry",
    "NullRegistry",
    "collecting",
    "enable_metrics",
    "disable_metrics",
    "get_registry",
    "metrics_enabled",
    "simulation_snapshot",
    "publish_snapshot",
    "publish_executor",
    "publish_fleet",
    "publish_inference",
    "publish_link",
    "publish_nic",
    "publish_service",
    "publish_trace_store",
    "RunReport",
    "RUN_REPORT_SCHEMA_VERSION",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".metrics": (
            "Counter",
            "Gauge",
            "Histogram",
            "Timer",
            "MetricsRegistry",
            "NullRegistry",
            "collecting",
            "enable_metrics",
            "disable_metrics",
            "get_registry",
            "metrics_enabled",
        ),
        ".publish": (
            "simulation_snapshot",
            "publish_snapshot",
            "publish_executor",
            "publish_fleet",
            "publish_inference",
            "publish_link",
            "publish_nic",
            "publish_service",
            "publish_trace_store",
        ),
        ".report": ("RunReport", "RUN_REPORT_SCHEMA_VERSION"),
    },
)
