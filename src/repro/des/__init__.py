"""Discrete-event simulation kernel underpinning the CDI reproduction.

A compact process-based DES engine (SimPy-style): generators yield
events, an :class:`Environment` pops them off a heap in time order.
Everything above this layer — PCIe links, NICs, GPU engines, the slack
injector — is expressed as processes and resources from this package.
"""

from .._lazy import lazy_exports

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Condition",
    "AllOf",
    "AnyOf",
    "PENDING",
    "NORMAL",
    "URGENT",
    "SimulationError",
    "StopSimulation",
    "EmptySchedule",
    "Interrupt",
    "Resource",
    "PriorityResource",
    "Request",
    "PriorityRequest",
    "Release",
    "Preempted",
    "PreemptiveResource",
    "PreemptiveRequest",
    "Container",
    "Store",
    "Barrier",
    "FilterStore",
    "TimeSeriesMonitor",
    "UtilizationTracker",
    "IntervalRecord",
    "TICK_S",
    "quantize",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".core": (
            "Environment",
            "Event",
            "Timeout",
            "Process",
            "Condition",
            "AllOf",
            "AnyOf",
            "PENDING",
            "NORMAL",
            "URGENT",
        ),
        ".errors": (
            "SimulationError",
            "StopSimulation",
            "EmptySchedule",
            "Interrupt",
        ),
        ".resources": (
            "Resource",
            "PriorityResource",
            "Request",
            "PriorityRequest",
            "Release",
            "Preempted",
            "PreemptiveResource",
            "PreemptiveRequest",
            "Container",
            "Store",
            "Barrier",
            "FilterStore",
        ),
        ".monitor": (
            "TimeSeriesMonitor",
            "UtilizationTracker",
            "IntervalRecord",
        ),
        ".timebase": ("TICK_S", "quantize"),
    },
)
