"""Tracing and trace analysis — the simulator's NSight Systems.

Records kernel executions, memcpys and injected slack from the
simulated CUDA runtime, and produces the distribution profiles
(Figures 4 and 5) and queue-parallelism estimates the paper's
prediction model consumes.
"""

from .._lazy import lazy_exports

__all__ = [
    "Trace",
    "ColumnStore",
    "TraceEvent",
    "EventKind",
    "CopyKind",
    "Tracer",
    "NullTracer",
    "ViolinSummary",
    "DistributionProfile",
    "summarize",
    "kernel_duration_profile",
    "memcpy_size_profile",
    "launch_parallelism",
    "to_json",
    "from_json",
    "to_csv",
    "from_csv",
    "GapAnalysis",
    "device_gaps",
    "utilization_series",
    "KernelDelta",
    "TraceComparison",
    "compare_traces",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".store": ("Trace", "ColumnStore"),
        ".events": ("TraceEvent", "EventKind", "CopyKind"),
        ".tracer": ("Tracer", "NullTracer"),
        ".analysis": (
            "ViolinSummary",
            "DistributionProfile",
            "summarize",
            "kernel_duration_profile",
            "memcpy_size_profile",
            "launch_parallelism",
        ),
        ".export": ("to_json", "from_json", "to_csv", "from_csv"),
        ".timeline": ("GapAnalysis", "device_gaps", "utilization_series"),
        ".compare": ("KernelDelta", "TraceComparison", "compare_traces"),
    },
)
