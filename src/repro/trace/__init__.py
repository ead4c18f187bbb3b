"""Tracing and trace analysis — the simulator's NSight Systems.

Records kernel executions, memcpys and injected slack from the
simulated CUDA runtime, and produces the distribution profiles
(Figures 4 and 5) and queue-parallelism estimates the paper's
prediction model consumes.
"""

from .analysis import (
    DistributionProfile,
    ViolinSummary,
    kernel_duration_profile,
    launch_parallelism,
    memcpy_size_profile,
    summarize,
)
from .compare import KernelDelta, TraceComparison, compare_traces
from .events import CopyKind, EventKind, TraceEvent
from .export import from_csv, from_json, to_csv, to_json
from .store import ColumnStore, Trace
from .timeline import GapAnalysis, device_gaps, utilization_series
from .tracer import NullTracer, Tracer

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
