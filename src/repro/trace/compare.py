"""Trace comparison: where did a slack run lose its time?

Diffs two traces of the same workload (typically a zero-slack baseline
against a slack-injected run): per-kernel-name duration ratios, device
idle-gap growth, and an attribution of the wall-clock delta to direct
slack vs starvation vs everything else. This is the diagnosis view an
operator uses after the prediction model flags a workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from .store import Trace
from .events import EventKind
from .timeline import device_gaps

__all__ = ["KernelDelta", "TraceComparison", "compare_traces"]


@dataclass(frozen=True)
class KernelDelta:
    """Duration change of one kernel name between two traces."""

    name: str
    baseline_mean_s: float
    other_mean_s: float
    baseline_count: int
    other_count: int

    @property
    def ratio(self) -> float:
        """Other over baseline mean duration."""
        if self.baseline_mean_s <= 0:
            return float("inf")
        return self.other_mean_s / self.baseline_mean_s


@dataclass
class TraceComparison:
    """The full diff between a baseline and another trace."""

    baseline_span_s: float
    other_span_s: float
    kernel_deltas: List[KernelDelta] = field(default_factory=list)
    direct_slack_s: float = 0.0
    starvation_s: float = 0.0
    baseline_mean_gap_s: float = 0.0
    other_mean_gap_s: float = 0.0

    @property
    def wall_delta_s(self) -> float:
        """Total wall-clock growth."""
        return self.other_span_s - self.baseline_span_s

    @property
    def unattributed_s(self) -> float:
        """Wall growth not explained by slack or starvation."""
        return self.wall_delta_s - self.direct_slack_s - self.starvation_s

    @property
    def gap_growth(self) -> float:
        """Mean device idle gap: other over baseline."""
        if self.baseline_mean_gap_s <= 0:
            return float("inf") if self.other_mean_gap_s > 0 else 1.0
        return self.other_mean_gap_s / self.baseline_mean_gap_s

    def delta(self, name: str) -> KernelDelta:
        """Look up one kernel's delta by name."""
        for d in self.kernel_deltas:
            if d.name == name:
                return d
        raise KeyError(name)


def compare_traces(baseline: Trace, other: Trace) -> TraceComparison:
    """Diff ``other`` (e.g. a slack run) against ``baseline``.

    Both traces must contain device activity. Kernel names present in
    only one trace are still reported (with zero mean/count on the
    missing side).
    """
    base_kernels = baseline.kernels()
    other_kernels = other.kernels()
    if len(base_kernels) == 0 or len(other_kernels) == 0:
        raise ValueError("both traces need kernel activity")

    base_groups = base_kernels.by_name()
    other_groups = other_kernels.by_name()
    deltas: List[KernelDelta] = []
    for name in sorted(set(base_groups) | set(other_groups)):
        b = base_groups.get(name)
        o = other_groups.get(name)
        deltas.append(
            KernelDelta(
                name=name,
                baseline_mean_s=float(b.durations().mean()) if b else 0.0,
                other_mean_s=float(o.durations().mean()) if o else 0.0,
                baseline_count=len(b) if b else 0,
                other_count=len(o) if o else 0,
            )
        )

    direct = other.of_kinds(EventKind.SLACK).total_time()
    starvation = float(
        sum(
            e.meta.get("starvation_cost", 0.0)
            for e in other_kernels
        )
    ) - float(
        sum(e.meta.get("starvation_cost", 0.0) for e in base_kernels)
    )

    return TraceComparison(
        baseline_span_s=baseline.span,
        other_span_s=other.span,
        kernel_deltas=deltas,
        direct_slack_s=direct,
        starvation_s=max(0.0, starvation),
        baseline_mean_gap_s=device_gaps(baseline).mean_gap,
        other_mean_gap_s=device_gaps(other).mean_gap,
    )
