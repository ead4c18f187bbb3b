"""Timeline analysis: device idle gaps and utilization from traces.

Slack hurts by *uncovering* idle gaps the GPU's work queue normally
hides. This module extracts exactly that quantity from a trace: the
gaps between consecutive device activities (kernels + memcpys), their
distribution, and a windowed utilization series — the evidence one
reads off an NSys timeline when diagnosing a starved GPU.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .store import Trace
from .events import EventKind

__all__ = ["GapAnalysis", "device_gaps", "utilization_series"]


@dataclass(frozen=True)
class GapAnalysis:
    """Summary of the idle gaps between device activities."""

    gaps: Tuple[float, ...]
    busy_time: float
    span: float

    @property
    def count(self) -> int:
        """Number of inter-activity gaps."""
        return len(self.gaps)

    @property
    def total_gap_time(self) -> float:
        """Summed idle-gap time."""
        return float(sum(self.gaps))

    @property
    def mean_gap(self) -> float:
        """Mean gap length (0 if there are none)."""
        return self.total_gap_time / self.count if self.gaps else 0.0

    @property
    def max_gap(self) -> float:
        """Longest single gap."""
        return max(self.gaps) if self.gaps else 0.0

    @property
    def utilization(self) -> float:
        """Device-busy fraction over the trace span."""
        return self.busy_time / self.span if self.span > 0 else 0.0

    def gaps_exceeding(self, threshold_s: float) -> int:
        """Gaps longer than ``threshold_s`` (starvation candidates)."""
        if threshold_s < 0:
            raise ValueError("threshold_s must be non-negative")
        return sum(1 for g in self.gaps if g > threshold_s)


def device_gaps(trace: Trace, min_gap_s: float = 0.0) -> GapAnalysis:
    """Extract the idle gaps between consecutive device activities.

    Device activity = kernel executions plus memcpys. Gaps shorter
    than ``min_gap_s`` are ignored (sub-resolution turnaround).

    Vectorized: in the sorted interval-merge, the running ``cur_end``
    equals the running maximum of the end times, so merged-run breaks
    fall exactly where ``start[i] > max(end[:i])``. Gap values and the
    per-run busy parts are computed as column operations; the busy sum
    is accumulated in run order, bit-identical to the scalar merge loop
    (``device_gaps_reference`` in ``tests/oracles/trace.py``).
    """
    if min_gap_s < 0:
        raise ValueError("min_gap_s must be non-negative")
    device = trace.of_kinds(EventKind.KERNEL, EventKind.MEMCPY)
    if len(device) == 0:
        raise ValueError("trace has no device activity")
    starts = device.starts()
    runmax = np.maximum.accumulate(device.ends())
    break_at = np.flatnonzero(starts[1:] > runmax[:-1]) + 1
    gap_vals = starts[break_at] - runmax[break_at - 1]
    gaps = tuple(float(g) for g in gap_vals[gap_vals > min_gap_s])
    firsts = np.concatenate(([0], break_at))
    lasts = np.concatenate((break_at - 1, [starts.size - 1]))
    busy = 0.0
    for part in (runmax[lasts] - starts[firsts]).tolist():
        busy += part
    return GapAnalysis(gaps=gaps, busy_time=busy, span=device.span)


def utilization_series(
    trace: Trace, window_s: float, kind: Optional[EventKind] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Windowed device utilization over the trace.

    Returns ``(window_centres, busy_fraction)``. ``kind`` restricts to
    one activity type (e.g. only kernels).

    Vectorized: each event's window overlaps are expanded into one
    flat (event, window) contribution array and accumulated with
    ``np.add.at`` (unbuffered, applied in array order), so every float
    lands in ``busy`` through the same operations in the same order as
    the scalar nested loop (``utilization_series_reference`` in
    ``tests/oracles/trace.py``).
    """
    if window_s <= 0:
        raise ValueError("window_s must be positive")
    if kind is None:
        selected = trace.of_kinds(EventKind.KERNEL, EventKind.MEMCPY)
    else:
        selected = trace.of_kinds(kind)
    if len(selected) == 0:
        raise ValueError("no matching activity in trace")
    start, end = selected.start, selected.end
    n_windows = max(1, int(np.ceil((end - start) / window_s)))
    ev_start = selected.starts()
    ev_end = selected.ends()
    first = ((ev_start - start) / window_s).astype(np.int64)
    last = np.minimum(
        (ev_end - start) / window_s, float(n_windows - 1)
    ).astype(np.int64)
    counts = np.maximum(last - first + 1, 0)
    total = int(counts.sum())
    busy = np.zeros(n_windows)
    if total:
        # Flat (event, window) expansion: for each event, the window
        # indices first..last, concatenated in event order — the exact
        # visit order of the scalar nested loop.
        offsets = np.arange(total) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        w = np.repeat(first, counts) + offsets
        w_start = start + w * window_s
        w_end = w_start + window_s
        contrib = np.maximum(
            0.0,
            np.minimum(np.repeat(ev_end, counts), w_end)
            - np.maximum(np.repeat(ev_start, counts), w_start),
        )
        np.add.at(busy, w, contrib)
    centres = start + (np.arange(n_windows) + 0.5) * window_s
    return centres, np.minimum(1.0, busy / window_s)
