"""List-backed reference forms of the trace store and its analysis.

:class:`repro.trace.Trace` holds events as numpy columns and computes
every summary as a column operation. :class:`ScalarTrace` is the
straightforward form: a Python list of :class:`TraceEvent` objects,
sorted lazily, with each summary a loop over them.
:func:`device_gaps_reference` and :func:`utilization_series_reference`
are the loop forms of :func:`repro.trace.device_gaps` and
:func:`repro.trace.utilization_series`, and :func:`jittered_reference`
is the per-event loop the self-validation jitter
(``repro.model.validation._proxy_profile``) replaces with whole-column
draws. The parity tests (``tests/trace/test_store.py``,
``tests/model/test_validation_jitter.py``), the golden scalar-parity
test and ``benchmarks/bench_trace.py`` compare the product against
them bit for bit. :func:`events_in_record_order` reads a trace's rows
back in the order they were appended, which the store's round-trip
tests compare (iteration is time-sorted, so it hides that order).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.trace import CopyKind, EventKind, GapAnalysis, Trace, TraceEvent

__all__ = [
    "ScalarTrace",
    "device_gaps_reference",
    "events_in_record_order",
    "jittered_reference",
    "utilization_series_reference",
]


class ScalarTrace:
    """A time-sorted sequence of :class:`TraceEvent` kept in a list.

    Events may be appended while tracing; analysis methods sort
    lazily. All durations are simulated seconds, sizes are bytes.
    """

    def __init__(
        self, events: Optional[Iterable[TraceEvent]] = None, name: str = ""
    ) -> None:
        self.name = name
        self._events: List[TraceEvent] = list(events) if events else []
        self._sorted = False

    # -- collection protocol ---------------------------------------------------
    def append(self, event: TraceEvent) -> None:
        """Add an event (invalidates sort order)."""
        self._events.append(event)
        self._sorted = False

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        self._ensure_sorted()
        return iter(self._events)

    def __getitem__(self, idx: int) -> TraceEvent:
        self._ensure_sorted()
        return self._events[idx]

    def _ensure_sorted(self) -> None:
        if not self._sorted:
            self._events.sort(key=lambda e: (e.start, e.end))
            self._sorted = True

    # -- filtered views ----------------------------------------------------------
    def filter(self, predicate: Callable[[TraceEvent], bool]) -> "ScalarTrace":
        """A new trace containing events satisfying ``predicate``."""
        self._ensure_sorted()
        return ScalarTrace(
            (e for e in self._events if predicate(e)), name=self.name
        )

    def of_kinds(self, *kinds: EventKind) -> "ScalarTrace":
        """Only events whose kind is one of ``kinds``."""
        return self.filter(lambda e: e.kind in kinds)

    def count_kind(self, kind: EventKind) -> int:
        """Number of events of ``kind`` (no sorting required)."""
        return sum(1 for e in self._events if e.kind is kind)

    def kernels(self) -> "ScalarTrace":
        """Only kernel-execution events."""
        return self.filter(lambda e: e.kind is EventKind.KERNEL)

    def memcpys(self, direction: Optional[CopyKind] = None) -> "ScalarTrace":
        """Only memcpy events, optionally a single direction."""
        if direction is None:
            return self.filter(lambda e: e.kind is EventKind.MEMCPY)
        return self.filter(
            lambda e: e.kind is EventKind.MEMCPY and e.copy_kind is direction
        )

    def by_name(self) -> Dict[str, "ScalarTrace"]:
        """Group events into one trace per event name."""
        groups: Dict[str, List[TraceEvent]] = defaultdict(list)
        for e in self:
            groups[e.name].append(e)
        return {
            name: ScalarTrace(evts, name=name) for name, evts in groups.items()
        }

    def threads(self) -> List[int]:
        """Distinct issuing host threads."""
        return sorted({e.thread for e in self._events})

    # -- scalar summaries ----------------------------------------------------------
    @property
    def start(self) -> float:
        """Earliest event start (0 for an empty trace)."""
        if not self._events:
            return 0.0
        return min(e.start for e in self._events)

    @property
    def end(self) -> float:
        """Latest event end (0 for an empty trace)."""
        if not self._events:
            return 0.0
        return max(e.end for e in self._events)

    @property
    def span(self) -> float:
        """Wall-clock extent covered by the trace."""
        return self.end - self.start

    def starts(self) -> np.ndarray:
        """Array of event start times, in trace order."""
        self._ensure_sorted()
        return np.asarray([e.start for e in self._events], dtype=float)

    def ends(self) -> np.ndarray:
        """Array of event end times, in trace order."""
        self._ensure_sorted()
        return np.asarray([e.end for e in self._events], dtype=float)

    def durations(self) -> np.ndarray:
        """Array of event durations, in trace order."""
        self._ensure_sorted()
        return np.asarray([e.duration for e in self._events], dtype=float)

    def sizes(self) -> np.ndarray:
        """Array of event byte counts, in trace order."""
        self._ensure_sorted()
        return np.asarray([e.nbytes for e in self._events], dtype=float)

    def total_time(self) -> float:
        """Sum of event durations (double-counts overlap)."""
        return float(self.durations().sum()) if self._events else 0.0

    def busy_time(self) -> float:
        """Union length of the event intervals (no double counting)."""
        if not self._events:
            return 0.0
        self._ensure_sorted()
        busy = 0.0
        cur_start, cur_end = self._events[0].start, self._events[0].end
        for e in self._events[1:]:
            if e.start > cur_end:
                busy += cur_end - cur_start
                cur_start, cur_end = e.start, e.end
            else:
                cur_end = max(cur_end, e.end)
        busy += cur_end - cur_start
        return busy

    def runtime_fraction(self, total_runtime: Optional[float] = None) -> float:
        """Fraction of the run spent in these events (union time)."""
        total = self.span if total_runtime is None else total_runtime
        if total <= 0:
            return 0.0
        return min(1.0, self.busy_time() / total)

    def top_names_by_total_time(self, n: int = 5) -> List[str]:
        """The ``n`` event names with the largest summed duration."""
        totals = {
            name: tr.total_time() for name, tr in self.by_name().items()
        }
        return [
            name
            for name, _ in sorted(totals.items(), key=lambda kv: -kv[1])[:n]
        ]

    def max_concurrency(self) -> int:
        """Maximum number of simultaneously-open intervals."""
        if not self._events:
            return 0
        points: List[Tuple[float, int]] = []
        for e in self._events:
            points.append((e.start, 1))
            points.append((e.end, -1))
        points.sort(key=lambda p: (p[0], p[1]))
        depth = best = 0
        for _, delta in points:
            depth += delta
            best = max(best, depth)
        return best


def events_in_record_order(trace: Trace) -> List[TraceEvent]:
    """``trace``'s events in append order (not time-sorted)."""
    store = trace._store
    return [store.event_at(int(i)) for i in trace._rows()]


def device_gaps_reference(
    trace: ScalarTrace, min_gap_s: float = 0.0
) -> GapAnalysis:
    """Scalar interval-merge form of :func:`repro.trace.device_gaps`."""
    if min_gap_s < 0:
        raise ValueError("min_gap_s must be non-negative")
    device = trace.filter(
        lambda e: e.kind in (EventKind.KERNEL, EventKind.MEMCPY)
    )
    if len(device) == 0:
        raise ValueError("trace has no device activity")
    gaps: List[float] = []
    busy = 0.0
    cur_start, cur_end = device[0].start, device[0].end
    for e in list(device)[1:]:
        if e.start > cur_end:
            gap = e.start - cur_end
            if gap > min_gap_s:
                gaps.append(gap)
            busy += cur_end - cur_start
            cur_start, cur_end = e.start, e.end
        else:
            cur_end = max(cur_end, e.end)
    busy += cur_end - cur_start
    return GapAnalysis(gaps=tuple(gaps), busy_time=busy, span=device.span)


def utilization_series_reference(
    trace: ScalarTrace, window_s: float, kind: Optional[EventKind] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Nested-loop form of :func:`repro.trace.utilization_series`."""
    if window_s <= 0:
        raise ValueError("window_s must be positive")
    selected = trace.filter(
        lambda e: e.kind in (EventKind.KERNEL, EventKind.MEMCPY)
        if kind is None
        else e.kind is kind
    )
    if len(selected) == 0:
        raise ValueError("no matching activity in trace")
    start, end = selected.start, selected.end
    n_windows = max(1, int(np.ceil((end - start) / window_s)))
    busy = np.zeros(n_windows)
    for e in selected:
        first = int((e.start - start) / window_s)
        last = int(min((e.end - start) / window_s, n_windows - 1))
        for w in range(first, last + 1):
            w_start = start + w * window_s
            w_end = w_start + window_s
            busy[w] += max(0.0, min(e.end, w_end) - max(e.start, w_start))
    centres = start + (np.arange(n_windows) + 0.5) * window_s
    return centres, np.minimum(1.0, busy / window_s)


def jittered_reference(trace: Trace, jitter: float, seed: int) -> Trace:
    """The self-validation jitter as a per-event loop.

    One log-normal factor per event, drawn in iteration order, scales
    the event's duration and (truncated toward zero) its byte count.
    """
    rng = np.random.default_rng(seed)
    jittered = Trace(name=trace.name)
    for e in trace:
        factor = float(rng.lognormal(0.0, jitter))
        end = e.start + e.duration * factor
        nbytes = int(e.nbytes * factor) if e.nbytes else 0
        jittered.append(
            TraceEvent(
                kind=e.kind, name=e.name, start=e.start, end=end,
                stream=e.stream, nbytes=nbytes, copy_kind=e.copy_kind,
                correlation_id=e.correlation_id, thread=e.thread,
                meta=dict(e.meta),
            )
        )
    return jittered
