"""Compressed trace for fast-forwarded runs: one epoch, repeated.

When the steady-state fast-forward engine (:mod:`repro.des.fastforward`)
skips ``S`` bit-identical loop iterations, the full trace it owes the
caller is the truncated run's trace with ``S`` time-shifted copies of
one reference epoch spliced in. :class:`RepeatedEpochTrace` stores
exactly that recipe — the truncated base events, the reference window,
the cycle period and the repeat count — and only materializes the full
event list when an analysis method actually needs it. A sweep that
reads scalar results pays nothing; a caller that profiles the trace
gets every event the full simulation would have recorded, bit for bit.

The decomposition partitions strictly by event *start* time (events are
recorded at completion, so a spanning event belongs to the window its
start falls in):

* base events starting before the certification boundary — unchanged;
* reference-window events, replicated ``j = 1..S`` times at
  ``start + j*period`` (correlation ids advance by the per-cycle
  stride, matching the ids the full run would have issued);
* base events starting at/after the boundary (the truncated run's
  final epochs and teardown) — shifted by ``S*period``.

All shifts are exact because every timestamp sits on the dyadic tick
grid (:mod:`repro.des.timebase`).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from typing import Iterable, List, Sequence

from .container import Trace
from .events import TraceEvent

__all__ = ["EpochWindow", "RepeatedEpochTrace", "SegmentedEpochTrace"]


class RepeatedEpochTrace(Trace):
    """A :class:`Trace` whose middle is one epoch repeated ``S`` times.

    Parameters
    ----------
    base_events:
        The truncated run's recorded events, in append order.
    window_start, window_end:
        The reference epoch ``[window_start, window_end)`` — the last
        certified steady-state cycle of the truncated run.
    period_s:
        The cycle period (``window_end - window_start``).
    repeats:
        How many skipped cycles to splice in.
    correlation_stride:
        Correlation ids issued per cycle; replica ``j`` advances the
        reference events' nonzero ids by ``j * correlation_stride``.
    """

    def __init__(
        self,
        base_events: Iterable[TraceEvent],
        *,
        window_start: float,
        window_end: float,
        period_s: float,
        repeats: int,
        correlation_stride: int,
        name: str = "",
    ) -> None:
        if repeats < 0:
            raise ValueError("repeats must be non-negative")
        super().__init__(None, name=name)
        self._base: List[TraceEvent] = list(base_events)
        self._window_start = window_start
        self._window_end = window_end
        self._period_s = period_s
        self._repeats = int(repeats)
        self._corr_stride = int(correlation_stride)
        self._ref_count = sum(
            1 for e in self._base if window_start <= e.start < window_end
        )
        self._materialized = False

    # -- compression metadata ----------------------------------------------------
    @property
    def repeats(self) -> int:
        """Number of spliced-in cycle copies."""
        return self._repeats

    @property
    def period_s(self) -> float:
        """The steady-state cycle period."""
        return self._period_s

    @property
    def events_per_cycle(self) -> int:
        """Trace events starting inside one reference cycle."""
        return self._ref_count

    @property
    def materialized(self) -> bool:
        """Whether the full event list has been expanded."""
        return self._materialized

    # -- expansion ---------------------------------------------------------------
    def _materialize(self) -> None:
        if self._materialized:
            return
        w0, w1 = self._window_start, self._window_end
        period, stride = self._period_s, self._corr_stride
        events: List[TraceEvent] = []
        ref: List[TraceEvent] = []
        tail: List[TraceEvent] = []
        for e in self._base:
            if e.start < w1:
                events.append(e)
                if e.start >= w0:
                    ref.append(e)
            else:
                tail.append(e)
        for j in range(1, self._repeats + 1):
            off = j * period
            corr_off = j * stride
            for e in ref:
                events.append(
                    replace(
                        e,
                        start=e.start + off,
                        end=e.end + off,
                        correlation_id=(
                            e.correlation_id + corr_off if e.correlation_id else 0
                        ),
                    )
                )
        off = self._repeats * period
        corr_off = self._repeats * stride
        for e in tail:
            events.append(
                replace(
                    e,
                    start=e.start + off,
                    end=e.end + off,
                    correlation_id=(
                        e.correlation_id + corr_off if e.correlation_id else 0
                    ),
                )
            )
        self._events = events
        self._sorted = False
        self._materialized = True

    def _ensure_sorted(self) -> None:
        self._materialize()
        super()._ensure_sorted()

    # -- cheap paths that must not force expansion --------------------------------
    def __len__(self) -> int:
        if self._materialized:
            return len(self._events)
        return len(self._base) + self._repeats * self._ref_count

    def threads(self) -> List[int]:
        if self._materialized:
            return super().threads()
        # Replicas only duplicate base events, so the thread set is
        # exactly the base trace's.
        return sorted({e.thread for e in self._base})

    def count_kind(self, kind) -> int:
        if self._materialized:
            return super().count_kind(kind)
        # Replicas copy the reference window verbatim, so per-kind
        # counts are base + repeats * reference-window count.
        base = ref = 0
        w0, w1 = self._window_start, self._window_end
        for e in self._base:
            if e.kind is kind:
                base += 1
                if w0 <= e.start < w1:
                    ref += 1
        return base + self._repeats * ref

    @property
    def start(self) -> float:
        if self._materialized:
            return Trace.start.fget(self)  # type: ignore[attr-defined]
        # Replicas and the shifted tail start no earlier than the base
        # prefix, so the earliest start is the base minimum.
        if not self._base:
            return 0.0
        return min(e.start for e in self._base)

    # -- methods reading _events directly: expand first ----------------------------
    @property
    def end(self) -> float:
        self._materialize()
        return Trace.end.fget(self)  # type: ignore[attr-defined]

    def total_time(self) -> float:
        self._materialize()
        return super().total_time()

    def busy_time(self) -> float:
        self._materialize()
        return super().busy_time()

    def max_concurrency(self) -> int:
        self._materialize()
        return super().max_concurrency()

    def append(self, event: TraceEvent) -> None:
        self._materialize()
        super().append(event)

    def extend(self, events: Iterable[TraceEvent]) -> None:
        self._materialize()
        super().extend(events)

    def __repr__(self) -> str:
        state = "expanded" if self._materialized else "compressed"
        return (
            f"<RepeatedEpochTrace {self.name!r}: {len(self)} events "
            f"({state}, {self._repeats} repeated cycles)>"
        )


@dataclass(frozen=True)
class EpochWindow:
    """One certified reference cycle and how many copies to splice in.

    All coordinates are in the *truncated* run's timeline (the
    continuous timeline the capped simulation actually produced);
    :class:`SegmentedEpochTrace` applies the cumulative shift of every
    preceding window when it expands.
    """

    start: float
    end: float
    period_s: float
    repeats: int
    correlation_stride: int


class SegmentedEpochTrace(Trace):
    """A :class:`Trace` with several repeated windows spliced back in.

    The multi-segment generalization of :class:`RepeatedEpochTrace`:
    a segmented fast-forward run certifies one reference cycle *per
    periodic segment* (e.g. one per CosmoFlow train/validation phase)
    and skips the remainder of each. The full trace is reconstructed
    by partitioning the truncated run's events at the window
    boundaries and shifting each region by the cumulative skipped time
    of every window before it:

    * events starting before window ``i``'s end and at/after its start
      are that window's reference cycle: replica ``j = 1..repeats_i``
      is spliced in at ``start + C_{i-1} + j*period_i`` with nonzero
      correlation ids advanced by ``K_{i-1} + j*stride_i``;
    * every event is itself shifted by the cumulative time
      ``C = Σ repeats_k*period_k`` and correlation stride
      ``K = Σ repeats_k*stride_k`` of the windows fully before it.

    All shifts are exact because every timestamp sits on the dyadic
    tick grid (:mod:`repro.des.timebase`). With a single window this
    expands to exactly what :class:`RepeatedEpochTrace` produces.
    """

    def __init__(
        self,
        base_events: Iterable[TraceEvent],
        *,
        windows: Sequence[EpochWindow],
        name: str = "",
    ) -> None:
        super().__init__(None, name=name)
        self._base: List[TraceEvent] = list(base_events)
        self._windows: List[EpochWindow] = sorted(
            windows, key=lambda w: w.start
        )
        prev_end = float("-inf")
        for w in self._windows:
            if w.repeats < 0:
                raise ValueError("repeats must be non-negative")
            if w.start < prev_end:
                raise ValueError("epoch windows must not overlap")
            prev_end = w.end
        self._ends = [w.end for w in self._windows]
        # Cumulative time/correlation shift contributed by the first
        # k windows (index k of these lists).
        self._cum_time: List[float] = [0.0]
        self._cum_corr: List[int] = [0]
        for w in self._windows:
            self._cum_time.append(self._cum_time[-1] + w.repeats * w.period_s)
            self._cum_corr.append(
                self._cum_corr[-1] + w.repeats * w.correlation_stride
            )
        self._ref_counts = [
            sum(1 for e in self._base if w.start <= e.start < w.end)
            for w in self._windows
        ]
        self._materialized = False

    # -- compression metadata ----------------------------------------------------
    @property
    def windows(self) -> List[EpochWindow]:
        """The certified windows, in time order."""
        return list(self._windows)

    @property
    def repeats(self) -> int:
        """Total spliced-in cycle copies across all windows."""
        return sum(w.repeats for w in self._windows)

    @property
    def materialized(self) -> bool:
        """Whether the full event list has been expanded."""
        return self._materialized

    # -- expansion ---------------------------------------------------------------
    def _shifted(self, e: TraceEvent, off: float, corr_off: int) -> TraceEvent:
        if off == 0.0 and corr_off == 0:
            return e
        return replace(
            e,
            start=e.start + off,
            end=e.end + off,
            correlation_id=(
                e.correlation_id + corr_off if e.correlation_id else 0
            ),
        )

    def _materialize(self) -> None:
        if self._materialized:
            return
        events: List[TraceEvent] = []
        refs: List[List[TraceEvent]] = [[] for _ in self._windows]
        for e in self._base:
            # Number of windows lying fully before this event's start;
            # their cumulative shift applies to the event itself.
            k = bisect_right(self._ends, e.start)
            events.append(self._shifted(e, self._cum_time[k], self._cum_corr[k]))
            if k < len(self._windows) and e.start >= self._windows[k].start:
                refs[k].append(e)
        for k, w in enumerate(self._windows):
            base_off = self._cum_time[k]
            base_corr = self._cum_corr[k]
            for j in range(1, w.repeats + 1):
                off = base_off + j * w.period_s
                corr_off = base_corr + j * w.correlation_stride
                for e in refs[k]:
                    events.append(self._shifted(e, off, corr_off))
        self._events = events
        self._sorted = False
        self._materialized = True

    def _ensure_sorted(self) -> None:
        self._materialize()
        super()._ensure_sorted()

    # -- cheap paths that must not force expansion --------------------------------
    def __len__(self) -> int:
        if self._materialized:
            return len(self._events)
        return len(self._base) + sum(
            w.repeats * n for w, n in zip(self._windows, self._ref_counts)
        )

    def threads(self) -> List[int]:
        if self._materialized:
            return super().threads()
        return sorted({e.thread for e in self._base})

    def count_kind(self, kind) -> int:
        if self._materialized:
            return super().count_kind(kind)
        total = 0
        for e in self._base:
            if e.kind is kind:
                total += 1
                k = bisect_right(self._ends, e.start)
                if (
                    k < len(self._windows)
                    and e.start >= self._windows[k].start
                ):
                    total += self._windows[k].repeats
        return total

    @property
    def start(self) -> float:
        if self._materialized:
            return Trace.start.fget(self)  # type: ignore[attr-defined]
        # Shifts are non-negative, so the earliest start is the base
        # minimum (events before the first window are unshifted).
        if not self._base:
            return 0.0
        return min(e.start for e in self._base)

    # -- methods reading _events directly: expand first ----------------------------
    @property
    def end(self) -> float:
        self._materialize()
        return Trace.end.fget(self)  # type: ignore[attr-defined]

    def total_time(self) -> float:
        self._materialize()
        return super().total_time()

    def busy_time(self) -> float:
        self._materialize()
        return super().busy_time()

    def max_concurrency(self) -> int:
        self._materialize()
        return super().max_concurrency()

    def append(self, event: TraceEvent) -> None:
        self._materialize()
        super().append(event)

    def extend(self, events: Iterable[TraceEvent]) -> None:
        self._materialize()
        super().extend(events)

    def __repr__(self) -> str:
        state = "expanded" if self._materialized else "compressed"
        return (
            f"<SegmentedEpochTrace {self.name!r}: {len(self)} events "
            f"({state}, {len(self._windows)} windows, "
            f"{self.repeats} repeated cycles)>"
        )
