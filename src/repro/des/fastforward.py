"""Steady-state cycle detection and analytic fast-forward for DES runs.

Any workload on the simulated CUDA runtime that loops over *identical*
units of work — the proxy's matmul iterations, LAMMPS timesteps,
CosmoFlow training batches — becomes strictly periodic after a short
warmup: every per-cycle quantity (the wall-time delta, the injected
slack, the starvation cost, the relative heap shape at the cycle
boundary) repeats bit for bit, guaranteed by the dyadic time grid
(:mod:`repro.des.timebase`). This module is the workload-independent
machinery that exploits it on the DES. The proxy now skips its steady
state on its index core instead (:mod:`repro.gpusim.flatcore`; the
proxy's eligibility rule is :func:`repro.proxy.matmul.refusal_reason`),
so the monitors serve the application profiles. There are two:

* :class:`EpochMonitor` — the original multi-worker engine: watches
  thread-0 epoch boundaries, certifies a fixed point once
  ``CONSECUTIVE_CERTS`` consecutive cycles are bit-identical, caps
  every worker at a uniform epoch count two cycles past certification
  (so multi-thread contention plays out its natural tail *inside the
  same simulation*), and extrapolates the skipped cycles analytically.
  Used by LAMMPS (MPI ranks).

* :class:`SegmentedEpochMonitor` — for single-process runs composed of
  consecutive *labeled periodic segments* (CosmoFlow's per-epoch train
  and validation phases). Each segment certifies its own cycle; once a
  label has been certified, later segments with the same label verify
  against the stored certificate after a single cycle, so a run of
  ``E`` structurally identical epochs pays the warmup once, not ``E``
  times. The skipped cycles of every segment are spliced back in by a
  :class:`~repro.trace.SegmentedEpochTrace`.

Both monitors share the same snapshot machinery (additive counters
compared as per-cycle deltas; the relative simulator shape — heap
contents, engine and stream queue state, open utilization intervals —
compared for identity) and the same extrapolation arithmetic:

* absolute times shift by ``S * period`` per skipped window (exact
  dyadic arithmetic);
* additive counters and totals advance by ``S`` times their certified
  per-cycle delta;
* the trace becomes a repeated-epoch trace that expands to the full
  event list on demand;
* engine utilizations are recomputed from the extrapolated busy/idle
  sums — the same operands the full run would divide, so the quotient
  is bit-identical too.

Why capping (not replaying) is exact: the truncated run is identical
to the full run up to the certification boundary ``B_c``; the full
run's window ``[B_c, B_c + S*period)`` is ``S`` shifted copies of the
certified reference cycle; and the full run's suffix after
``B_{c+S}`` equals the truncated run's suffix after ``B_c`` shifted by
``S*period``, because at those two instants the simulation has the
same work left and the relative simulator state is bit-identical
(that is what the certificate checks). The argument applies per
segment for the segmented monitor: each segment's suffix starts from
the same certified boundary state.

Certification is deliberately conservative: any configuration whose
periodicity cannot be certified — jittered timings, active fault
plans, a run that simply never settles — completes as a full
simulation and the result records the fallback reason.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from .core import Environment, Process, _PRIORITY_SHIFT

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..gpusim import CudaRuntime
    from ..network import SlackModel
    from ..trace import Trace

__all__ = [
    "FastForwardInfo",
    "EpochMonitor",
    "SegmentedEpochMonitor",
    "Extrapolated",
    "app_refusal_reason",
    "MIN_ITERATIONS",
    "CONSECUTIVE_CERTS",
    "MAX_WARMUP_EPOCHS",
]

#: Below this cycle count fast-forward cannot save anything (the
#: earliest certification caps the run at 6 epochs).
MIN_ITERATIONS = 7

#: Consecutive bit-identical cycle certificates required to certify.
CONSECUTIVE_CERTS = 3

#: Give up watching after this many warmup epochs: a run that has not
#: settled by then is not going to, and the boundary snapshots would
#: only slow the full simulation down.
MAX_WARMUP_EPOCHS = 32


@dataclass(frozen=True)
class FastForwardInfo:
    """How fast-forward engaged (or why it did not) for one run."""

    enabled: bool
    certified: bool
    reason: Optional[str] = None
    #: Cycles actually simulated (the warmup + settle tail).
    warmup_iterations: int = 0
    #: Cycles skipped analytically (summed over segments).
    skipped_iterations: int = 0
    #: DES events the skipped cycles would have scheduled.
    events_skipped: int = 0
    #: The certified steady-state cycle period (for segmented runs,
    #: the period of the segment that skipped the most cycles; on the
    #: proxy's index core, a period may span several iterations).
    cycle_period_s: float = 0.0


@dataclass(frozen=True)
class Extrapolated:
    """Full-run result values reconstructed from a truncated run."""

    loop_runtime_s: float
    injected_slack_s: float
    starvation_cost_s: float
    trace: "Trace"
    sim_metrics: Dict[str, float]
    info: FastForwardInfo


def app_refusal_reason(
    slack: "SlackModel",
    *,
    faults: Optional[object] = None,
    jitter: float = 0.0,
    epochs: int = 0,
) -> Optional[str]:
    """Why a monitored application run is ineligible (None = eligible).

    The shared gates of every fast-forwardable workload: an active
    fault injector makes the run time-inhomogeneous (windows open and
    close at absolute times, so no cycle certificate can extend over
    the skipped interval); jitter — whether in the slack model or the
    application's own timing model — breaks bit-identity between
    cycles; subclassed slack models may sample stochastically; and a
    run below :data:`MIN_ITERATIONS` cycles has nothing to skip.
    """
    from ..network import SlackModel

    if faults is not None:
        return "faults-active"
    if type(slack) is not SlackModel:
        return "slack-model-subclass"
    if slack.jitter_fraction > 0:
        return "slack-jitter"
    if jitter > 0:
        return "jitter"
    if epochs < MIN_ITERATIONS:
        return "too-few-iterations"
    return None


# Indices into the per-boundary counter tuple (deltas of these must be
# bit-identical across certified cycles).
_NOW = 0
_EID = 1
_CB_POOL = 2
_TRACE_LEN = 3
_CORR = 4
_API_CALLS = 5
_LAUNCHES = 6
_MEMCPYS = 7
_BYTES_H2D = 8
_BYTES_D2H = 9
_INTERCEPTED = 10
_DELAYED = 11
_INJECTED = 12
_STARVATION = 13
#: First per-engine slot; each engine contributes (ops, busy, idle).
_ENGINES_BASE = 14

_UTIL_LABELS = ("compute", "copy_h2d", "copy_d2h")


def _counters_snapshot(
    env: Environment,
    rt: "CudaRuntime",
    engines: tuple,
    tracker_state: List[List[float]],
) -> Tuple[float, ...]:
    """Cheap snapshot of every additive quantity a result depends on."""
    inj = rt.injector
    vals: List[float] = [
        env._now,
        # itertools.count exposes its next value via __reduce__
        # without consuming it (same trick as metrics_snapshot).
        env._eid.__reduce__()[1][0],
        len(env._cb_pool),
        len(rt.tracer.trace),
        rt.tracer._correlation.__reduce__()[1][0],
        rt.api_calls,
        rt.kernel_launches,
        rt.memcpy_count,
        rt.memcpy_bytes_h2d,
        rt.memcpy_bytes_d2h,
        inj.calls_intercepted,
        inj.calls_delayed,
        inj.total_injected_s,
        rt.compute.total_starvation_cost,
    ]
    for eng, state in zip(engines, tracker_state):
        # Incremental closed busy/idle sums per engine: summing the
        # whole interval list at every boundary would be O(epochs^2).
        intervals = eng.tracker.intervals
        pos, busy, idle = state
        for rec in intervals[int(pos):]:
            if rec.busy:
                busy += rec.end - rec.start
            else:
                idle += rec.end - rec.start
        state[0], state[1], state[2] = len(intervals), busy, idle
        vals.extend((eng.ops_executed, busy, idle))
    return tuple(vals)


def _shape_snapshot(
    env: Environment, rt: "CudaRuntime", engines: tuple
) -> tuple:
    """Relative (time-shifted) simulator state at a boundary."""
    now = env._now
    heap = tuple(
        sorted(
            (
                t - now,
                key >> _PRIORITY_SHIFT,
                type(ev).__name__,
                ev.name if isinstance(ev, Process) else "",
            )
            for (t, key, ev) in env._queue
        )
    )
    act = rt.activity
    activity = (
        act.busy_until - now if act.ever_busy else 0.0,
        act.ever_busy,
    )
    engine_state = tuple(
        (
            eng.tracker._busy,
            eng.tracker._started,
            now - eng.tracker._since if eng.tracker._started else 0.0,
            len(eng._unit.users),
            len(eng._unit.queue),
        )
        for eng in engines
    )
    streams = tuple(
        (
            sid,
            s.pending,
            len(s._queue.items),
            type(s._in_flight).__name__ if s._in_flight is not None else "",
            len(s._drain_waiters),
        )
        for sid, s in sorted(rt._streams.items())
    )
    return (heap, activity, engine_state, streams)


def _extrapolated_metrics(
    env: Environment,
    rt: "CudaRuntime",
    engines: tuple,
    add: Tuple[float, ...],
) -> Tuple[Dict[str, float], float, float]:
    """Full-run telemetry from a truncated run plus summed skip deltas.

    ``add`` is the elementwise sum over skipped windows of
    ``repeats * per_cycle_delta`` — for a single certified window,
    exactly the ``skipped * d[...]`` products the original proxy
    engine computed. Returns ``(sim_metrics, injected, starvation)``;
    every value is bit-identical to the full event-by-event run.
    """
    des = env.metrics_snapshot()
    eid_add = add[_EID]
    des["events_scheduled"] += eid_add
    des["events_dispatched"] += eid_add
    des["sim_time_s"] += add[_NOW]

    snap: Dict[str, float] = {f"des.{k}": v for k, v in des.items()}
    util: Dict[str, float] = {}
    for i, (eng, label) in enumerate(zip(engines, _UTIL_LABELS)):
        eng.tracker.finish()
        base = _ENGINES_BASE + 3 * i
        busy = eng.tracker.busy_time + add[base + 1]
        idle = eng.tracker.idle_time + add[base + 2]
        total = busy + idle
        util[label] = busy / total if total > 0 else 0.0
    injected = rt.injector.total_injected_s + add[_INJECTED]
    starvation = rt.total_starvation_cost() + add[_STARVATION]
    snap.update(
        {
            "gpu.kernel_launches": float(
                rt.kernel_launches + int(add[_LAUNCHES])
            ),
            "gpu.api_calls": float(rt.api_calls + int(add[_API_CALLS])),
            "gpu.memcpy_h2d_bytes": float(
                rt.memcpy_bytes_h2d + int(add[_BYTES_H2D])
            ),
            "gpu.memcpy_d2h_bytes": float(
                rt.memcpy_bytes_d2h + int(add[_BYTES_D2H])
            ),
            "gpu.memcpy_count": float(rt.memcpy_count + int(add[_MEMCPYS])),
            "gpu.stream_count": float(len(rt.streams)),
            "gpu.compute_utilization": util["compute"],
            "gpu.copy_h2d_utilization": util["copy_h2d"],
            "gpu.copy_d2h_utilization": util["copy_d2h"],
            "gpu.starvation_cost_s": starvation,
            "fabric.calls_intercepted": float(
                rt.injector.calls_intercepted + int(add[_INTERCEPTED])
            ),
            "fabric.slack_calls": float(
                rt.injector.calls_delayed + int(add[_DELAYED])
            ),
            "fabric.slack_injected_s": injected,
        }
    )
    return snap, injected, starvation


class EpochMonitor:
    """Watches epoch boundaries, certifies a fixed point, caps the run.

    Workers call :meth:`epoch_done` after each loop iteration and read
    :attr:`stop_at` as their iteration bound. At each *thread-0*
    boundary the monitor takes a cheap snapshot of every quantity the
    result depends on — additive counters (compared as per-cycle
    deltas) and the relative simulator shape (heap contents, engine
    and stream queue state, open utilization intervals, thread epoch
    offsets — compared for identity). ``CONSECUTIVE_CERTS`` identical
    certificates certify the steady state; the run is then capped two
    epochs later for every thread and the skipped cycles are
    reconstructed by :meth:`extrapolate`.
    """

    def __init__(
        self,
        env: Environment,
        rt: "CudaRuntime",
        threads: int,
        iterations: int,
    ) -> None:
        self.env = env
        self.rt = rt
        self.iterations = iterations
        #: Per-thread iteration bound; lowered once on certification.
        self.stop_at = iterations
        self.completed = [0] * threads
        self.certified_at: Optional[int] = None
        self.cycle_delta: Optional[Tuple[float, ...]] = None
        self._window: Optional[Tuple[float, float]] = None
        self._engines = (rt.compute, rt.copy_h2d, rt.copy_d2h)
        self._tracker_state = [[0, 0.0, 0.0] for _ in self._engines]
        self._prev_counters: Optional[Tuple[float, ...]] = None
        self._prev_cert: Optional[tuple] = None
        self._streak = 0
        self._dead = False

    @property
    def certified(self) -> bool:
        """Whether a steady-state fixed point was certified."""
        return self.certified_at is not None

    # -- boundary hook -----------------------------------------------------------
    def epoch_done(self, thread_id: int) -> None:
        """Called by a worker after completing one loop iteration."""
        self.completed[thread_id] += 1
        if thread_id != 0 or self._dead or self.certified_at is not None:
            return
        c = self.completed[0]
        if c > MAX_WARMUP_EPOCHS or c + 2 >= self.iterations:
            # Not going to settle (or nothing left to skip): stop
            # paying for snapshots and let the run complete naturally.
            self._dead = True
            return
        counters = self._counters()
        if self._prev_counters is not None:
            delta = tuple(
                b - a for a, b in zip(self._prev_counters, counters)
            )
            cert = (delta, self._shape(c))
            if cert == self._prev_cert:
                self._streak += 1
            else:
                self._streak = 1
                self._prev_cert = cert
            if (
                self._streak >= CONSECUTIVE_CERTS
                and delta[_CB_POOL] == 0
                and max(self.completed) <= c + 1
            ):
                # delta[_CB_POOL] == 0: a still-filling callback pool
                # would hit its cap inside the skipped cycles, breaking
                # linear extrapolation. max offset <= +1: a thread two
                # epochs ahead would already have passed the uniform
                # cap, so the truncated tail would diverge from the
                # full run's.
                self.certified_at = c
                self.stop_at = c + 2
                self.cycle_delta = delta
                self._window = (self._prev_counters[_NOW], counters[_NOW])
        self._prev_counters = counters

    # -- snapshot ----------------------------------------------------------------
    def _counters(self) -> Tuple[float, ...]:
        return _counters_snapshot(
            self.env, self.rt, self._engines, self._tracker_state
        )

    def _shape(self, c: int) -> tuple:
        offsets = tuple(n - c for n in self.completed)
        return _shape_snapshot(self.env, self.rt, self._engines) + (offsets,)

    # -- reconstruction ----------------------------------------------------------
    def extrapolate(self, loop_runtime_s: float) -> Extrapolated:
        """Reconstruct the full-run result from the truncated run.

        Call after ``env.run()`` returns on a certified run. Every
        value produced here is bit-identical to what the full
        event-by-event simulation yields (see the module docstring for
        the argument; the parity tests check it across the grid).
        """
        from ..trace import RepeatedEpochTrace

        assert self.certified_at is not None and self.cycle_delta is not None
        assert self._window is not None
        d = self.cycle_delta
        skipped = self.iterations - self.stop_at
        period = d[_NOW]
        shift = skipped * period
        add = tuple(skipped * v for v in d)

        snap, injected, starvation = _extrapolated_metrics(
            self.env, self.rt, self._engines, add
        )
        window_start, window_end = self._window
        trace = RepeatedEpochTrace(
            self.rt.tracer.trace.events_in_record_order(),
            window_start=window_start,
            window_end=window_end,
            period_s=period,
            repeats=skipped,
            correlation_stride=int(d[_CORR]),
            name=self.rt.tracer.trace.name,
        )
        info = FastForwardInfo(
            enabled=True,
            certified=True,
            reason=None,
            warmup_iterations=self.stop_at,
            skipped_iterations=skipped,
            events_skipped=skipped * int(d[_EID]),
            cycle_period_s=period,
        )
        return Extrapolated(
            loop_runtime_s=loop_runtime_s + shift,
            injected_slack_s=injected,
            starvation_cost_s=starvation,
            trace=trace,
            sim_metrics=snap,
            info=info,
        )


@dataclass(frozen=True)
class _SegmentSkip:
    """One segment's certified skip: window, repeats, per-cycle delta."""

    window_start: float
    window_end: float
    period_s: float
    repeats: int
    delta: Tuple[float, ...]


class SegmentedEpochMonitor:
    """Certify-and-skip for single-process runs of periodic segments.

    A *segment* is a block of ``cycles`` structurally identical cycles
    (CosmoFlow: the train phase of one epoch is a segment of 4-step
    cycles; the validation phase is another). The driving process
    brackets each segment with :meth:`begin_segment` and calls
    :meth:`cycle_done` after each cycle; a ``True`` return means the
    segment's remaining cycles are certified periodic and must be
    skipped (break out of the cycle loop).

    Certification within a segment works like :class:`EpochMonitor`
    (``CONSECUTIVE_CERTS`` bit-identical per-cycle deltas + relative
    shapes). Additionally, a certified (delta, shape) pair is stored
    under the segment's *label*: a later segment with the same label
    whose first cycle reproduces the stored certificate exactly skips
    after that single cycle — the warmup for a run of ``E``
    structurally identical epochs is paid once, not ``E`` times.

    After ``env.run()`` returns, :meth:`extrapolate` reconstructs the
    full-run totals (bit-identical, same argument as the module
    docstring) and a :class:`~repro.trace.SegmentedEpochTrace` that
    splices every skipped window back in on demand.
    """

    def __init__(self, env: Environment, rt: "CudaRuntime") -> None:
        self.env = env
        self.rt = rt
        self._engines = (rt.compute, rt.copy_h2d, rt.copy_d2h)
        self._tracker_state = [[0, 0.0, 0.0] for _ in self._engines]
        self._certificates: Dict[object, tuple] = {}
        self._skips: List[_SegmentSkip] = []
        #: Cycles actually simulated across all segments.
        self.cycles_simulated = 0
        # Per-segment state.
        self._label: object = None
        self._cycles = 0
        self._done = 0
        self._prev: Optional[Tuple[float, ...]] = None
        self._prev_cert: Optional[tuple] = None
        self._streak = 0
        self._dead = False

    @property
    def certified(self) -> bool:
        """Whether any segment certified (and skipped) cycles."""
        return bool(self._skips)

    @property
    def skipped_cycles(self) -> int:
        """Total cycles skipped across all segments."""
        return sum(s.repeats for s in self._skips)

    # -- segment protocol --------------------------------------------------------
    def begin_segment(self, label: object, cycles: int) -> None:
        """Start watching a segment of ``cycles`` identical cycles.

        ``label`` keys the certificate store: segments sharing a label
        must share their cycle structure (same kernels, cadences and
        starting phase) for the single-cycle verification to be sound.
        """
        if cycles < 0:
            raise ValueError("cycles must be non-negative")
        self._label = label
        self._cycles = cycles
        self._done = 0
        self._prev = self._counters()
        self._prev_cert = None
        self._streak = 0
        self._dead = False

    def cycle_done(self) -> bool:
        """Record one completed cycle; True = skip the segment's rest."""
        self._done += 1
        if self._dead:
            return False
        if self._done > MAX_WARMUP_EPOCHS:
            self._dead = True
            return False
        counters = self._counters()
        assert self._prev is not None
        delta = tuple(b - a for a, b in zip(self._prev, counters))
        cert = (delta, self._shape())
        self._prev = counters
        remaining = self._cycles - self._done
        stored = self._certificates.get(self._label)
        certified = False
        if stored is not None and cert == stored:
            # Single-cycle verification against the label's stored
            # certificate (from an earlier structurally identical
            # segment): an exact match means this segment has already
            # proven its periodicity.
            certified = True
        else:
            # No stored certificate (or a transient first cycle that
            # did not match it): certify the slow way, by streak.
            if cert == self._prev_cert:
                self._streak += 1
            else:
                self._streak = 1
                self._prev_cert = cert
            if self._streak >= CONSECUTIVE_CERTS and delta[_CB_POOL] == 0:
                # delta[_CB_POOL] == 0: a still-filling callback pool
                # would hit its cap inside the skipped cycles.
                self._certificates[self._label] = cert
                certified = True
        if not certified or remaining <= 0:
            return False
        self._skips.append(
            _SegmentSkip(
                window_start=counters[_NOW] - delta[_NOW],
                window_end=counters[_NOW],
                period_s=delta[_NOW],
                repeats=remaining,
                delta=delta,
            )
        )
        self.cycles_simulated += self._done
        self._done = -remaining  # end_segment() accounting marker
        self._dead = True
        return True

    def end_segment(self) -> None:
        """Close the current segment (bookkeeping only)."""
        if self._done > 0:
            self.cycles_simulated += self._done
        self._label = None
        self._cycles = self._done = 0
        self._prev = self._prev_cert = None
        self._streak = 0
        self._dead = False

    # -- snapshot ----------------------------------------------------------------
    def _counters(self) -> Tuple[float, ...]:
        return _counters_snapshot(
            self.env, self.rt, self._engines, self._tracker_state
        )

    def _shape(self) -> tuple:
        return _shape_snapshot(self.env, self.rt, self._engines)

    # -- reconstruction ----------------------------------------------------------
    def extrapolate(self, loop_runtime_s: float) -> Extrapolated:
        """Reconstruct the full-run result from the truncated run."""
        from ..trace import EpochWindow, SegmentedEpochTrace

        assert self._skips, "extrapolate() requires a certified skip"
        width = len(self._skips[0].delta)
        add_list: List[float] = [0.0] * width
        for skip in self._skips:
            for k, v in enumerate(skip.delta):
                add_list[k] += skip.repeats * v
        add = tuple(add_list)
        shift = add[_NOW]

        snap, injected, starvation = _extrapolated_metrics(
            self.env, self.rt, self._engines, add
        )
        windows = [
            EpochWindow(
                start=s.window_start,
                end=s.window_end,
                period_s=s.period_s,
                repeats=s.repeats,
                correlation_stride=int(s.delta[_CORR]),
            )
            for s in self._skips
        ]
        trace = SegmentedEpochTrace(
            self.rt.tracer.trace.events_in_record_order(),
            windows=windows,
            name=self.rt.tracer.trace.name,
        )
        dominant = max(self._skips, key=lambda s: s.repeats)
        info = FastForwardInfo(
            enabled=True,
            certified=True,
            reason=None,
            warmup_iterations=self.cycles_simulated,
            skipped_iterations=self.skipped_cycles,
            events_skipped=int(add[_EID]),
            cycle_period_s=dominant.period_s,
        )
        return Extrapolated(
            loop_runtime_s=loop_runtime_s + shift,
            injected_slack_s=injected,
            starvation_cost_s=starvation,
            trace=trace,
            sim_metrics=snap,
            info=info,
        )
