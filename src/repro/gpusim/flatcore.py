"""Index core of the simulated GPU: the device model without an event loop.

:class:`CudaRuntime` drives the device through DES processes — one
generator per host thread, one dispatcher process per stream, a
``Resource`` per engine — so a traced application run costs a Python
generator resumption for every event. :class:`FlatDevice` computes the
same run from plain state: host programs are flat instruction lists,
hosts and streams are small state records, and the whole run is one
loop over a ``heapq`` of future times plus a FIFO of same-time
wake-ups. It holds the runtime's device model and nothing else:

* the three FIFO engines (compute, H2D copy, D2H copy), each a held
  flag and a queue of waiting streams;
* :class:`~repro.gpusim.engines.DeviceActivity` and the compute
  engine's :func:`~repro.gpusim.engines.starvation_charge`;
* per-stream in-order execution and completion;
* the host API and launch overheads (:func:`host_overheads`) and the
  quantized transfer and kernel times;
* slack through the same ``slack.is_zero`` and ``slack.sample()``
  calls :meth:`SlackInjector.after_call` makes, at the same points and
  in the same order, so any :class:`~repro.network.SlackModel` works
  and ends in the same state as after a DES run.

**Parity.** The DES orders events by (time, priority, insertion
sequence). Every event scheduled while the clock stands at ``t`` gets
a later sequence number than every event that was already waiting for
``t``, so the events at one time run as a FIFO: first those scheduled
earlier (in scheduling order), then each zero-delay event in the order
it was triggered. The loop keeps exactly that order — future events
in a heap keyed ``(time, seq)``, and on reaching a time all of its
heap entries move to the FIFO before any of them runs. Wake-ups the
DES processes with no effect (a sync memcpy's ``StorePut``, the
completion of an op nobody waits for, an engine ``Release``) are not
modelled; dropping them leaves the relative order of the rest intact.
The trace rows, correlation ids, random draws, name interning and
kernel metas therefore come out exactly as the DES records them;
``tests/gpusim/test_interpret.py`` checks that on random programs, and
``tests/apps/test_appcore.py`` and ``tests/proxy/test_proxycore.py``
on the workloads.

**Steady state.** Programs given as a body run ``count`` times over
(the matmul proxy's loop) may skip most of their cycles. The
simulation is deterministic, so once the plain state at one thread-0
cycle start equals the state at an earlier one — times taken
relative to ``now``, correlation ids relative to the last one issued,
each host's position relative to thread 0's cycle — the cycles in
between repeat from then on (a period spans several cycles when
free-running threads take turns on the engines). The loop then jumps
over ``S`` whole periods, leaving every host at least one cycle
before its end: absolute times shift by ``S * period``, positions by
the bodies skipped, correlation ids and the additive totals
(starvation, slack, sleeps, the slack model's counters) by ``S``
times their per-period change, and ``S`` shifted copies of the
period's trace rows are appended in record order. Every delay sits on
the dyadic tick grid (:mod:`repro.des.timebase`), so each shifted
value is the float the full run reaches. The loop plays out the
tail. Only runs whose every cycle can repeat bit for bit are
watched: no jitter draws, no barrier, and exactly a jitter-free
:class:`~repro.network.SlackModel` (:func:`skip_refusal`); the rest
run in full and :attr:`FlatRun.refusal` names why.

**Graph launches.** :meth:`FlatDevice.graph` replays a captured
graph as :meth:`~repro.gpusim.graphs.CudaGraph.launch` does: one
correlation id, one unquantized launch-overhead wait, one put per node
onto the host's stream in capture order, an optional wait for the last
node, one ``cudaGraphLaunch`` row and one slack charge. ``CudaGraph``
times its wait and its copies off the tick grid, so a body holding a
graph runs in full (refusal ``graph-off-grid``).

The API overhead of memcpy and sync calls is ``api_overhead_s``, as
for :class:`CudaRuntime`; the remoting comparison inflates it
(:func:`~repro.gpusim.remoting.make_remoting_device`).

The instruction builders are the one description of a workload's
host side; :func:`repro.gpusim.interpret.run_des` plays the same
programs event by event on :class:`CudaRuntime`. Not modelled here:
fault injection (fault plans run on that interpreter), the occupancy
(concurrent-kernel) compute engine, and stream queues as deep as a
``Store``'s default capacity (which raises). The programs come from
the two paper apps (``profile_lammps``, ``profile_cosmoflow``), the
matmul proxy (:func:`repro.proxy.core.iteration_body`) and the proxy
loop's other users on the default path: the Section III-C kernel
calibration (:func:`repro.proxy.time_single_kernel`) and the
``ext_remoting`` and ``ext_graphs`` comparisons.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..des.timebase import quantize
from ..hw.specs import GPUSpec, PCIeSpec
from ..network.slack import SlackModel
from ..trace.events import CopyKind, EventKind
from ..trace.store import (
    COLUMNS,
    COPY_CODE,
    KIND_CODE,
    NO_CODE,
    ColumnStore,
    Trace,
)
from .engines import DeviceActivity, starvation_charge
from .kernels import explicit_execution_time
from .runtime import API_OVERHEAD_S, host_overheads, transfer_delay

__all__ = [
    "FastForwardInfo",
    "des_reason",
    "FlatDevice",
    "FlatRun",
    "MAX_WARMUP_EPOCHS",
    "MIN_ITERATIONS",
    "skip_refusal",
]

#: Below this cycle count a skip cannot save anything.
MIN_ITERATIONS = 7

#: Stop watching after this many cycle starts: a run that has not
#: settled by then is not going to, and the snapshots would only slow
#: the rest of the run down.
MAX_WARMUP_EPOCHS = 32


@dataclass(frozen=True)
class FastForwardInfo:
    """How fast-forward engaged (or why it did not) for one run."""

    enabled: bool
    certified: bool
    reason: Optional[str] = None
    #: Cycles actually simulated (the warmup + settle tail).
    warmup_iterations: int = 0
    #: Cycles skipped analytically.
    skipped_iterations: int = 0
    #: DES events the skipped cycles would have scheduled.
    events_skipped: int = 0
    #: The certified steady-state period (it may span several
    #: iterations).
    cycle_period_s: float = 0.0

# Instruction opcodes (first field of every program entry), read by
# both interpreters. The two that may draw jitter come first and carry
# their log-normal mu (or None) second.
OP_CPU = 0
OP_LAUNCH = 1
OP_MEMCPY = 2
OP_ASYNC = 3
OP_GRAPH = 4
OP_SYNC_STREAM = 5
OP_SYNC_DEVICE = 6
OP_BARRIER = 7

#: API name each host call records.
_API_NAMES = {
    OP_MEMCPY: "cudaMemcpy",
    OP_ASYNC: "cudaMemcpyAsync",
    OP_LAUNCH: "cudaLaunchKernel",
    OP_GRAPH: "cudaGraphLaunch",
    OP_SYNC_STREAM: "cudaStreamSynchronize",
    OP_SYNC_DEVICE: "cudaDeviceSynchronize",
}

# Wake-ups of a stream's dispatcher.
_GET = 0  # it receives its next op
_GRANT = 1  # its engine is granted to the op
_DONE = 2  # the op's engine time is over
# Wake-ups of a host thread.
_SUBMIT = 3  # the call's host overhead has elapsed: submit its op (a
# graph launch: submit its next node, again once that node's put is in)
_RETURNED = 4  # the call's op was accepted / completed / drained
_RUN = 5  # execute the next instruction
_SLACKED = 6  # the injected slack has elapsed
_DRAINING = 7  # one stream of a device sync has drained
_EXIT = 8  # the host program has returned

# Engines (index into the held / waiting tables).
_COMPUTE = 0
_H2D = 1
_D2H = 2

# Trace rows are recorded as flat float fields (see _trace), so every
# code and id below is kept as a float.
_KERNEL = float(KIND_CODE[EventKind.KERNEL])
_MEMCPY = float(KIND_CODE[EventKind.MEMCPY])
_API = float(KIND_CODE[EventKind.API])
_SYNC = float(KIND_CODE[EventKind.SYNC])
_SLACK = float(KIND_CODE[EventKind.SLACK])
_NONE = float(NO_CODE)

#: Rows recorded between two conversions to a float64 block.
_BLOCK_ROWS = 1 << 16

#: Trace fields a skipped cycle's copies shift.
_START, _END, _CORR = (COLUMNS.index(c) for c in ("start", "end", "corr"))

#: A ``Store``'s default capacity, which a stream's queue must not reach
#: (the DES would block the submitting host; the core does not model it).
MAX_STREAM_DEPTH = 1024


class _Host:
    """One host thread: its program, position and the call in flight."""

    __slots__ = ("thread", "stream", "program", "pc", "call", "start",
                 "corr", "busy", "drained", "node")

    def __init__(self, thread: int, stream: "_Stream", program) -> None:
        self.thread = float(thread)
        self.stream = stream
        self.program = program
        self.pc = 0
        self.call: Tuple = ()
        self.start = 0.0
        self.corr = 0.0
        self.busy = 0.0
        #: Streams a device sync has drained.
        self.drained = 0
        #: Nodes a graph launch has submitted.
        self.node = 0


class _Stream:
    """One stream: queued ops, the op in hand and drain waiters."""

    __slots__ = ("sid", "items", "outstanding", "waiting", "op", "drain",
                 "start", "extra")

    def __init__(self, sid: int) -> None:
        self.sid = float(sid)
        self.items: deque = deque()
        self.outstanding = 0
        self.waiting = True  # the dispatcher waits for an op
        self.op: Optional[Tuple] = None
        #: Wake-ups to push once the stream has drained.
        self.drain: List[Tuple[int, _Host]] = []
        self.start = 0.0
        self.extra = 0.0


class FlatRun(NamedTuple):
    """What one :meth:`FlatDevice.run` produced."""

    #: The recorded trace, rows in DES record order.
    trace: Trace
    #: Simulated time of the last event.
    end_s: float
    #: Starvation cost the compute engine charged, summed in grant
    #: order (``ComputeEngine.total_starvation_cost``).
    starvation_s: float
    #: Slack the hosts slept, summed in call order, and the calls the
    #: slack model delayed (``SlackInjector.total_injected_s`` and
    #: ``calls_delayed``).
    injected_slack_s: float
    slack_calls: int
    #: Calls whose slack was a positive sleep (one DES timeout each).
    slack_sleeps: int
    #: Whole cycles skipped once the steady state was certified (0: the
    #: run was simulated in full), the certified period (one cycle or
    #: several), and the positive slack sleeps among them.
    cycles_skipped: int = 0
    cycle_period_s: float = 0.0
    sleeps_skipped: int = 0
    #: Why no cycle was skipped (None when some were).
    refusal: Optional[str] = None


class FlatDevice:
    """One simulated GPU and its host threads, without an event loop.

    Parameters
    ----------
    gpu, pcie:
        Device and host link, as for :class:`CudaRuntime`.
    slack:
        The slack model every API call passes through (sampled exactly
        as :class:`SlackInjector` samples it).
    rng, sigma:
        Source and log-normal sigma of the application's own timing
        jitter: an instruction carrying a ``mu`` takes the value of
        ``rng.lognormal(mu, sigma)`` drawn when its host reaches it,
        the point where the DES program evaluates its ``jittered()``
        (see :meth:`_jitter_tables`); ``rng`` ends in the state the
        DES leaves it in.
    """

    def __init__(
        self,
        gpu: GPUSpec,
        pcie: PCIeSpec,
        slack: SlackModel,
        *,
        rng: Optional[np.random.Generator] = None,
        sigma: Any = None,
        api_overhead_s: float = API_OVERHEAD_S,
    ) -> None:
        self.gpu = gpu
        self.pcie = pcie
        self.slack = slack
        self.rng = rng
        self.sigma = sigma
        self.api_overhead_s, self.launch_overhead_s = host_overheads(
            gpu, api_overhead_s
        )

    # -- program instructions ---------------------------------------------------
    @staticmethod
    def cpu(mean: float, mu: Any = None, div: float = 1, add: float = 0.0):
        """Host work of ``quantize(x / div + add)`` seconds, where ``x``
        is ``mean`` or, with ``mu``, a jitter draw."""
        return (OP_CPU, _mu(mu), mean, div, add)

    def memcpy(self, nbytes: int, kind: CopyKind, *, sync: bool = True):
        """``cudaMemcpy`` (or ``cudaMemcpyAsync``) on the host's stream."""
        if nbytes <= 0:
            raise ValueError("nbytes must be positive")
        if kind is CopyKind.D2D:
            raise ValueError("D2D copies do not cross the host link")
        return (
            OP_MEMCPY if sync else OP_ASYNC,
            _H2D if kind is CopyKind.H2D else _D2H,
            transfer_delay(self.pcie, nbytes),
            float(nbytes),
            float(COPY_CODE[kind]),
            f"memcpy{kind.value}",
        )

    @staticmethod
    def launch(name: str, mean: float, mu: Any = None,
               meta: Optional[Dict[str, Any]] = None, *,
               blocking: bool = False):
        """Launch kernel ``name`` of duration ``mean`` (or, with ``mu``,
        a jitter draw); ``meta`` joins its trace row's meta. A
        ``blocking`` launch returns once the kernel has completed, as a
        sync ``cudaMemcpy`` returns once its copy has."""
        return (OP_LAUNCH, _mu(mu), mean, name, meta or {}, blocking)

    def graph(self, nodes: Sequence[Tuple], *, blocking: bool = False):
        """``cudaGraphLaunch`` of the captured ``nodes`` (:meth:`launch`
        and :meth:`memcpy` instructions, in capture order), replayed as
        :meth:`~repro.gpusim.graphs.CudaGraph.launch` replays them.

        One correlation id and one host wait of the GPU's launch
        overhead for the whole graph; the nodes go to the host's stream
        one put at a time; a ``blocking`` launch returns once the last
        node has completed. One API row (meta ``graph``, ``nodes``) and
        one slack charge follow; the graph's name is ``CudaGraph``'s
        default, ``graph``. Like ``CudaGraph``, the host wait and
        the copy times are not tick-quantized, so a body holding a
        graph never skips its steady state (``graph-off-grid``). The
        instruction keeps ``nodes`` as its last field, from which
        :func:`~repro.gpusim.interpret.run_des` captures the graph.
        """
        templates = []
        for node in nodes:
            if node[0] == OP_LAUNCH:
                if node[1] is not None:
                    raise ValueError("graph kernels draw no jitter")
                busy = quantize(explicit_execution_time(node[2], self.gpu))
                templates.append((_COMPUTE, busy, node[3], node[4]))
            elif node[0] in (OP_MEMCPY, OP_ASYNC):
                busy = self.pcie.transfer_time(int(node[3]))
                templates.append((node[1], busy, node[5], node[3], node[4]))
            else:
                raise ValueError("graph nodes are kernels and memcpys")
        if not templates:
            raise ValueError("cannot launch an empty graph")
        meta = {"graph": "graph", "nodes": len(templates)}
        return (OP_GRAPH, self.gpu.launch_overhead_s, tuple(templates), meta,
                blocking, tuple(nodes))

    #: ``cudaStreamSynchronize`` of the host's stream.
    SYNC_STREAM = (OP_SYNC_STREAM,)
    #: ``cudaDeviceSynchronize``: every stream, in creation order.
    SYNC_DEVICE = (OP_SYNC_DEVICE,)
    #: A barrier over all hosts (released in arrival order).
    BARRIER = (OP_BARRIER,)

    # -- the run ------------------------------------------------------------------
    def run(
        self,
        programs: Sequence[Sequence[Tuple]],
        threads: Sequence[int],
        join: Optional[Sequence[Tuple]] = None,
        *,
        count: int = 1,
    ) -> FlatRun:
        """Run host programs to completion.

        Host ``i`` runs ``programs[i]`` ``count`` times over as thread
        ``threads[i]`` on its own stream (stream ``i + 1``; stream 0 is
        the runtime's default stream), and all hosts start at time 0 in
        order. ``join``, if given, runs on thread 0 once every host has
        returned — the DES ``main`` process waiting on ``all_of`` the
        host processes. A run of ``count`` cycles may skip its steady
        state (see the module docstring).
        """
        gpu = self.gpu
        slack = self.slack
        bodies = list(programs)
        programs = [list(body) * count for body in bodies]
        jitter = self._jitter_tables(bodies, count, join)
        refusal = skip_refusal(slack, count) or _program_refusal(bodies)
        draws = 0
        starved = injected = 0.0
        sleeps = 0
        delayed = slack.calls_delayed
        api_s = self.api_overhead_s
        launch_s = self.launch_overhead_s
        activity = DeviceActivity()
        idle_gap = activity.idle_gap
        note = activity.note

        streams = [_Stream(sid) for sid in range(len(programs) + 1)]
        hosts = [
            _Host(thread, streams[i + 1], program)
            for i, (thread, program) in enumerate(zip(threads, programs))
        ]
        main = (
            _Host(0, streams[0], join) if join is not None else None
        )
        parties = len(hosts)
        barrier: List[_Host] = []
        exited = 0

        held = [False, False, False]
        waiting: List[deque] = [deque(), deque(), deque()]

        # Each trace row is nine consecutive floats of ``rows`` (the
        # fields of COLUMNS), turned into float64 blocks of one row per
        # field (see _block) as they fill.
        rows: List[float] = []
        blocks: List[np.ndarray] = []
        block_len = _BLOCK_ROWS * len(COLUMNS)
        metas: List[Optional[Dict[str, Any]]] = []
        add_meta = metas.append
        names: List[str] = []
        codes: Dict[str, float] = {}
        corr = 0.0
        seq = 0

        # Wake-up kinds and opcodes as locals: the loop below runs once
        # per DES event that has an effect.
        RUN, SUBMIT, RETURNED, SLACKED, DRAINING, EXIT = (
            _RUN, _SUBMIT, _RETURNED, _SLACKED, _DRAINING, _EXIT
        )
        GET, GRANT, DONE = _GET, _GRANT, _DONE
        KERNEL, MEMCPY_ROW, API, SYNC, SLACK = (
            _KERNEL, _MEMCPY, _API, _SYNC, _SLACK
        )
        COMPUTE = _COMPUTE
        NONE = _NONE

        fifo: deque = deque((RUN, h) for h in hosts)
        popleft = fifo.popleft
        push = fifo.append
        heap: List[Tuple[float, int, int, Any]] = []
        now = 0.0

        # Thread 0's host while its cycle starts are watched for the
        # steady state (None once the watch is over).
        watch = lead = None
        lead_body = 0
        if refusal is None:
            watch = _Watch(bodies, hosts, streams, held, waiting, fifo, heap,
                           activity, slack)
            lead = hosts[0]
            lead_body = len(bodies[0])

        while True:
            if fifo:
                what, obj = popleft()
            elif heap:
                now, _, what, obj = heappop(heap)
                while heap and heap[0][0] == now:
                    entry = heappop(heap)
                    push((entry[2], entry[3]))
            else:
                break

            if what == GET:
                # The dispatcher requests its engine (FIFO per engine).
                e = obj.op[0]
                if held[e]:
                    waiting[e].append(obj)
                else:
                    held[e] = True
                    push((GRANT, obj))
                continue

            if what == GRANT:
                dev = obj.op
                busy = dev[1]
                if dev[0] == COMPUTE:
                    extra = starvation_charge(gpu, idle_gap(now))
                    starved += extra
                else:
                    extra = 0.0
                obj.start = now
                obj.extra = extra
                note(now + busy + extra)
                t = now + (busy + extra)
                if t > now:
                    seq += 1
                    heappush(heap, (t, seq, DONE, obj))
                else:
                    push((DONE, obj))
                continue

            if what == DONE:
                s = obj
                dev = s.op
                e = dev[0]
                note(now)
                queue = waiting[e]
                if queue:
                    push((GRANT, queue.popleft()))
                else:
                    held[e] = False
                name = dev[5]
                code = codes.get(name)
                if code is None:
                    code = codes[name] = float(len(names))
                    names.append(name)
                if e == COMPUTE:
                    rows += (s.start, now, s.sid, 0.0, dev[3], dev[4],
                             KERNEL, code, NONE)
                    add_meta({"starvation_cost": s.extra, **dev[6]})
                else:
                    rows += (s.start, now, s.sid, dev[6], dev[3], dev[4],
                             MEMCPY_ROW, code, dev[7])
                    add_meta(None)
                s.outstanding -= 1
                if dev[2] is not None:
                    # The host of a sync memcpy or a blocking launch
                    # waits for the completion.
                    push((RETURNED, dev[2]))
                if not s.outstanding and s.drain:
                    for w in s.drain:
                        push(w)
                    s.drain = []
                if s.items:
                    s.op = s.items.popleft()
                    push((GET, s))
                else:
                    s.waiting = True
                    s.op = None
                continue

            h = obj
            if what == SUBMIT:
                call = h.call
                op = call[0]
                s = h.stream
                if op == OP_SYNC_STREAM:
                    if s.outstanding:
                        s.drain.append((RETURNED, h))
                    else:
                        push((RETURNED, h))
                    continue
                if op == OP_SYNC_DEVICE:
                    h.drained = 0
                    s = streams[0]
                    if s.outstanding:
                        s.drain.append((DRAINING, h))
                    else:
                        push((DRAINING, h))
                    continue
                # Submit the op to the stream. An accepted async op
                # resumes its host first (the StorePut), then hands the
                # op to a waiting dispatcher (the StoreGet).
                if op == OP_LAUNCH:
                    blocking = call[5]
                    dev = (COMPUTE, h.busy, h if blocking else None, h.corr,
                           h.thread, call[3], call[4])
                    if not blocking:
                        push((RETURNED, h))
                elif op == OP_MEMCPY:
                    dev = (call[1], call[2], h, h.corr, h.thread, call[5],
                           call[3], call[4])
                elif op == OP_GRAPH:
                    # One put per node: an accepted put resumes the host
                    # to submit the next node; the last one's records
                    # the call or, blocking, waits for the node to
                    # complete (a wake-up without effect).
                    nodes = call[2]
                    node = nodes[h.node]
                    h.node += 1
                    waiter = None
                    if h.node < len(nodes):
                        push((SUBMIT, h))
                    elif call[4]:
                        waiter = h
                    else:
                        push((RETURNED, h))
                    dev = (node[0], node[1], waiter, h.corr,
                           h.thread) + node[2:]
                else:
                    dev = (call[1], call[2], None, h.corr, h.thread, call[5],
                           call[3], call[4])
                    push((RETURNED, h))
                s.outstanding += 1
                if s.waiting:
                    s.waiting = False
                    s.op = dev
                    push((GET, s))
                else:
                    if len(s.items) >= MAX_STREAM_DEPTH:
                        raise NotImplementedError(
                            "stream queue deeper than the Store capacity"
                        )
                    s.items.append(dev)
                continue

            if what == DRAINING:
                h.drained += 1
                if h.drained < len(streams):
                    s = streams[h.drained]
                    if s.outstanding:
                        s.drain.append((DRAINING, h))
                    else:
                        push((DRAINING, h))
                    continue
                what = RETURNED

            if what == RETURNED:
                call = h.call
                op = call[0]
                api = _API_NAMES[op]
                code = codes.get(api)
                if code is None:
                    code = codes[api] = float(len(names))
                    names.append(api)
                if op >= OP_SYNC_STREAM:
                    rows += (h.start, now, NONE, 0.0, h.corr, h.thread,
                             SYNC, code, NONE)
                else:
                    rows += (h.start, now, NONE, 0.0, h.corr, h.thread,
                             API, code, NONE)
                add_meta(dict(call[3]) if op == OP_GRAPH else None)
                if not slack.is_zero:
                    delay = slack.sample()
                    injected += delay
                    if delay > 0.0:
                        sleeps += 1
                        h.start = now
                        t = now + delay
                        if t > now:
                            seq += 1
                            heappush(heap, (t, seq, SLACKED, h))
                        else:
                            push((SLACKED, h))
                        continue
            elif what == SLACKED:
                api = _API_NAMES[h.call[0]]
                name = "slack:" + api
                code = codes.get(name)
                if code is None:
                    code = codes[name] = float(len(names))
                    names.append(name)
                rows += (h.start, now, NONE, 0.0, 0.0, h.thread, SLACK, code,
                         NONE)
                add_meta({"api": api})
            elif what == EXIT:
                exited += 1
                if exited == parties:
                    push((RUN, main))
                continue

            # RUN: execute the host's next instruction.
            if len(rows) >= block_len:
                blocks.append(_block(rows))
                rows.clear()
            program = h.program
            pc = h.pc
            if pc == len(program):
                if main is not None:
                    push((EXIT, h))
                continue
            if h is lead and pc and not pc % lead_body:
                skip = watch.cycle_start(now, corr, starved, injected, sleeps,
                                         rows, blocks, metas)
                if skip is not None:
                    m, (period, dcorr, dstarved, dinjected, dsleeps) = skip
                    now += m * period
                    corr += m * dcorr
                    starved += m * dstarved
                    injected += m * dinjected
                    sleeps += m * dsleeps
                    pc = h.pc
                if not watch.watching:
                    lead = None
            call = program[pc]
            h.pc = pc + 1
            op = call[0]
            if op == OP_CPU:
                mu = call[1]
                if mu is None:
                    x = call[2]
                else:
                    x = jitter[mu][draws]
                    draws += 1
                t = now + quantize(x / call[3] + call[4])
                what = RUN
            elif op == OP_BARRIER:
                barrier.append(h)
                if len(barrier) >= parties:
                    for w in barrier:
                        push((RUN, w))
                    barrier = []
                continue
            else:
                if op == OP_LAUNCH:
                    mu = call[1]
                    if mu is None:
                        d = call[2]
                    else:
                        d = jitter[mu][draws]
                        draws += 1
                    h.busy = quantize(explicit_execution_time(d, gpu))
                    t = now + launch_s
                elif op == OP_GRAPH:
                    h.node = 0
                    t = now + call[1]
                else:
                    t = now + api_s
                h.call = call
                h.start = now
                corr += 1.0
                h.corr = corr
                what = SUBMIT
            if t > now:
                seq += 1
                heappush(heap, (t, seq, what, h))
            else:
                push((what, h))

        blocks.append(_block(rows))
        if watch is not None:
            refusal = watch.refusal
        return FlatRun(
            _trace(blocks, names, metas),
            now,
            starved,
            injected,
            slack.calls_delayed - delayed,
            sleeps,
            watch.skipped if watch is not None else 0,
            watch.period if watch is not None else 0.0,
            watch.sleeps_skipped if watch is not None else 0,
            refusal,
        )

    def _jitter_tables(
        self,
        bodies: Sequence[Sequence[Tuple]],
        count: int,
        join: Optional[Sequence[Tuple]],
    ) -> Dict[float, List[float]]:
        """Every jitter draw of a run (host ``i`` runs ``bodies[i]``
        ``count`` times, then ``join`` runs once), drawn up front.

        Returns ``tables`` such that the run's ``j``-th draw, made for
        an instruction with log-normal mu ``mu``, is ``tables[mu][j]``.
        Numpy's log-normal is the exponential of a normal variate, so
        each draw consumes the generator the same way whatever its mu:
        the ``j``-th draw's variate is fixed, only its mu depends on
        which host gets there first. With one drawing host the draw
        order is its program order and one batched call with the mus in
        that order suffices; with several, each distinct mu gets the
        whole sequence of draws from the same starting state. Both equal
        the sequential scalar draws bit for bit.
        """
        rng = self.rng
        mus: Dict[int, List[float]] = {}  # hosts may share one body
        for body in bodies:
            if id(body) not in mus:
                mus[id(body)] = _mus(body) * count
        order = [mus[id(body)] for body in bodies]
        if join is not None:
            order.append(_mus(join))
        total = sum(len(mus) for mus in order)
        if not total:
            return {}
        drawing = [mus for mus in order if mus]
        if len(drawing) == 1:
            values = rng.lognormal(np.array(drawing[0]), self.sigma).tolist()
            return dict.fromkeys(drawing[0], values)
        start = rng.bit_generator.state
        tables: Dict[float, List[float]] = {}
        for mu in dict.fromkeys(m for mus in drawing for m in mus):
            rng.bit_generator.state = start
            tables[mu] = rng.lognormal(mu, self.sigma, size=total).tolist()
        return tables


def des_reason(
    fast_forward: Optional[bool], faults: Optional[Any]
) -> Optional[str]:
    """Why a workload's run goes to the DES interpreter
    (:func:`~repro.gpusim.interpret.run_des`) rather than the index
    core (None = core), as far as every GPU workload shares it.

    ``disabled`` — ``fast_forward=False`` selects the event-by-event
    reference run; ``faults-active`` — a non-empty fault plan, which
    only the DES models. ``fast_forward=None`` and ``True`` dispatch
    alike. A workload may add reasons of its own after these.
    """
    if fast_forward is False:
        return "disabled"
    if faults is not None and not faults.is_empty:
        return "faults-active"
    return None


def skip_refusal(slack: SlackModel, cycles: int) -> Optional[str]:
    """Why a run of ``cycles`` cycles under ``slack`` may not skip its
    steady state (None: it may, if its programs allow).

    Only the exact base model without jitter hands out the same delay
    on every call; subclasses (e.g. ``PreloadShim``) may sample. Below
    :data:`MIN_ITERATIONS` cycles a skip saves nothing.
    """
    if type(slack) is not SlackModel:
        return "slack-model-subclass"
    if slack.jitter_fraction > 0:
        return "slack-jitter"
    if cycles < MIN_ITERATIONS:
        return "too-few-iterations"
    return None


def _program_refusal(bodies: Sequence[Sequence[Tuple]]) -> Optional[str]:
    """Why these program bodies may not skip cycles (None: they may):
    jitter draws differ from cycle to cycle, a barrier's waiting list
    is state the watch does not take, and a graph launch's delays are
    off the tick grid, where a shifted time need not be the float the
    full run reaches."""
    if any(_mus(body) for body in bodies):
        return "jitter"
    ops = {call[0] for body in bodies for call in body}
    if OP_BARRIER in ops:
        return "phase-barrier"
    if OP_GRAPH in ops:
        return "graph-off-grid"
    return None


def _mus(program: Sequence[Tuple]) -> List[float]:
    """The log-normal mus of a program's jitter draws, in order."""
    return [
        call[1] for call in program
        if call[0] <= OP_LAUNCH and call[1] is not None
    ]


class _Watch:
    """Certifies a run's steady state at thread 0's cycle starts and
    skips the cycles it proves (see the module docstring).

    The state may repeat only every few cycles (free-running threads
    that take turns on the engines), so each cycle start is compared
    with every earlier one; the most recent match gives the period.
    The watch holds the run's mutable containers; the loop passes it
    the scalar state it keeps in locals, and applies the skip to those.
    """

    def __init__(self, bodies, hosts, streams, held, waiting, fifo, heap,
                 activity, slack) -> None:
        self.bodies = [len(body) for body in bodies]
        self.hosts = hosts
        self.streams = streams
        self.held = held
        self.waiting = waiting
        self.fifo = fifo
        self.heap = heap
        self.activity = activity
        self.slack = slack
        self.watching = True
        self.refusal: Optional[str] = "too-few-iterations"
        self.skipped = 0
        self.period = 0.0
        self.sleeps_skipped = 0
        #: (state, counters) at every watched cycle start.
        self._seen: List[Tuple[tuple, Tuple[float, ...]]] = []

    def cycle_start(self, now, corr, starved, injected, sleeps, rows, blocks,
                    metas):
        """Thread 0 is about to start a cycle. Returns ``None``, or the
        number ``m`` of periods skipped and the per-period change of
        ``(now, corr, starved, injected, sleeps)`` the loop must add
        ``m`` times.
        """
        hosts, bodies, seen = self.hosts, self.bodies, self._seen
        # Whole cycles every host can skip and still run one more.
        room = min(
            (len(h.program) - h.pc) // body
            for h, body in zip(hosts, bodies) if body
        ) - 1
        if room < 1 or len(seen) >= MAX_WARMUP_EPOCHS:
            if room >= 1:
                self.refusal = "no-fixed-point"
            self.watching = False
            return None
        slack = self.slack
        state = self._state(now, corr)
        counters = (now, corr, starved, injected, sleeps, slack.calls_delayed,
                    slack.total_injected_s, len(metas))
        for j in range(len(seen) - 1, -1, -1):
            if seen[j][0] == state:
                break
        else:
            seen.append((state, counters))
            return None
        self.watching = False
        cycles = len(seen) - j  # thread-0 cycles per period
        m = room // cycles
        if m < 1:
            return None
        before = seen[j][1]
        delta = [b - a for a, b in zip(before, counters)]
        period, dcorr = delta[0], delta[1]
        shift, corr_shift = m * period, m * dcorr
        for h, body in zip(hosts, bodies):
            h.pc += m * cycles * body
            h.start += shift
            h.corr += corr_shift
        for s in self.streams:
            s.start += shift
            if s.op is not None:
                s.op = _renumbered(s.op, corr_shift)
            s.items = deque(_renumbered(dev, corr_shift) for dev in s.items)
        self.heap[:] = [(t + shift, q, w, o) for t, q, w, o in self.heap]
        if self.activity.ever_busy:
            self.activity.busy_until += shift
        slack.calls_delayed += m * int(delta[5])
        slack.total_injected_s += m * delta[6]
        _repeat_rows(rows, blocks, metas, int(before[7]), m, period, dcorr)
        self.refusal = None
        self.skipped = m * cycles
        self.period = period
        self.sleeps_skipped = m * int(delta[4])
        return m, tuple(delta[:5])

    def _state(self, now: float, corr: float) -> tuple:
        """The plain state, times relative to ``now``, ids to ``corr``."""
        cycle = self.hosts[0].pc // self.bodies[0]
        activity = self.activity
        return (
            tuple(
                (h.pc - cycle * body, h.call, h.start - now, corr - h.corr,
                 h.busy, h.drained)
                for h, body in zip(self.hosts, self.bodies)
            ),
            tuple(
                (s.outstanding, s.waiting, _relative(s.op, corr),
                 tuple(_relative(dev, corr) for dev in s.items),
                 tuple(s.drain), s.extra,
                 None if s.op is None else s.start - now)
                for s in self.streams
            ),
            tuple(self.held),
            tuple(tuple(queue) for queue in self.waiting),
            tuple(self.fifo),
            tuple((t - now, w, o) for t, _, w, o in sorted(self.heap)),
            activity.busy_until - now if activity.ever_busy else None,
        )


def _relative(dev: Optional[Tuple], corr: float) -> Optional[Tuple]:
    """A queued op with its correlation id relative to ``corr``."""
    return None if dev is None else dev[:3] + (corr - dev[3],) + dev[4:]


def _renumbered(dev: Tuple, corr_shift: float) -> Tuple:
    """A queued op with its correlation id advanced by ``corr_shift``."""
    return dev[:3] + (dev[3] + corr_shift,) + dev[4:]


def _repeat_rows(
    rows: List[float],
    blocks: List[np.ndarray],
    metas: List[Optional[Dict[str, Any]]],
    first: int,
    n: int,
    period: float,
    dcorr: float,
) -> None:
    """Append ``n`` copies of the trace rows from ``first`` on, copy
    ``k`` shifted by ``k`` periods and (non-zero ids) ``k * dcorr``."""
    blocks.append(_block(rows))
    rows.clear()
    table = np.concatenate(blocks, axis=1)
    cycle = table[:, first:]
    copies = np.tile(cycle, n)
    tiles = copies.reshape(len(COLUMNS), n, -1)
    k = np.arange(1.0, n + 1.0)[:, np.newaxis]
    tiles[_START] += k * period
    tiles[_END] += k * period
    tiles[_CORR] += (k * dcorr) * (cycle[_CORR] != 0.0)
    blocks[:] = [table, copies]
    metas.extend(metas[first:] * n)


def _block(rows: List[float]) -> np.ndarray:
    """Recorded rows as a float64 block holding one row per field."""
    return np.array(rows, dtype=np.float64).reshape(-1, len(COLUMNS)).T


def _mu(mu: Any) -> Optional[float]:
    """An instruction's log-normal mu, as a plain float (or None)."""
    return None if mu is None else float(mu)


def _trace(
    blocks: List[np.ndarray],
    names: List[str],
    metas: List[Optional[Dict[str, Any]]],
) -> Trace:
    """The ``gpu0`` trace of the recorded rows (float64 ``blocks`` of
    one row per :data:`COLUMNS` field)."""
    # Every int field is far below 2**53, so float64 holds all nine
    # fields exactly; the store casts the int columns back.
    table = np.concatenate(blocks, axis=1)
    columns = {col: table[i] for i, col in enumerate(COLUMNS)}
    store = ColumnStore.from_columns(columns, names, metas)
    return Trace(name="gpu0", store=store)
