"""The DES interpreter of :class:`~repro.gpusim.flatcore.FlatDevice` programs.

A GPU workload describes its host side once, as ``FlatDevice``
programs. :meth:`FlatDevice.run` (the index core) runs them without an
event loop; :func:`run_des` plays the same programs event by event on
:class:`CudaRuntime`, with its own streams, engines and slack
injector. It reads only opcodes and instruction fields, never the
core's state, so it stays the core's independent oracle; and it runs
fault plans, which only the DES models. The inference workload
(aperiodic arrivals) and the CPU-only apps (no GPU program) keep their
own DES code.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional, Sequence, Tuple

from ..des.resources import Barrier
from ..des.core import Environment, Event
from ..des.timebase import quantize
from ..trace.store import COPY_CODE
from .flatcore import (FlatDevice, OP_ASYNC, OP_CPU, OP_GRAPH, OP_LAUNCH,
                       OP_MEMCPY, OP_SYNC_DEVICE, OP_SYNC_STREAM)
from .graphs import CudaGraph
from .kernels import KernelSpec
from .runtime import CudaRuntime

__all__ = ["run_des"]

#: A memcpy instruction's copy code, back to its direction.
_KINDS = {float(code): kind for kind, code in COPY_CODE.items()}


def run_des(
    dev: FlatDevice,
    programs: Sequence[Sequence[Tuple]],
    threads: Sequence[int],
    join: Optional[Sequence[Tuple]] = None,
    *,
    faults: Optional[Any] = None,
) -> Tuple[float, CudaRuntime]:
    """Run host programs event by event, as :meth:`FlatDevice.run` does.

    A ``main`` process starts one process per host, in order; host
    ``i`` creates its stream, then runs ``programs[i]`` as thread
    ``threads[i]``. Once all have returned, ``main`` runs
    ``join`` (if given) as thread 0 on the default stream. The device,
    slack and jitter source are ``dev``'s; ``faults`` is an optional
    :class:`~repro.faults.FaultPlan`. Returns the time ``main`` took
    and the runtime, which holds the trace, slack, starvation and
    telemetry.
    """
    env = Environment()
    rt = CudaRuntime(
        env,
        gpu=dev.gpu,
        pcie=dev.pcie,
        slack=dev.slack,
        # Already quantized; quantizing again changes nothing.
        api_overhead_s=dev.api_overhead_s,
        faults=faults.compile(env) if faults is not None else None,
    )
    rng, sigma = dev.rng, dev.sigma
    # Every host passes barrier k before any reaches k + 1, so one
    # cyclic barrier serves them all.
    barrier = Barrier(env, len(programs))
    graphs: Dict[int, CudaGraph] = {}

    def value(mu: Optional[float], mean: float) -> float:
        # A jitter draw is made when the host reaches its instruction.
        return mean if mu is None else float(rng.lognormal(mu, sigma))

    def execute(program, stream, thread) -> Generator[Event, Any, None]:
        for call in program:
            op = call[0]
            if op == OP_CPU:
                _, mu, mean, div, add = call
                yield env.timeout(quantize(value(mu, mean) / div + add))
            elif op == OP_LAUNCH:
                _, mu, mean, name, meta, blocking = call
                kernel = KernelSpec(name, duration_s=value(mu, mean), meta=meta)
                yield from rt.launch(kernel, stream, thread, blocking)
            elif op == OP_MEMCPY:
                yield from rt.memcpy(int(call[3]), _KINDS[call[4]], stream,
                                     thread)
            elif op == OP_ASYNC:
                yield from rt.memcpy_async(int(call[3]), _KINDS[call[4]],
                                           stream, thread)
            elif op == OP_GRAPH:
                graph = graphs.get(id(call))
                if graph is None:
                    graph = graphs[id(call)] = _capture(rt, call[5])
                yield from graph.launch(stream, thread, call[4])
            elif op == OP_SYNC_STREAM:
                yield from rt.synchronize(stream=stream, thread=thread)
            elif op == OP_SYNC_DEVICE:
                yield from rt.synchronize(thread=thread)
            else:
                yield barrier.wait()

    def host(program, thread) -> Generator[Event, Any, None]:
        stream = rt.create_stream()
        yield from execute(program, stream, thread)

    def main() -> Generator[Event, Any, float]:
        t0 = env.now
        hosts = [env.process(host(p, t)) for p, t in zip(programs, threads)]
        yield env.all_of(hosts)
        if join is not None:
            yield from execute(join, rt.default_stream, 0)
        return env.now - t0

    proc = env.process(main())
    env.run()
    return float(proc.value), rt


def _capture(rt: CudaRuntime, nodes: Sequence[Tuple]) -> CudaGraph:
    """The instantiated :class:`CudaGraph` of a graph op's nodes."""
    graph = CudaGraph(rt)
    for node in nodes:
        if node[0] == OP_LAUNCH:
            graph.add_kernel(KernelSpec(node[3], duration_s=node[2],
                                        meta=node[4]))
        else:
            graph.add_memcpy(int(node[3]), _KINDS[node[4]])
    return graph.instantiate()
