"""The proxy loop on the reference DES: the oracles of its index-core runs.

Calibration (:func:`repro.proxy.time_single_kernel`), the remoting
comparison (``ext_remoting``) and the CUDA-Graphs mitigation
(``ext_graphs``) run the proxy's loop body on
:class:`~repro.gpusim.flatcore.FlatDevice`. These are the same loops
written event by event against :class:`~repro.gpusim.CudaRuntime` and
:class:`~repro.gpusim.CudaGraph`, as the product ran them before; the
parity tests require the core to reproduce them bit for bit.

:func:`run_programs` is the general form the graph-op property drives:
host programs of plain calls and graph launches, each host on its own
stream.
"""

from typing import Callable, List, Sequence, Tuple

from repro.des import Environment
from repro.gpusim import CudaGraph, CudaRuntime, KernelSpec, matmul_kernel
from repro.hw import A100_SXM4_40GB, GPUSpec, PCIE_GEN4_X16, PCIeSpec
from repro.network import SlackModel
from repro.trace import CopyKind


def _iteration(rt, nbytes, kernel):
    """One proxy iteration on the default stream."""
    yield from rt.memcpy(nbytes, CopyKind.H2D)
    yield from rt.memcpy(nbytes, CopyKind.H2D)
    yield from rt.launch(kernel, blocking=True)
    yield from rt.memcpy(nbytes, CopyKind.D2H)
    yield from rt.synchronize()


def time_single_kernel(
    matrix_size: int,
    gpu: GPUSpec = A100_SXM4_40GB,
    pcie: PCIeSpec = PCIE_GEN4_X16,
    dtype_bytes: int = 4,
) -> float:
    """The kernel's duration in one slack-free proxy iteration."""
    env = Environment()
    rt = CudaRuntime(env, gpu=gpu, pcie=pcie)
    kernel = matmul_kernel(matrix_size, dtype_bytes)
    nbytes = matrix_size * matrix_size * dtype_bytes
    env.process(_iteration(rt, nbytes, kernel))
    env.run()
    return float(rt.tracer.trace.kernels()[0].duration)


def loop_time(
    build_runtime: Callable[[Environment], CudaRuntime], n: int,
    iters: int = 10,
) -> float:
    """Wall time of ``iters`` proxy iterations of ``n``-square matrices
    on the runtime ``build_runtime`` makes (``ext_remoting``)."""
    env = Environment()
    rt = build_runtime(env)
    nbytes = n * n * 4
    kernel = matmul_kernel(n)

    def host():
        t0 = env.now
        for _ in range(iters):
            yield from _iteration(rt, nbytes, kernel)
        return env.now - t0

    proc = env.process(host())
    env.run()
    return proc.value


def graphs_loop(
    slack_s: float, use_graph: bool, n: int = 512, iters: int = 50
) -> float:
    """Wall time of ``iters`` proxy iterations under ``slack_s``, as
    five calls each or as one captured graph (``ext_graphs``)."""
    env = Environment()
    rt = CudaRuntime(env, slack=SlackModel(slack_s))
    nbytes = n * n * 4
    kernel = matmul_kernel(n)
    if use_graph:
        graph = (
            CudaGraph(rt)
            .add_memcpy(nbytes, CopyKind.H2D)
            .add_memcpy(nbytes, CopyKind.H2D)
            .add_kernel(kernel)
            .add_memcpy(nbytes, CopyKind.D2H)
            .instantiate()
        )

        def host():
            t0 = env.now
            for _ in range(iters):
                yield from graph.launch(blocking=True)
            return env.now - t0

    else:

        def host():
            t0 = env.now
            for _ in range(iters):
                yield from _iteration(rt, nbytes, kernel)
            return env.now - t0

    proc = env.process(host())
    env.run()
    return proc.value


#: A program step: ``("h2d" | "d2h", nbytes, sync)``,
#: ``("kernel", name, duration_s, blocking)``, ``("sync",)`` (the
#: host's stream) or ``("graph", nodes, blocking)`` with nodes
#: ``("kernel", name, duration_s)`` and ``("h2d" | "d2h", nbytes)``.
Step = Tuple


def run_programs(
    rt: CudaRuntime, programs: Sequence[Sequence[Step]], iters: int
) -> List[CudaGraph]:
    """Run host ``i`` as thread ``i`` on its own new stream, repeating
    ``programs[i]`` ``iters`` times; each graph step is captured once
    and replayed. Returns the graphs."""
    graphs: List[CudaGraph] = []
    compiled = []
    for program in programs:
        steps = []
        for step in program:
            if step[0] == "graph":
                graph = CudaGraph(rt)
                for node in step[1]:
                    if node[0] == "kernel":
                        graph.add_kernel(
                            KernelSpec(name=node[1], duration_s=node[2])
                        )
                    else:
                        graph.add_memcpy(node[1], _COPY[node[0]])
                graphs.append(graph.instantiate())
                steps.append(("graph", graph, step[2]))
            elif step[0] == "kernel":
                kernel = KernelSpec(name=step[1], duration_s=step[2])
                steps.append(("kernel", kernel, step[3]))
            else:
                steps.append(step)
        compiled.append(steps)

    def host(thread, stream, steps):
        for _ in range(iters):
            for step in steps:
                kind = step[0]
                if kind == "graph":
                    yield from step[1].launch(stream, thread, step[2])
                elif kind == "kernel":
                    yield from rt.launch(step[1], stream, thread, step[2])
                elif kind == "sync":
                    yield from rt.synchronize(stream, thread)
                elif step[2]:
                    yield from rt.memcpy(step[1], _COPY[kind], stream, thread)
                else:
                    yield from rt.memcpy_async(step[1], _COPY[kind], stream,
                                               thread)

    for thread, steps in enumerate(compiled):
        rt.env.process(host(thread, rt.create_stream(), steps))
    rt.env.run()
    return graphs


_COPY = {"h2d": CopyKind.H2D, "d2h": CopyKind.D2H}
