"""The proxy loop on the reference DES: the oracles of its index-core runs.

Calibration (:func:`repro.proxy.time_single_kernel`), the remoting
comparison (``ext_remoting``) and the CUDA-Graphs mitigation
(``ext_graphs``) run the proxy's loop body on
:class:`~repro.gpusim.flatcore.FlatDevice`. These are the same loops
written event by event against :class:`~repro.gpusim.CudaRuntime` and
:class:`~repro.gpusim.CudaGraph`, as the product ran them before; the
parity tests require the core to reproduce them bit for bit.
"""

from typing import Callable

from repro.des import Environment
from repro.gpusim import CudaGraph, CudaRuntime, matmul_kernel
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
