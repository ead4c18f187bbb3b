"""The simulated CUDA runtime: the host-facing API of one GPU.

:class:`CudaRuntime` reproduces the host-device contract the paper's
proxy exercises: ``malloc``/``free`` on a 40 GiB device memory,
synchronous and asynchronous ``memcpy`` over a PCIe-modelled link,
kernel ``launch`` with driver overhead, per-stream ordering, and
``synchronize``. Every host-visible API call routes through the
:class:`SlackInjector`, which is the CDI emulation point.

All API methods are generator functions to be driven from a DES
process with ``yield from``::

    def host(env, rt):
        a = rt.malloc(nbytes)
        yield from rt.memcpy(nbytes, CopyKind.H2D)
        yield from rt.launch(matmul_kernel(4096))
        yield from rt.memcpy(nbytes, CopyKind.D2H)
        yield from rt.synchronize()
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Generator, Optional, Tuple

from ..des.core import Environment, Event
from ..des.timebase import quantize
from ..hw.specs import A100_SXM4_40GB, GPUSpec, PCIE_GEN4_X16, PCIeSpec
from ..hw.memory import DeviceAllocation, DeviceMemory
from ..network.slack import SlackModel
from ..trace.events import CopyKind, EventKind
from ..trace.tracer import Tracer
from .engines import ComputeEngine, CopyEngine, DeviceActivity, OccupancyComputeEngine
from .interception import SlackInjector
from .kernels import KernelSpec
from .stream import CopyOp, KernelOp, Stream

__all__ = ["CudaRuntime", "API_OVERHEAD_S", "host_overheads", "transfer_delay"]

#: Host driver cost of a memcpy/sync API call (the default of
#: :class:`CudaRuntime`'s ``api_overhead_s``).
API_OVERHEAD_S = 1.5e-6


def host_overheads(
    gpu: GPUSpec, api_overhead_s: float = API_OVERHEAD_S
) -> Tuple[float, float]:
    """Tick-quantized host costs ``(memcpy/sync call, kernel launch)``.

    All delays the runtime feeds into the simulation are snapped to the
    dyadic tick grid (repro.des.timebase): event timestamps stay
    exactly representable, which is what lets the steady-state
    fast-forward engine certify bit-exact periodicity.
    """
    return quantize(api_overhead_s), quantize(gpu.launch_overhead_s)


def transfer_delay(pcie: PCIeSpec, nbytes: int) -> float:
    """Copy-engine busy time of one ``nbytes`` transfer, tick-quantized."""
    return quantize(pcie.transfer_time(nbytes))


class CudaRuntime:
    """One simulated GPU and its host-side CUDA-like API.

    Parameters
    ----------
    env:
        The simulation environment.
    gpu:
        Device characteristics (default A100-SXM4-40GB).
    pcie:
        The host link (default PCIe Gen4 x16); its latency and
        bandwidth set memcpy transfer times.
    tracer:
        Destination for kernel/memcpy/slack trace events; a fresh
        tracer is created if omitted.
    slack:
        The CDI slack model; default none (traditional in-node GPU).
    api_overhead_s:
        Host driver cost of a memcpy/sync API call.
    faults:
        Optional compiled :class:`~repro.faults.FaultInjector` (from
        :meth:`repro.faults.FaultPlan.compile` with this runtime's
        ``env``). Wires the degraded fabric into the slack injector
        (per-call downtime/loss/spike effects) and the compute engine
        (GPU stalls). ``None`` (the default, and what an empty plan
        compiles to) keeps every fault check off the hot path.
    """

    def __init__(
        self,
        env: Environment,
        gpu: GPUSpec = A100_SXM4_40GB,
        pcie: PCIeSpec = PCIE_GEN4_X16,
        tracer: Optional[Tracer] = None,
        slack: Optional[SlackModel] = None,
        api_overhead_s: float = API_OVERHEAD_S,
        concurrent_kernels: bool = False,
        faults: Optional[Any] = None,
    ) -> None:
        if api_overhead_s < 0:
            raise ValueError("api_overhead_s must be non-negative")
        self.env = env
        self.gpu = gpu
        self.pcie = pcie
        self.tracer = tracer or Tracer(env, name="gpu0")
        self.memory = DeviceMemory(gpu.memory_bytes)
        # Quantized host costs (see host_overheads). The memo dicts
        # below are a hot-path win — transfer and kernel times for the
        # proxy's handful of distinct shapes are computed once.
        self.api_overhead_s, self._launch_overhead_s = host_overheads(
            gpu, api_overhead_s
        )
        self._transfer_time_memo: Dict[int, float] = {}
        self._kernel_time_memo: Dict[int, Any] = {}

        self.activity = DeviceActivity()
        # concurrent_kernels switches the compute unit to SM-occupancy
        # co-scheduling: small kernels from different streams share the
        # device (the default serializes, matching one saturating
        # kernel at a time — the proxy's matmul regime).
        self.compute = (
            OccupancyComputeEngine(env, gpu, self.activity)
            if concurrent_kernels
            else ComputeEngine(env, gpu, self.activity)
        )
        self.copy_h2d = CopyEngine(env, "copy-h2d", self.activity)
        self.copy_d2h = CopyEngine(env, "copy-d2h", self.activity)

        self.faults = faults
        if faults is not None:
            self.compute.faults = faults
        self.injector = SlackInjector(env, self.tracer, slack, faults=faults)

        self._stream_ids = itertools.count(0)
        self._streams: Dict[int, Stream] = {}
        self.default_stream = self.create_stream()

        # Always-on lightweight accounting (API-level, not the DES hot
        # loop), pulled by repro.obs.simulation_snapshot after a run.
        self.api_calls = 0
        self.kernel_launches = 0
        self.memcpy_count = 0
        self.memcpy_bytes_h2d = 0
        self.memcpy_bytes_d2h = 0

    # -- configuration -----------------------------------------------------------
    @property
    def slack(self) -> SlackModel:
        """The active slack model."""
        return self.injector.model

    def set_slack(self, model: SlackModel) -> None:
        """Swap the slack model (used by sweeps)."""
        self.injector.model = model

    def create_stream(self) -> Stream:
        """Create a new stream (cudaStreamCreate)."""
        sid = next(self._stream_ids)
        stream = Stream(
            self.env,
            sid,
            self.compute,
            self.copy_h2d,
            self.copy_d2h,
            self.tracer,
            gpu_execution_time=self._kernel_time,
        )
        self._streams[sid] = stream
        return stream

    @property
    def streams(self) -> Dict[int, Stream]:
        """All created streams by id."""
        return dict(self._streams)

    # -- memory management (host-side, no simulated time) --------------------------
    def malloc(self, nbytes: int, tag: str = "") -> DeviceAllocation:
        """Allocate device memory (cudaMalloc)."""
        return self.memory.malloc(nbytes, tag=tag)

    def free(self, alloc: DeviceAllocation) -> None:
        """Free device memory (cudaFree)."""
        self.memory.free_allocation(alloc)

    # -- data movement ---------------------------------------------------------------
    def memcpy_async(
        self,
        nbytes: int,
        kind: CopyKind,
        stream: Optional[Stream] = None,
        thread: int = 0,
    ) -> Generator[Event, Any, CopyOp]:
        """cudaMemcpyAsync: enqueue a transfer, return its op handle.

        The host pays the API overhead and the injected slack, then
        continues; wait on ``op.completion`` for the data.
        """
        if nbytes <= 0:
            raise ValueError("nbytes must be positive")
        if kind is CopyKind.D2D:
            raise ValueError("D2D copies do not cross the host link")
        stream = stream or self.default_stream
        start = self.env.now
        corr = self.tracer.next_correlation_id()
        yield self.env.timeout(self.api_overhead_s)
        op = CopyOp(
            completion=self.env.event(),
            thread=thread,
            correlation_id=corr,
            nbytes=nbytes,
            copy_kind=kind,
            transfer_time=self._transfer_time(nbytes),
        )
        yield stream.submit(op)
        self._account_memcpy(nbytes, kind)
        self._record_api("cudaMemcpyAsync", start, corr, thread)
        yield from self.injector.after_call("cudaMemcpyAsync", thread)
        return op

    def memcpy(
        self,
        nbytes: int,
        kind: CopyKind,
        stream: Optional[Stream] = None,
        thread: int = 0,
    ) -> Generator[Event, Any, CopyOp]:
        """cudaMemcpy: synchronous transfer (blocks the host thread)."""
        if nbytes <= 0:
            raise ValueError("nbytes must be positive")
        if kind is CopyKind.D2D:
            raise ValueError("D2D copies do not cross the host link")
        stream = stream or self.default_stream
        start = self.env.now
        corr = self.tracer.next_correlation_id()
        yield self.env.timeout(self.api_overhead_s)
        op = CopyOp(
            completion=self.env.event(),
            thread=thread,
            correlation_id=corr,
            nbytes=nbytes,
            copy_kind=kind,
            transfer_time=self._transfer_time(nbytes),
        )
        yield stream.submit(op)
        yield op.completion
        self._account_memcpy(nbytes, kind)
        self._record_api("cudaMemcpy", start, corr, thread)
        yield from self.injector.after_call("cudaMemcpy", thread)
        return op

    # -- kernels -------------------------------------------------------------------
    def launch(
        self,
        kernel: KernelSpec,
        stream: Optional[Stream] = None,
        thread: int = 0,
        blocking: bool = False,
    ) -> Generator[Event, Any, KernelOp]:
        """Launch a kernel.

        The host pays the driver launch overhead plus slack; the
        kernel executes when the stream reaches it. With
        ``blocking=True`` (the ``CUDA_LAUNCH_BLOCKING=1`` behaviour the
        paper's proxy uses as its pessimistic synchronous mode) the
        call returns only after the kernel completes, which keeps the
        injected slack on the critical path so Equation 1's
        ``n_calls * slack`` subtraction is exact.
        """
        stream = stream or self.default_stream
        start = self.env.now
        corr = self.tracer.next_correlation_id()
        yield self.env.timeout(self._launch_overhead_s)
        op = KernelOp(
            completion=self.env.event(),
            thread=thread,
            correlation_id=corr,
            kernel=kernel,
        )
        yield stream.submit(op)
        if blocking:
            yield op.completion
        self.kernel_launches += 1
        self._record_api("cudaLaunchKernel", start, corr, thread)
        yield from self.injector.after_call("cudaLaunchKernel", thread)
        return op

    # -- synchronization ---------------------------------------------------------------
    def synchronize(
        self, stream: Optional[Stream] = None, thread: int = 0
    ) -> Generator[Event, Any, None]:
        """cudaDeviceSynchronize / cudaStreamSynchronize.

        With ``stream`` given, waits for that stream only; otherwise
        for every stream on the device.
        """
        start = self.env.now
        corr = self.tracer.next_correlation_id()
        yield self.env.timeout(self.api_overhead_s)
        if stream is not None:
            yield stream.drained()
            name = "cudaStreamSynchronize"
        else:
            for s in self._streams.values():
                yield s.drained()
            name = "cudaDeviceSynchronize"
        self.api_calls += 1
        self.tracer.record(
            EventKind.SYNC, name, start, self.env.now, correlation_id=corr,
            thread=thread,
        )
        yield from self.injector.after_call(name, thread)

    # -- statistics --------------------------------------------------------------------
    def engine_utilization(self) -> Dict[str, float]:
        """Busy fractions of the three device engines."""
        return {
            "compute": self.compute.utilization(),
            "copy_h2d": self.copy_h2d.utilization(),
            "copy_d2h": self.copy_d2h.utilization(),
        }

    def total_starvation_cost(self) -> float:
        """Accumulated GPU-starvation cost (the paper's residual penalty)."""
        return self.compute.total_starvation_cost

    # -- quantized delay memos -----------------------------------------------------
    def _transfer_time(self, nbytes: int) -> float:
        """PCIe transfer time for ``nbytes``, tick-quantized and memoized."""
        t = self._transfer_time_memo.get(nbytes)
        if t is None:
            t = transfer_delay(self.pcie, nbytes)
            self._transfer_time_memo[nbytes] = t
        return t

    def _kernel_time(self, kernel: KernelSpec) -> float:
        """Kernel execution time on this GPU, tick-quantized and memoized.

        Keyed by identity with the spec kept alive in the entry, so a
        recycled ``id`` can never alias a different kernel.
        """
        hit = self._kernel_time_memo.get(id(kernel))
        if hit is not None and hit[0] is kernel:
            return hit[1]
        t = quantize(kernel.execution_time(self.gpu))
        self._kernel_time_memo[id(kernel)] = (kernel, t)
        return t

    def _record_api(
        self, name: str, start: float, corr: int, thread: int
    ) -> None:
        self.api_calls += 1
        self.tracer.record(
            EventKind.API, name, start, self.env.now, correlation_id=corr,
            thread=thread,
        )

    def _account_memcpy(self, nbytes: int, kind: CopyKind) -> None:
        self.memcpy_count += 1
        if kind is CopyKind.H2D:
            self.memcpy_bytes_h2d += nbytes
        else:
            self.memcpy_bytes_d2h += nbytes
