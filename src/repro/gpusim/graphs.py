"""CUDA-Graphs-style batched submission — a slack mitigation.

Slack is charged per *host-visible API call*. CUDA Graphs let an
application capture a whole sequence of kernels and memcpys once and
replay it with a single launch call — collapsing N per-call slack
charges into one per replay. For a CDI deployment this is the obvious
software mitigation, and the simulator can quantify exactly how much
of the starvation penalty it recovers (see ``ext_graphs``).

:class:`CudaGraph` captures operations against a runtime;
:meth:`CudaGraph.launch` enqueues the whole sequence onto a stream
with one API overhead + one slack charge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, List, Optional, Union

from ..des.core import Event
from ..trace.events import CopyKind, EventKind
from .kernels import KernelSpec
from .runtime import CudaRuntime
from .stream import CopyOp, KernelOp, Stream

__all__ = ["GraphNode", "CudaGraph"]


@dataclass(frozen=True)
class GraphNode:
    """One captured operation: a kernel or a memcpy."""

    kind: str  # "kernel" | "memcpy"
    kernel: Optional[KernelSpec] = None
    nbytes: int = 0
    copy_kind: Optional[CopyKind] = None

    def __post_init__(self) -> None:
        if self.kind == "kernel":
            if self.kernel is None:
                raise ValueError("kernel node needs a KernelSpec")
        elif self.kind == "memcpy":
            if self.nbytes <= 0 or self.copy_kind is None:
                raise ValueError("memcpy node needs nbytes and a direction")
            if self.copy_kind is CopyKind.D2D:
                raise ValueError("D2D copies do not cross the host link")
        else:
            raise ValueError(f"unknown node kind {self.kind!r}")


class CudaGraph:
    """A captured sequence of device operations, replayable in one call."""

    def __init__(self, runtime: CudaRuntime, name: str = "graph") -> None:
        self.runtime = runtime
        self.name = name
        self.nodes: List[GraphNode] = []
        self._instantiated = False
        self.replays = 0

    # -- capture -----------------------------------------------------------------
    def add_kernel(self, kernel: KernelSpec) -> "CudaGraph":
        """Capture a kernel launch."""
        self._check_mutable()
        self.nodes.append(GraphNode(kind="kernel", kernel=kernel))
        return self

    def add_memcpy(self, nbytes: int, kind: CopyKind) -> "CudaGraph":
        """Capture a memcpy."""
        self._check_mutable()
        self.nodes.append(
            GraphNode(kind="memcpy", nbytes=nbytes, copy_kind=kind)
        )
        return self

    def instantiate(self) -> "CudaGraph":
        """Freeze the graph (cudaGraphInstantiate)."""
        if not self.nodes:
            raise ValueError("cannot instantiate an empty graph")
        self._instantiated = True
        return self

    @property
    def instantiated(self) -> bool:
        """Whether the graph is frozen and launchable."""
        return self._instantiated

    def _check_mutable(self) -> None:
        if self._instantiated:
            raise RuntimeError("graph is instantiated; capture is closed")

    # -- replay ---------------------------------------------------------------------
    def launch(
        self,
        stream: Optional[Stream] = None,
        thread: int = 0,
        blocking: bool = False,
    ) -> Generator[Event, Any, List[Union[KernelOp, CopyOp]]]:
        """Replay the captured sequence with ONE host API call.

        The host pays one launch overhead and one slack charge for the
        entire sequence; the device executes the nodes in capture
        order on ``stream``. With ``blocking`` the call returns after
        the last node retires.
        """
        if not self._instantiated:
            raise RuntimeError("instantiate() the graph before launching")
        rt = self.runtime
        stream = stream or rt.default_stream
        env = rt.env
        start = env.now
        corr = rt.tracer.next_correlation_id()
        yield env.timeout(rt.gpu.launch_overhead_s)
        ops: List[Union[KernelOp, CopyOp]] = []
        for node in self.nodes:
            if node.kind == "kernel":
                op: Union[KernelOp, CopyOp] = KernelOp(
                    completion=env.event(),
                    thread=thread,
                    correlation_id=corr,
                    kernel=node.kernel,
                )
            else:
                op = CopyOp(
                    completion=env.event(),
                    thread=thread,
                    correlation_id=corr,
                    nbytes=node.nbytes,
                    copy_kind=node.copy_kind,
                    transfer_time=rt.pcie.transfer_time(node.nbytes),
                )
            yield stream.submit(op)
            ops.append(op)
        if blocking:
            yield ops[-1].completion
        rt.tracer.record(
            EventKind.API, "cudaGraphLaunch", start, env.now,
            correlation_id=corr, thread=thread,
            meta={"graph": self.name, "nodes": len(self.nodes)},
        )
        yield from rt.injector.after_call("cudaGraphLaunch", thread)
        self.replays += 1
        return ops
