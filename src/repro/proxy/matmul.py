"""The slack proxy application (paper Section III-C).

A synchronous square-matmul loop: copy A and B to the device, compute
C = A x B, copy C back, synchronize — five CUDA API calls per
iteration, each followed by the injected slack. ``threads`` OpenMP
threads run the loop in parallel (each with its own stream and its
own three matrices), which is the paper's controlled knob for queue
parallelism. Kernel launches are blocking ("synchronous is used to
capture the pessimistic case"), keeping every injected delay on the
critical path so Equation 1's correction is exact.

:func:`run_proxy` builds the loop once, as
:class:`~repro.gpusim.flatcore.FlatDevice` programs, and computes the
run on one of two interpreters with the same result: the index core of
:mod:`repro.proxy.core`, which skips the loop's steady state once it
is certified, for everything it covers; or the DES interpreter
(:func:`~repro.gpusim.interpret.run_des`), the reference, for
``fast_forward=False`` and what the core does not model.
:func:`core_fallback_reason` is the rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..gpusim.flatcore import FastForwardInfo, FlatDevice, des_reason
from ..hw.specs import A100_SXM4_40GB, GPUSpec, PCIE_GEN4_X16, PCIeSpec
from ..hw.memory import DeviceMemory, OutOfMemoryError
from ..network.slack import SlackModel
from ..obs.publish import simulation_snapshot
from ..trace.store import Trace
from .calibration import calibrate_iterations, time_single_kernel
from .core import iteration_body, proxy_core

if TYPE_CHECKING:
    from ..faults.plan import FaultPlan

__all__ = [
    "ProxyConfig",
    "ProxyResult",
    "CUDA_CALLS_PER_ITERATION",
    "core_fallback_reason",
    "run_proxy",
    "FastForwardInfo",
]

#: The paper's count for Equation 1: 3 matrix transfers + 1 kernel
#: launch + 1 host-device synchronization per loop iteration.
CUDA_CALLS_PER_ITERATION = 5


@dataclass(frozen=True)
class ProxyConfig:
    """Parameters of one proxy run.

    ``iterations=None`` triggers the paper's auto-calibration
    (~30 s of GPU compute, clamped to [5, 1000]).
    """

    matrix_size: int = 4096
    threads: int = 1
    iterations: Optional[int] = None
    dtype_bytes: int = 4
    gpu: GPUSpec = field(default_factory=lambda: A100_SXM4_40GB)
    pcie: PCIeSpec = field(default_factory=lambda: PCIE_GEN4_X16)
    target_compute_s: float = 30.0
    phase_barrier: bool = False
    thread_launch_offset_s: float = 0.0
    iteration_spacing_s: float = 0.0

    def __post_init__(self) -> None:
        if self.matrix_size <= 0:
            raise ValueError("matrix_size must be positive")
        if self.threads <= 0:
            raise ValueError("threads must be positive")
        if self.iterations is not None and self.iterations <= 0:
            raise ValueError("iterations must be positive")
        if self.dtype_bytes <= 0:
            raise ValueError("dtype_bytes must be positive")
        if self.thread_launch_offset_s < 0:
            raise ValueError("thread_launch_offset_s must be non-negative")
        if self.iteration_spacing_s < 0:
            raise ValueError("iteration_spacing_s must be non-negative")

    @property
    def matrix_bytes(self) -> int:
        """Bytes of one matrix."""
        return self.matrix_size * self.matrix_size * self.dtype_bytes

    @property
    def device_bytes_needed(self) -> int:
        """Device memory for all threads' A, B and C matrices."""
        return 3 * self.matrix_bytes * self.threads


@dataclass(frozen=True)
class ProxyResult:
    """Outcome of one proxy run."""

    config: ProxyConfig
    slack_s: float
    iterations: int
    kernel_time_s: float
    loop_runtime_s: float
    injected_slack_s: float
    starvation_cost_s: float
    trace: Trace
    #: Flat simulator telemetry (``des.*``/``gpu.*``/``fabric.*``
    #: dotted names) snapshotted at end of run; see repro.obs.
    sim_metrics: Dict[str, float] = field(default_factory=dict)
    #: How steady-state fast-forward engaged for this run (None only
    #: for results built before the knob existed, e.g. old pickles).
    #: Excluded from comparison: a fast-forwarded result is the same
    #: result, reached cheaper.
    fastforward: Optional[FastForwardInfo] = field(default=None, compare=False)
    #: Why the index core did not compute this run (None: it did); see
    #: :func:`core_fallback_reason`. Excluded from comparison like
    #: ``fastforward``.
    core_fallback: Optional[str] = field(default=None, compare=False)

    @property
    def cuda_calls(self) -> int:
        """Total slack-delayed CUDA calls on one thread's critical path."""
        return CUDA_CALLS_PER_ITERATION * self.iterations

    @property
    def corrected_runtime_s(self) -> float:
        """Equation 1: remove the direct per-call delay from the runtime.

        ``Time_NoSlack = Time - num_CUDA_calls * Slack_call`` with the
        per-thread call count (threads sleep concurrently, so only one
        thread's slack chain sits on the wall-clock critical path).
        """
        return self.loop_runtime_s - self.cuda_calls * self.slack_s


def core_fallback_reason(
    config: ProxyConfig,
    *,
    fast_forward: Optional[bool] = None,
    faults: Optional[FaultPlan] = None,
) -> Optional[str]:
    """Why a run goes to the DES interpreter rather than the index core
    (None = core).

    First the reasons every GPU workload shares
    (:func:`~repro.gpusim.interpret.des_reason`: ``disabled``,
    ``faults-active``), then what the proxy's core does not model:
    ``phase-barrier``, ``iteration-spacing`` and
    ``thread-launch-offset``, checked in that order. Everything else
    runs on the core, which skips the steady state where it can certify
    one. ``fast_forward=None`` and ``True`` dispatch alike.
    """
    shared = des_reason(fast_forward, faults)
    if shared is not None:
        return shared
    if config.phase_barrier:
        return "phase-barrier"
    if config.iteration_spacing_s > 0:
        return "iteration-spacing"
    if config.thread_launch_offset_s > 0:
        return "thread-launch-offset"
    return None


def run_proxy(
    config: ProxyConfig,
    slack: Optional[SlackModel] = None,
    *,
    kernel_time_s: Optional[float] = None,
    fast_forward: Optional[bool] = None,
    faults: Optional[FaultPlan] = None,
) -> ProxyResult:
    """Execute the proxy in a fresh simulation and collect its result.

    Parameters
    ----------
    kernel_time_s:
        Pre-computed single-kernel duration (skips the calibration
        mini-simulation; sweeps hoist it so every point of one matrix
        size shares the calibration).
    fast_forward:
        Steady-state fast-forward: once the loop is certified
        bit-exactly periodic, the remaining iterations are extrapolated
        analytically instead of simulated — same result, O(warmup)
        iterations. On (``None``, the default, or ``True``), every run
        the index core (:mod:`repro.proxy.core`) covers is computed
        there and skips its steady state where it can (see
        :func:`core_fallback_reason`). ``False`` runs the same programs
        event by event on the DES interpreter. ``result.fastforward`` and
        ``result.core_fallback`` record what happened.
    faults:
        Optional :class:`~repro.faults.FaultPlan` degrading the fabric
        for this run (compiled per simulation, seeded, fully
        deterministic). Fault-induced delay is accounted separately
        from injected slack, so Equation 1's correction stays honest;
        an empty plan is exactly the healthy run. Active plans run on
        the DES interpreter (``reason="faults-active"``).

    Raises
    ------
    OutOfMemoryError
        If the matrices of all threads exceed device memory — e.g.
        matrix size 2^15 with 4+ threads on a 40 GiB A100, which is
        why that series is absent from the paper's Figure 3(b, c).
    repro.faults.FabricTimeoutError
        If a fault plan's message loss exhausts its retry budget on
        some call (propagates from the simulated waiting process).
    """
    slack = slack or SlackModel.none()
    kernel_time = (
        kernel_time_s
        if kernel_time_s is not None
        else time_single_kernel(
            config.matrix_size, config.gpu, config.pcie, config.dtype_bytes
        )
    )
    iterations = config.iterations or calibrate_iterations(
        kernel_time, target_s=config.target_compute_s
    )
    fallback = core_fallback_reason(
        config, fast_forward=fast_forward, faults=faults
    )
    _allocate(config, DeviceMemory(config.gpu.memory_bytes))
    dev = FlatDevice(config.gpu, config.pcie, slack)
    body = iteration_body(dev, config.matrix_size, config.dtype_bytes)
    if fallback is None:
        run, sim_metrics, info = proxy_core(config, dev, body, iterations)
        loop_runtime, trace = run.end_s, run.trace
        injected, starvation = run.injected_slack_s, run.starvation_s
    else:
        from ..gpusim.interpret import run_des

        loop_runtime, rt = run_des(
            dev,
            _thread_programs(config, body, iterations),
            range(config.threads),
            faults=faults,
        )
        trace = rt.tracer.trace
        injected = rt.injector.total_injected_s
        starvation = rt.total_starvation_cost()
        sim_metrics = simulation_snapshot(rt.env, rt)
        info = FastForwardInfo(
            enabled=fast_forward is not False, certified=False,
            reason=fallback,
        )
    return ProxyResult(
        config=config,
        slack_s=slack.slack_s,
        iterations=iterations,
        kernel_time_s=kernel_time,
        loop_runtime_s=loop_runtime,
        injected_slack_s=injected,
        starvation_cost_s=starvation,
        trace=trace,
        sim_metrics=sim_metrics,
        fastforward=info,
        core_fallback=fallback,
    )


def _thread_programs(
    config: ProxyConfig, body: List[Tuple], iterations: int
) -> List[List[Tuple]]:
    """Each thread's whole loop as one DES program.

    By default the OpenMP threads free-run (the paper's proxy): each
    thread's slack sleeps overlap the other threads' device work, which
    is the latency-hiding mechanism that makes parallel submitters
    slack-tolerant. In this regime the Equation-1 correction can land
    *below* the baseline (it subtracts slack that was actually hidden);
    the response surface clamps such negative residuals to zero
    penalty. With ``phase_barrier`` the threads instead synchronize
    after each of the five CUDA calls (worksharing-barrier semantics),
    exposing exactly CUDA_CALLS_PER_ITERATION delays per iteration — the
    conservative variant the ablation benchmarks compare against.

    The paper's additional control experiments stagger each thread's
    start (thread ``t`` waits ``t`` launch offsets) and space out the
    loop iterations; both were found to have no correlation with the
    slack penalty (reproduced in tests/proxy/test_proxy.py). Like every
    host delay they are tick-quantized.
    """
    if config.phase_barrier and config.threads > 1:
        body = [step for call in body for step in (call, FlatDevice.BARRIER)]
    spacing = config.iteration_spacing_s
    gap = [FlatDevice.cpu(spacing)] if spacing else []
    loop = body + (gap + body) * (iterations - 1)
    offset = config.thread_launch_offset_s
    return [
        ([FlatDevice.cpu(offset * t)] if offset and t else []) + loop
        for t in range(config.threads)
    ]


def _allocate(config: ProxyConfig, memory: DeviceMemory) -> None:
    """Allocate every thread's matrices up front (fail fast on OOM,
    mirroring the proxy's startup allocation)."""
    if config.device_bytes_needed > memory.capacity:
        raise OutOfMemoryError(
            f"{config.threads} threads x 3 matrices of {config.matrix_bytes} B "
            f"exceed device memory ({memory.capacity} B)"
        )
    for t in range(config.threads):
        for name in "ABC":
            memory.malloc(config.matrix_bytes, tag=f"thread{t}-{name}")
