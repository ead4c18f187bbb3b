"""CosmoFlow traced training: the profile the paper collects with NSys.

Reproduces the observed CPU-GPU interaction pattern:

* per step, TensorFlow dispatches the step's ~50 kernels in quick
  succession; per-op host dispatch costs make the launch phase take
  about **1/7th of the sequence's execution time** (the paper's
  number), overlapped with device execution;
* input batches arrive through a double-buffered prefetch pipeline:
  one large H2D every ``prefetch_batches`` steps (the (256, 4096] MiB
  transfers of Table III);
* Horovod-style gradient exchange every other training step (staged
  D2H of a fused gradient buffer), periodic optimizer-state sync, and
  small per-step loss/metric copies;
* the host side needs only ~2 cores (the input pipeline), which is why
  the paper measures no benefit from additional CPU resources.

Profiles run on the index core (:mod:`repro.apps.cosmoflow.core`),
which computes this DES's profile bit for bit without an event loop.
The DES here is the reference: it runs for ``fast_forward=False`` and
for non-empty fault plans, which only it models. The profile records
which ran in :attr:`~repro.apps.base.AppProfile.fastforward`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, List, Optional, Tuple

import numpy as np

from ...des import Environment, Event, quantize
from ...faults import FaultPlan
from ...gpusim import CudaRuntime, KernelSpec
from ...gpusim.flatcore import FastForwardInfo
from ...hw import A100_SXM4_40GB, GPUSpec, MiB, PCIE_GEN4_X16, PCIeSpec
from ...network import SlackModel
from ...trace import ColumnarTrace, CopyKind, EventKind
from ..base import (
    AppProfile,
    core_fallback_reason,
    iteration_ordered,
    jitter_sigma,
    lognormal_mu,
    publish_appcore,
    publish_fastforward,
)
from .core import cosmoflow_core
from .model import CosmoFlowNet

__all__ = [
    "CosmoFlowProfileConfig",
    "profile_cosmoflow",
    "cosmoflow_cpu_runtime",
    "COSMOFLOW_REQUIRED_CORES",
    "LAUNCH_PHASE_FRACTION",
]

#: Cores CosmoFlow actually needs (paper: found by limiting resources).
COSMOFLOW_REQUIRED_CORES = 2

#: The paper's trace reading: kernel launching takes ~1/7 of the
#: sequence duration, happening in parallel with execution.
LAUNCH_PHASE_FRACTION = 1.0 / 7.0


@dataclass(frozen=True)
class CosmoFlowProfileConfig:
    """Configuration of one traced CosmoFlow run (mini dataset)."""

    batch_size: int = 4
    epochs: int = 5
    train_samples: int = 1024
    val_samples: int = 1024
    prefetch_batches: int = 4
    gradient_exchange_every: int = 2
    weight_sync_every: int = 4
    gpu: GPUSpec = field(default_factory=lambda: A100_SXM4_40GB)
    pcie: PCIeSpec = field(default_factory=lambda: PCIE_GEN4_X16)
    jitter: float = 0.08
    seed: int = 42

    def __post_init__(self) -> None:
        if self.batch_size <= 0 or self.epochs <= 0:
            raise ValueError("batch_size and epochs must be positive")
        if self.train_samples <= 0 or self.val_samples < 0:
            raise ValueError("sample counts must be positive")
        if min(self.prefetch_batches, self.gradient_exchange_every,
               self.weight_sync_every) <= 0:
            raise ValueError("cadence parameters must be positive")

    @property
    def train_steps(self) -> int:
        """Optimizer steps per run."""
        return self.epochs * (self.train_samples // self.batch_size)

    @property
    def val_steps(self) -> int:
        """Validation (forward-only) steps per run."""
        return self.epochs * (self.val_samples // self.batch_size)


@dataclass(frozen=True)
class _StepPlan:
    """Kernel sequences, host costs and transfer sizes of one traced run."""

    train_kernels: List[KernelSpec]
    val_kernels: List[KernelSpec]
    #: Host op-dispatch cost per kernel, sized so the launch phase
    #: covers LAUNCH_PHASE_FRACTION of the sequence's execution time.
    train_dispatch: float
    val_dispatch: float
    prefetch_bytes: int
    weight_bytes: int

    gradient_bytes = 8 * MiB  # fused gradient buffer
    loss_bytes = 4 * 1024
    counter_bytes = 4 * 1024
    summary_bytes = 100 * 1024
    metric_bytes = 300 * 1024

    @classmethod
    def of(cls, config: CosmoFlowProfileConfig) -> "_StepPlan":
        net = CosmoFlowNet(batch_size=config.batch_size)
        train_kernels = net.training_step_kernels()
        val_kernels = net.validation_step_kernels()
        return cls(
            train_kernels=train_kernels,
            val_kernels=val_kernels,
            train_dispatch=(
                net.step_gpu_seconds(config.gpu, training=True)
                * LAUNCH_PHASE_FRACTION
                / len(train_kernels)
            ),
            val_dispatch=(
                net.step_gpu_seconds(config.gpu, training=False)
                * LAUNCH_PHASE_FRACTION
                / len(val_kernels)
            ),
            prefetch_bytes=(
                config.prefetch_batches * config.batch_size
                * net.sample_bytes()
            ),
            # weights + optimizer state
            weight_bytes=int(3 * 4 * net.parameter_count()),
        )

    @staticmethod
    def phases(config: CosmoFlowProfileConfig) -> List[Tuple[bool, int, int]]:
        """``(training, first step, steps)`` of every phase, in run order:
        each epoch's train phase, then its validation phase."""
        train = config.train_samples // config.batch_size
        val = config.val_samples // config.batch_size
        out = []
        for epoch in range(config.epochs):
            step0 = epoch * (train + val)
            out += [(True, step0, train), (False, step0 + train, val)]
        return out


def profile_cosmoflow(
    config: Optional[CosmoFlowProfileConfig] = None,
    slack: Optional[SlackModel] = None,
    *,
    fast_forward: Optional[bool] = None,
    faults: Optional[FaultPlan] = None,
) -> AppProfile:
    """Run the traced CosmoFlow training and return its profile.

    Parameters
    ----------
    fast_forward:
        On (the default) runs the index core
        (:mod:`repro.apps.cosmoflow.core`), which computes the reference
        DES's profile bit for bit without an event loop; ``False`` runs
        the reference DES event by event. ``profile.fastforward``
        records which ran.
    faults:
        Optional :class:`~repro.faults.FaultPlan` degrading the fabric
        for this run. A non-empty plan runs on the DES
        (``reason="faults-active"``).
    """
    config = config or CosmoFlowProfileConfig()
    slack_model = slack or SlackModel.none()
    plan = _StepPlan.of(config)
    enabled = True if fast_forward is None else bool(fast_forward)
    fallback = core_fallback_reason(enabled, faults)
    publish_appcore(fallback)
    if fallback is None:
        run = cosmoflow_core(config, slack_model, plan)
        runtime, trace = run.end_s, run.trace
    else:
        runtime, trace = _profile_des(config, slack_model, plan, faults)
    trace = iteration_ordered(trace)
    info = FastForwardInfo(
        enabled=enabled, certified=False, reason=fallback or "no-app-skip"
    )
    publish_fastforward(info)
    api_calls = trace.count_kind(EventKind.API)
    # The paper's pessimistic parallelism: launches take ~1/7 of the
    # sequence, i.e. ~7 kernels deep; halved to 4 as the pessimistic
    # equivalent queue depth.
    parallelism = max(1, round(1.0 / LAUNCH_PHASE_FRACTION) // 2 + 1)
    return AppProfile(
        name="cosmoflow",
        trace=trace,
        runtime_s=runtime,
        queue_parallelism=parallelism,
        cuda_calls_per_second=api_calls / runtime,
        fastforward=info,
    )


def _profile_des(
    config: CosmoFlowProfileConfig,
    slack_model: SlackModel,
    plan: _StepPlan,
    faults: Optional[FaultPlan],
) -> Tuple[float, ColumnarTrace]:
    """The reference DES run: runtime and trace."""
    env = Environment()
    injector = faults.compile(env) if faults is not None else None
    rt = CudaRuntime(
        env, gpu=config.gpu, pcie=config.pcie, slack=slack_model,
        faults=injector,
    )
    rng = np.random.default_rng(config.seed)
    sigma = jitter_sigma(config.jitter)

    def jittered(mean: float) -> float:
        if config.jitter == 0 or mean <= 0:
            return mean
        return float(rng.lognormal(lognormal_mu(mean, sigma), sigma))

    def run_step(
        stream, kernels: List[KernelSpec], dispatch: float, step: int,
        training: bool,
    ) -> Generator[Event, Any, None]:
        # Input prefetch: one large staged H2D every prefetch_batches
        # steps (async — the pipeline keeps a buffer ahead).
        if step % config.prefetch_batches == 0:
            yield from rt.memcpy_async(plan.prefetch_bytes, CopyKind.H2D,
                                       stream)
        # Dispatch the kernel sequence with per-op host cost
        # (tick-quantized like every simulated device delay, keeping
        # the run on the dyadic grid of repro.des.timebase).
        for spec in kernels:
            yield env.timeout(quantize(jittered(dispatch)))
            jk = KernelSpec(
                name=spec.name,
                duration_s=jittered(spec.execution_time(config.gpu)),
                meta=spec.meta,
            )
            yield from rt.launch(jk, stream)
        if training:
            if step % config.gradient_exchange_every == 0:
                yield from rt.memcpy(plan.gradient_bytes, CopyKind.D2H,
                                     stream)
            if step % config.weight_sync_every == 0:
                yield from rt.memcpy(plan.weight_bytes, CopyKind.D2H, stream)
        # Per-step small copies: loss scalar and step counters always,
        # training summaries and periodic metrics besides — together
        # the ~3.2 sub-MiB transfers per step Table III counts. The
        # host then waits for the sequence ("the CPU performs other
        # tasks in the background and waits for the sequence to
        # complete").
        yield from rt.memcpy(plan.loss_bytes, CopyKind.D2H, stream)
        yield from rt.memcpy(plan.counter_bytes, CopyKind.H2D, stream)
        if training:
            yield from rt.memcpy(plan.summary_bytes, CopyKind.D2H, stream)
        if step % 2 == 0:
            yield from rt.memcpy(plan.metric_bytes, CopyKind.D2H, stream)
        yield from rt.synchronize(stream=stream)

    def main() -> Generator[Event, Any, float]:
        t0 = env.now
        stream = rt.create_stream()
        for training, step0, steps in plan.phases(config):
            if training:
                kernels, dispatch = plan.train_kernels, plan.train_dispatch
            else:
                kernels, dispatch = plan.val_kernels, plan.val_dispatch
            for step in range(step0, step0 + steps):
                yield from run_step(stream, kernels, dispatch, step, training)
        yield from rt.synchronize()
        return env.now - t0

    main_proc = env.process(main(), name="cosmoflow-main")
    env.run()
    return float(main_proc.value), rt.tracer.trace


def cosmoflow_cpu_runtime(
    cores: int,
    config: Optional[CosmoFlowProfileConfig] = None,
    gpu: GPUSpec = A100_SXM4_40GB,
) -> float:
    """Analytic runtime vs CPU-core allocation (paper Section IV-A).

    CosmoFlow's host side is a ~2-core input pipeline; the GPU path
    bounds the step time once those 2 cores are available, so runtime
    is flat above ``COSMOFLOW_REQUIRED_CORES`` and degrades below
    (the pipeline stops hiding behind the GPU).
    """
    if cores <= 0:
        raise ValueError("cores must be positive")
    config = config or CosmoFlowProfileConfig()
    gpu_time = (
        config.train_steps * CosmoFlowNet(config.batch_size).step_gpu_seconds(gpu)
        + config.val_steps
        * CosmoFlowNet(config.batch_size).step_gpu_seconds(gpu, training=False)
    )
    # Launch phase overlaps; the exposed host cost is the dispatch tail.
    gpu_path = gpu_time * (1.0 + LAUNCH_PHASE_FRACTION / 7.0)
    pipeline_full = gpu_time * 0.6  # input pipeline work at 2 cores
    effective = min(cores, COSMOFLOW_REQUIRED_CORES)
    pipeline = pipeline_full * COSMOFLOW_REQUIRED_CORES / effective
    return max(gpu_path, pipeline)
