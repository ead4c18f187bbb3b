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

The host side is written once, as one
:class:`~repro.gpusim.flatcore.FlatDevice` program. Profiles run it on
the index core, which computes the run without an event loop;
``fast_forward=False`` and non-empty fault plans run it event by event
on the DES interpreter (:func:`~repro.gpusim.interpret.run_des`), the
core's reference and the only engine that models faults. The profile
records which ran in :attr:`~repro.apps.base.AppProfile.fastforward`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ...gpusim.kernels import KernelSpec
from ...gpusim.flatcore import FlatDevice
from ...hw.specs import A100_SXM4_40GB, GPUSpec, MiB, PCIE_GEN4_X16, PCIeSpec
from ...network.slack import SlackModel
from ...trace.events import CopyKind, EventKind
from ..base import AppProfile, app_device, run_programs
from .model import CosmoFlowNet

if TYPE_CHECKING:
    from ...faults.plan import FaultPlan

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
        On (the default) runs the index core, which computes the run
        without an event loop; ``False`` runs the same program event by
        event on the DES interpreter. ``profile.fastforward`` records
        which ran.
    faults:
        Optional :class:`~repro.faults.FaultPlan` degrading the fabric
        for this run. A non-empty plan runs on the DES interpreter
        (``reason="faults-active"``).
    """
    config = config or CosmoFlowProfileConfig()
    slack_model = slack or SlackModel.none()
    dev, program = _program(config, slack_model)
    runtime, trace, info = run_programs(
        dev, [program], [0], fast_forward=fast_forward, faults=faults
    )
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


def _program(
    config: CosmoFlowProfileConfig, slack: SlackModel
) -> Tuple[FlatDevice, List[Tuple]]:
    """The device and the host's program: every step in run order, each
    distinct step (training or validation, with the cadences that fall
    on it) built once, then a device sync."""
    plan = _StepPlan.of(config)
    dev, mu = app_device(config, slack)

    def sequence(kernels: List[KernelSpec], dispatch: float) -> List[Tuple]:
        # Per kernel: the host's op-dispatch cost (tick-quantized like
        # every simulated device delay, keeping the run on the dyadic
        # grid of repro.des.timebase), then the launch.
        host = dev.cpu(dispatch, mu(dispatch))
        out: List[Tuple] = []
        for spec in kernels:
            mean = spec.execution_time(config.gpu)
            out += [host, dev.launch(spec.name, mean, mu(mean), spec.meta)]
        return out

    train = sequence(plan.train_kernels, plan.train_dispatch)
    val = sequence(plan.val_kernels, plan.val_dispatch)
    # Input prefetch: one large staged H2D every prefetch_batches steps
    # (async: the pipeline keeps a buffer ahead).
    prefetch = dev.memcpy(plan.prefetch_bytes, CopyKind.H2D, sync=False)
    gradient = dev.memcpy(plan.gradient_bytes, CopyKind.D2H)
    weights = dev.memcpy(plan.weight_bytes, CopyKind.D2H)
    loss = dev.memcpy(plan.loss_bytes, CopyKind.D2H)
    counter = dev.memcpy(plan.counter_bytes, CopyKind.H2D)
    summary = dev.memcpy(plan.summary_bytes, CopyKind.D2H)
    metric = dev.memcpy(plan.metric_bytes, CopyKind.D2H)

    def step_program(
        training: bool, prefetching: bool, exchanging: bool, syncing: bool,
        metrics: bool,
    ) -> List[Tuple]:
        out: List[Tuple] = []
        if prefetching:
            out.append(prefetch)
        out += train if training else val
        if training:
            if exchanging:
                out.append(gradient)
            if syncing:
                out.append(weights)
        # Per-step small copies: loss scalar and step counters always,
        # training summaries and periodic metrics besides (together the
        # ~3.2 sub-MiB transfers per step Table III counts). The host
        # then waits for the sequence ("the CPU performs other tasks in
        # the background and waits for the sequence to complete").
        out += [loss, counter]
        if training:
            out.append(summary)
        if metrics:
            out.append(metric)
        out.append(FlatDevice.SYNC_STREAM)
        return out

    cadences = (
        config.prefetch_batches,
        config.gradient_exchange_every,
        config.weight_sync_every,
        2,
    )
    steps: Dict[Tuple[bool, ...], List[Tuple]] = {}
    program: List[Tuple] = []
    for training, step0, count in plan.phases(config):
        for step in range(step0, step0 + count):
            key = (training, *(step % c == 0 for c in cadences))
            block = steps.get(key)
            if block is None:
                block = steps[key] = step_program(*key)
            program += block
    program.append(FlatDevice.SYNC_DEVICE)
    return dev, program


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
