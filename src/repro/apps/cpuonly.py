"""CPU-only workloads — the paper's third application category.

"The case of CPU only applications is important for CDI as trapping of
GPU resources would traditionally occur with these jobs. However, no
slack exists in CPU jobs as there is no accelerator." (Sec III-D)

:class:`CpuOnlyApp` is a parameterized CPU workload (a stencil-style
iterative solver) with a standard strong-scaling model. Its role in
the reproduction is the *scheduling* analysis: on heterogeneous nodes
every CPU-only job traps that node's GPUs; under CDI it simply never
composes any. :func:`trapped_gpu_analysis` quantifies the fleet-level
effect for a mixed job stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, Optional, Sequence, Tuple

import numpy as np

from ..cdi.scheduler import (
    CDIScheduler,
    JobRequest,
    ScheduleOutcome,
    TraditionalScheduler,
)
from ..cdi.resources import CPUNode, GPUChassis, ResourcePool
from ..des.core import Environment, Event
from ..des.timebase import quantize
from ..gpusim.flatcore import FastForwardInfo
from .base import AppProfile

__all__ = [
    "CpuOnlyApp",
    "CpuOnlyProfileConfig",
    "profile_cpuonly",
    "trapped_gpu_analysis",
]


@dataclass(frozen=True)
class CpuOnlyApp:
    """An iterative CPU solver: serial fraction + parallel work + halo.

    A classic Amdahl/halo strong-scaling model — enough structure to
    pick sensible core counts for the scheduling studies.
    """

    name: str = "stencil"
    serial_s: float = 10.0
    parallel_s: float = 1000.0
    halo_per_rank_s: float = 0.4

    def __post_init__(self) -> None:
        if self.serial_s < 0 or self.parallel_s < 0 or self.halo_per_rank_s < 0:
            raise ValueError("cost terms must be non-negative")

    def runtime(self, cores: int) -> float:
        """Strong-scaling runtime on ``cores`` cores."""
        if cores <= 0:
            raise ValueError("cores must be positive")
        halo = self.halo_per_rank_s * (cores - 1) if cores > 1 else 0.0
        return self.serial_s + self.parallel_s / cores + halo

    def best_core_count(self, candidates: Sequence[int] = (1, 2, 4, 8, 16,
                                                           24, 48)) -> int:
        """The core count minimizing runtime among ``candidates``."""
        return min(candidates, key=self.runtime)

    def request(self, cores: int | None = None) -> JobRequest:
        """A scheduler request for this job (zero GPUs, by nature)."""
        return JobRequest(
            name=self.name,
            cores=cores if cores is not None else self.best_core_count(),
            gpus=0,
        )


@dataclass(frozen=True)
class CpuOnlyProfileConfig:
    """Configuration of one traced CPU-only run.

    The profile exists so the registry/conformance contract covers the
    paper's third application category uniformly: the run executes on
    the simulator clock (iteration timeouts on the dyadic grid), but —
    as Section III-D observes — issues **no** CUDA calls, so its trace
    is empty and its slack sensitivity identically zero.
    """

    app: CpuOnlyApp = field(default_factory=CpuOnlyApp)
    cores: int = 48
    iterations: int = 50
    jitter: float = 0.0
    seed: int = 2024

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ValueError("cores must be positive")
        if self.iterations <= 0:
            raise ValueError("iterations must be positive")
        if not 0 <= self.jitter < 1:
            raise ValueError("jitter must be in [0, 1)")


def profile_cpuonly(
    config: Optional[CpuOnlyProfileConfig] = None,
    slack: Optional[Any] = None,
    *,
    fast_forward: Optional[bool] = None,
    faults: Optional[Any] = None,
) -> AppProfile:
    """Run the traced CPU-only solver and return its (traceless) profile.

    Signature-compatible with the GPU apps' profilers so the registry
    can treat every workload uniformly. ``slack`` and ``faults`` are
    accepted and inert — there is no accelerator for either to act on
    — and steady-state fast-forward always refuses with
    ``reason="cpu-only"`` (nothing device-side to certify), recorded
    on the profile like any other gate.
    """
    from ..trace.store import Trace

    config = config or CpuOnlyProfileConfig()
    env = Environment()
    rng = np.random.default_rng(config.seed)
    step_s = config.app.runtime(config.cores) / config.iterations

    def jittered(mean: float) -> float:
        if config.jitter == 0:
            return mean
        sigma = np.sqrt(np.log(1 + config.jitter**2))
        return float(rng.lognormal(np.log(mean) - sigma**2 / 2, sigma))

    def solver() -> Generator[Event, Any, float]:
        t0 = env.now
        for _ in range(config.iterations):
            yield env.timeout(quantize(jittered(step_s)))
        return env.now - t0

    main_proc = env.process(solver(), name="cpuonly-main")
    env.run()

    enabled = True if fast_forward is None else bool(fast_forward)
    info = FastForwardInfo(
        enabled=enabled,
        certified=False,
        reason="disabled" if not enabled else "cpu-only",
    )
    return AppProfile(
        name="cpuonly",
        trace=Trace(name="cpuonly"),
        runtime_s=float(main_proc.value),
        queue_parallelism=1,
        cuda_calls_per_second=0.0,
        fastforward=info,
    )


def trapped_gpu_analysis(
    cpu_jobs: int,
    cores_per_job: int = 48,
    node_count: int = 32,
    cores_per_node: int = 48,
    gpus_per_node: int = 4,
) -> Tuple[ScheduleOutcome, ScheduleOutcome]:
    """Schedule a stream of CPU-only jobs both ways.

    Returns ``(traditional, cdi)`` outcomes. Under traditional
    scheduling every CPU-only job occupies heterogeneous nodes and
    traps their GPUs (burning idle power, blocking GPU jobs); under
    CDI the same jobs take cores only.
    """
    if cpu_jobs <= 0:
        raise ValueError("cpu_jobs must be positive")
    jobs = [
        CpuOnlyApp(name=f"cpu-job-{i}").request(cores=cores_per_job)
        for i in range(cpu_jobs)
    ]
    traditional = TraditionalScheduler(
        node_count=node_count,
        cores_per_node=cores_per_node,
        gpus_per_node=gpus_per_node,
    ).schedule(jobs)
    pool = ResourcePool(
        nodes=[
            CPUNode(node_id=f"n{i}", sockets=cores_per_node // 24)
            for i in range(node_count)
        ],
        chassis=[
            GPUChassis(chassis_id=f"c{i}", gpu_count=gpus_per_node * 4)
            for i in range(node_count // 4)
        ],
    )
    cdi = CDIScheduler(pool).schedule(jobs)
    return traditional, cdi
