"""LAMMPS GPU-package offload simulation: the traced profile.

Runs the LJ benchmark's CPU-GPU interaction pattern on the simulated
CUDA runtime, producing the kernel-duration and memcpy-size
distributions the paper extracts with NSys (Figures 4-5, Table III).

Per MPI rank, per timestep (the GPU package's data path):

* pack + H2D positions (mixed precision: 12 B/atom);
* launch the LJ pair-force kernel over the rank's subdomain;
* D2H forces (double precision: 24 B/atom);
* CPU-side integration/neighbour bookkeeping (a timeout);
* a per-step BSP barrier standing in for the MPI halo exchange.

Every ``neighbor_every`` steps a rank additionally rebuilds its
neighbour list: one small H2D (bin metadata) plus a longer build
kernel. These knobs reproduce Table III's LAMMPS row: ~84k transfers
at box 120 / 8 ranks / 5000 steps, bulk in the (1, 16] MiB (positions)
and (16, 256] MiB (forces) bins plus ~2.3k sub-MiB neighbour updates.

Profiles run on the index core (:mod:`repro.apps.lammps.core`), which
computes this DES's profile bit for bit without an event loop. The DES
here is the reference: it runs for ``fast_forward=False`` and for
non-empty fault plans, which only it models. The profile records which
ran in :attr:`~repro.apps.base.AppProfile.fastforward`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, Optional, Tuple

import numpy as np

from ...des import Barrier, Environment, Event, quantize
from ...faults import FaultPlan
from ...gpusim import CudaRuntime, KernelSpec
from ...gpusim.flatcore import FastForwardInfo
from ...hw import A100_SXM4_40GB, GPUSpec, PCIE_GEN4_X16, PCIeSpec
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
from .core import lammps_core
from .lj import LJParams
from .scaling import LammpsScalingModel

__all__ = ["LammpsProfileConfig", "profile_lammps"]

#: Mixed-precision position upload: x, y, z as float32 (12 B/atom).
POSITION_BYTES_PER_ATOM = 12
#: Double-precision force download: fx, fy, fz as float64 (24 B/atom).
FORCE_BYTES_PER_ATOM = 24
#: A100 LJ pair-force throughput, seconds per atom-step (approximately
#: 1e9 atom-steps/s, consistent with published GPU-package numbers).
PAIR_SECONDS_PER_ATOM = 1.0e-9
#: Neighbour rebuild cadence in steps (LAMMPS default every ~10-20).
NEIGHBOR_EVERY = 17


@dataclass(frozen=True)
class LammpsProfileConfig:
    """Configuration of one traced LAMMPS run."""

    params: LJParams = field(default_factory=lambda: LJParams(box_size=120))
    processes: int = 8
    threads: int = 1
    gpu: GPUSpec = field(default_factory=lambda: A100_SXM4_40GB)
    pcie: PCIeSpec = field(default_factory=lambda: PCIE_GEN4_X16)
    jitter: float = 0.10
    seed: int = 2024
    neighbor_every: int = NEIGHBOR_EVERY

    def __post_init__(self) -> None:
        if self.processes <= 0 or self.threads <= 0:
            raise ValueError("processes and threads must be positive")
        if not 0 <= self.jitter < 1:
            raise ValueError("jitter must be in [0, 1)")
        if self.neighbor_every <= 0:
            raise ValueError("neighbor_every must be positive")


@dataclass(frozen=True)
class _StepCosts:
    """Per-rank, per-timestep sizes and delays of one traced run."""

    pos_bytes: int
    force_bytes: int
    neigh_bytes: int
    #: CPU work per rank per step, from the calibrated scaling model.
    cpu_step: float
    comm_step: float
    pair_time: float

    @property
    def neigh_time(self) -> float:
        """Mean duration of the neighbour-list build kernel."""
        return self.pair_time * 2.5

    @classmethod
    def of(cls, config: LammpsProfileConfig) -> "_StepCosts":
        scaling = LammpsScalingModel()
        params = config.params
        P = config.processes
        atoms_local = params.atoms_per_process(P)
        eff = scaling.thread_efficiency(config.threads)
        return cls(
            pos_bytes=int(atoms_local * POSITION_BYTES_PER_ATOM),
            force_bytes=int(atoms_local * FORCE_BYTES_PER_ATOM),
            # bin/half-neigh metadata
            neigh_bytes=max(1, int(atoms_local * 0.5)),
            cpu_step=(
                scaling.cpu_fraction
                * scaling.work_s(params)
                / (P * config.threads * eff)
                / params.steps
            ),
            comm_step=scaling.comm_s(params, P) / params.steps,
            pair_time=atoms_local * PAIR_SECONDS_PER_ATOM,
        )


def profile_lammps(
    config: Optional[LammpsProfileConfig] = None,
    slack: Optional[SlackModel] = None,
    *,
    fast_forward: Optional[bool] = None,
    faults: Optional[FaultPlan] = None,
) -> AppProfile:
    """Run the traced LAMMPS simulation and return its profile.

    Parameters
    ----------
    fast_forward:
        On (the default) runs the index core
        (:mod:`repro.apps.lammps.core`), which computes the reference
        DES's profile bit for bit without an event loop; ``False`` runs
        the reference DES event by event. ``profile.fastforward``
        records which ran.
    faults:
        Optional :class:`~repro.faults.FaultPlan` degrading the fabric
        for this run. A non-empty plan runs on the DES
        (``reason="faults-active"``).
    """
    config = config or LammpsProfileConfig()
    slack_model = slack or SlackModel.none()
    costs = _StepCosts.of(config)
    enabled = True if fast_forward is None else bool(fast_forward)
    fallback = core_fallback_reason(enabled, faults)
    publish_appcore(fallback)
    if fallback is None:
        run = lammps_core(config, slack_model, costs)
        loop_runtime, trace = run.end_s, run.trace
    else:
        loop_runtime, trace = _profile_des(config, slack_model, costs, faults)
    trace = iteration_ordered(trace)
    info = FastForwardInfo(
        enabled=enabled, certified=False, reason=fallback or "no-app-skip"
    )
    publish_fastforward(info)
    runtime = loop_runtime + LammpsScalingModel().setup_s
    api_calls = trace.count_kind(EventKind.API)
    return AppProfile(
        name="lammps",
        trace=trace,
        runtime_s=runtime,
        # One kernel launcher per MPI rank (the paper reads 8 from its
        # traces at this configuration).
        queue_parallelism=config.processes,
        cuda_calls_per_second=api_calls / runtime,
        fastforward=info,
    )


def _profile_des(
    config: LammpsProfileConfig,
    slack_model: SlackModel,
    costs: _StepCosts,
    faults: Optional[FaultPlan],
) -> Tuple[float, ColumnarTrace]:
    """The reference DES run: loop runtime and trace."""
    env = Environment()
    injector = faults.compile(env) if faults is not None else None
    rt = CudaRuntime(
        env, gpu=config.gpu, pcie=config.pcie, slack=slack_model,
        faults=injector,
    )
    rng = np.random.default_rng(config.seed)

    P = config.processes
    pos_bytes = costs.pos_bytes
    force_bytes = costs.force_bytes
    neigh_bytes = costs.neigh_bytes
    cpu_step = costs.cpu_step
    comm_step = costs.comm_step
    pair_time = costs.pair_time
    sigma = jitter_sigma(config.jitter)

    def jittered(mean: float) -> float:
        if config.jitter == 0:
            return mean
        return float(rng.lognormal(lognormal_mu(mean, sigma), sigma))

    step_barrier = Barrier(env, P)

    def timestep(
        stream: Any, rank_id: int, rebuild: bool
    ) -> Generator[Event, Any, None]:
        # CPU-side force prep / previous-step integration. CPU delays
        # are tick-quantized like every simulated device delay, so the
        # whole run stays on the dyadic grid (repro.des.timebase).
        yield env.timeout(quantize(jittered(cpu_step) / 2))
        if rebuild:
            yield from rt.memcpy(neigh_bytes, CopyKind.H2D, stream, rank_id)
            yield from rt.launch(
                KernelSpec(
                    name="k_neigh_build",
                    duration_s=jittered(costs.neigh_time),
                ),
                stream,
                rank_id,
            )
        yield from rt.memcpy(pos_bytes, CopyKind.H2D, stream, rank_id)
        yield from rt.launch(
            KernelSpec(
                name="k_lj_cut_force", duration_s=jittered(pair_time)
            ),
            stream,
            rank_id,
        )
        yield from rt.memcpy(force_bytes, CopyKind.D2H, stream, rank_id)
        # CPU-side integration + MPI halo exchange (BSP step).
        yield env.timeout(quantize(jittered(cpu_step) / 2 + comm_step))
        yield step_barrier.wait()

    def rank(rank_id: int) -> Generator[Event, Any, None]:
        stream = rt.create_stream()
        for n in range(config.params.steps):
            yield from timestep(
                stream, rank_id, n % config.neighbor_every == 0
            )

    def main() -> Generator[Event, Any, float]:
        t0 = env.now
        ranks = [env.process(rank(r), name=f"mpi-rank-{r}") for r in range(P)]
        yield env.all_of(ranks)
        yield from rt.synchronize()
        return env.now - t0

    main_proc = env.process(main(), name="lammps-main")
    env.run()
    return float(main_proc.value), rt.tracer.trace
