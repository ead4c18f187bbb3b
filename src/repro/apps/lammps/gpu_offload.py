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

The step is written once, as :class:`~repro.gpusim.flatcore.FlatDevice`
programs (one per rank, a barrier closing every step). Profiles run
them on the index core, which computes the run without an event loop;
``fast_forward=False`` and non-empty fault plans run them event by
event on the DES interpreter (:func:`~repro.gpusim.interpret.run_des`),
the core's reference and the only engine that models faults. The
profile records which ran in
:attr:`~repro.apps.base.AppProfile.fastforward`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple

from ...gpusim.flatcore import FlatDevice
from ...hw.specs import A100_SXM4_40GB, GPUSpec, PCIE_GEN4_X16, PCIeSpec
from ...network.slack import SlackModel
from ...trace.events import CopyKind, EventKind
from ..base import AppProfile, app_device, run_programs
from .lj import LJParams
from .scaling import LammpsScalingModel

if TYPE_CHECKING:
    from ...faults.plan import FaultPlan

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
        On (the default) runs the index core, which computes the run
        without an event loop; ``False`` runs the same programs event by
        event on the DES interpreter. ``profile.fastforward`` records
        which ran.
    faults:
        Optional :class:`~repro.faults.FaultPlan` degrading the fabric
        for this run. A non-empty plan runs on the DES interpreter
        (``reason="faults-active"``).
    """
    config = config or LammpsProfileConfig()
    slack_model = slack or SlackModel.none()
    dev, program = _rank_program(config, slack_model)
    P = config.processes
    loop_runtime, trace, info = run_programs(
        dev, [program] * P, range(P), [FlatDevice.SYNC_DEVICE],
        fast_forward=fast_forward, faults=faults,
    )
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


def _rank_program(
    config: LammpsProfileConfig, slack: SlackModel
) -> Tuple[FlatDevice, List[Tuple]]:
    """The device and one MPI rank's program (every rank runs it)."""
    costs = _StepCosts.of(config)
    dev, mu = app_device(config, slack)
    cpu_mu = mu(costs.cpu_step)
    # CPU-side force prep, then (after the force download) integration
    # plus the MPI halo exchange; a BSP barrier closes every step. CPU
    # delays are tick-quantized like every simulated device delay, so
    # the whole run stays on the dyadic grid (repro.des.timebase).
    prep = dev.cpu(costs.cpu_step, cpu_mu, 2)
    integrate = dev.cpu(costs.cpu_step, cpu_mu, 2, costs.comm_step)
    step: List[Tuple] = [
        dev.memcpy(costs.pos_bytes, CopyKind.H2D),
        dev.launch("k_lj_cut_force", costs.pair_time, mu(costs.pair_time)),
        dev.memcpy(costs.force_bytes, CopyKind.D2H),
        integrate,
        FlatDevice.BARRIER,
    ]
    plain = [prep, *step]
    rebuild = [
        prep,
        dev.memcpy(costs.neigh_bytes, CopyKind.H2D),
        dev.launch("k_neigh_build", costs.neigh_time, mu(costs.neigh_time)),
        *step,
    ]
    program: List[Tuple] = []
    for n in range(config.params.steps):
        program += rebuild if n % config.neighbor_every == 0 else plain
    return dev, program
