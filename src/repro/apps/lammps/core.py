"""Index core of the traced LAMMPS run.

Builds the GPU package's per-step data path (see
:mod:`repro.apps.lammps.gpu_offload`) as one flat program per MPI rank
and runs the ranks on :class:`~repro.gpusim.flatcore.FlatDevice`: the
same profile as the DES, bit for bit, without an event loop. Each rank
is a state machine on the device's ``(time, seq)`` heap; the per-step
barrier releases the ranks in arrival order, so the next step's jitter
draws happen in the DES's order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Tuple

import numpy as np

from ...gpusim.flatcore import FlatDevice, FlatRun
from ...network import SlackModel
from ...trace import CopyKind
from ..base import jitter_sigma, lognormal_mu

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .gpu_offload import LammpsProfileConfig, _StepCosts

__all__ = ["lammps_core"]


def lammps_core(
    config: "LammpsProfileConfig", slack: SlackModel, costs: "_StepCosts"
) -> FlatRun:
    """Run ``config`` on the index core; ``end_s`` is the loop runtime."""
    jitter = config.jitter
    sigma = jitter_sigma(jitter) if jitter != 0 else None

    def mu(mean: float) -> Any:
        return None if sigma is None else lognormal_mu(mean, sigma)

    dev = FlatDevice(
        config.gpu,
        config.pcie,
        slack,
        rng=np.random.default_rng(config.seed),
        sigma=sigma,
    )
    cpu_mu = mu(costs.cpu_step)
    # CPU-side force prep, then (after the force download) integration
    # plus the MPI halo exchange; a BSP barrier closes every step.
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
    P = config.processes
    return dev.run([program] * P, range(P), join=[FlatDevice.SYNC_DEVICE])
