"""Index core of the traced CosmoFlow run.

One host thread dispatches each step's kernel sequence onto one stream
(see :mod:`repro.apps.cosmoflow.training`), so the run is a straight
recurrence: the core builds the whole run as one flat program — each
distinct step (training or validation, with the cadences that fall on
it) built once — and runs it on
:class:`~repro.gpusim.flatcore.FlatDevice`. Jitter draws happen in
program order, exactly as the DES draws them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Tuple

import numpy as np

from ...gpusim.flatcore import FlatDevice, FlatRun
from ...network import SlackModel
from ...trace import CopyKind
from ..base import jitter_sigma, lognormal_mu

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .training import CosmoFlowProfileConfig, _StepPlan

__all__ = ["cosmoflow_core"]


def cosmoflow_core(
    config: "CosmoFlowProfileConfig", slack: SlackModel, plan: "_StepPlan"
) -> FlatRun:
    """Run ``config`` on the index core; ``end_s`` is the runtime."""
    jitter = config.jitter
    sigma = jitter_sigma(jitter) if jitter != 0 else None

    def mu(mean: float) -> Any:
        if sigma is None or mean <= 0:
            return None
        return lognormal_mu(mean, sigma)

    dev = FlatDevice(
        config.gpu,
        config.pcie,
        slack,
        rng=np.random.default_rng(config.seed),
        sigma=sigma,
    )

    def sequence(kernels, dispatch: float) -> List[Tuple]:
        # Per kernel: the host's op-dispatch cost, then the launch.
        host = dev.cpu(dispatch, mu(dispatch))
        out: List[Tuple] = []
        for spec in kernels:
            mean = spec.execution_time(config.gpu)
            out += [host, dev.launch(spec.name, mean, mu(mean), spec.meta)]
        return out

    train = sequence(plan.train_kernels, plan.train_dispatch)
    val = sequence(plan.val_kernels, plan.val_dispatch)
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
    return dev.run([program], [0])
