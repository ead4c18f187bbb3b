"""Sensitivity analysis of the reproduction's calibrated constants.

The simulator substitution introduces two constants the paper's real
hardware provided implicitly: the GPU's idle-ramp *fraction* (cost per
second of uncovered gap) and its *cap* (saturation). This module
quantifies how the headline quantities move as those constants vary —
the honesty check EXPERIMENTS.md's closing note refers to.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Sequence, Tuple

from ..hw.specs import A100_SXM4_40GB, GPUSpec
from ..network.slack import SlackModel
from ..proxy.matmul import ProxyConfig, run_proxy

__all__ = ["SensitivityPoint", "ramp_sensitivity", "cap_sensitivity"]


@dataclass(frozen=True)
class SensitivityPoint:
    """Headline penalty at one parameter setting."""

    parameter: str
    value: float
    penalty: float


def _penalty(gpu: GPUSpec, matrix_size: int, slack_s: float,
             iterations: int = 20) -> float:
    config = ProxyConfig(matrix_size=matrix_size, iterations=iterations,
                         gpu=gpu)
    base = run_proxy(config)
    run = run_proxy(config, SlackModel(slack_s))
    return max(0.0, run.corrected_runtime_s / base.loop_runtime_s - 1.0)


def ramp_sensitivity(
    fractions: Sequence[float] = (0.45, 0.9, 1.8),
    matrix_size: int = 2**13,
    slack_s: float = 10e-3,
    iterations: int = 20,
) -> List[SensitivityPoint]:
    """Penalty at the 2^13/10 ms anchor vs the idle-ramp fraction.

    The paper's ~10% anchor pins the default (0.9); halving or
    doubling the fraction scales the penalty near-proportionally,
    which is what "calibrated, not derived" means.
    """
    points = []
    for f in fractions:
        if f < 0:
            raise ValueError("ramp fraction must be non-negative")
        gpu = replace(A100_SXM4_40GB, idle_ramp_fraction=f)
        points.append(
            SensitivityPoint(
                parameter="idle_ramp_fraction",
                value=f,
                penalty=_penalty(gpu, matrix_size, slack_s, iterations),
            )
        )
    return points


def cap_sensitivity(
    caps_s: Sequence[float] = (5e-3, 25e-3, 125e-3),
    matrix_size: int = 2**15,
    slack_s: float = 1.0,
    iterations: int = 3,
) -> List[SensitivityPoint]:
    """Penalty at the 2^15/1 s immunity anchor vs the idle-ramp cap.

    The paper observed 2^15 unaffected up to 1 s of slack; the cap is
    the mechanism. The default (25 ms) keeps the penalty under 1%;
    a 5x larger cap violates the anchor.
    """
    points = []
    for cap in caps_s:
        if cap < 0:
            raise ValueError("cap must be non-negative")
        gpu = replace(A100_SXM4_40GB, idle_ramp_cap_s=cap)
        points.append(
            SensitivityPoint(
                parameter="idle_ramp_cap_s",
                value=cap,
                penalty=_penalty(gpu, matrix_size, slack_s, iterations),
            )
        )
    return points
