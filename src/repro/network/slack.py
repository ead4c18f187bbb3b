"""Slack: the CDI-induced CPU-to-GPU communication latency.

The paper defines *slack* as the latency added to every CPU-GPU
interaction when the GPU moves off-node: NIC traversal on both ends
plus time-of-flight through the fabric (Figure 1). This module gives
slack a first-class representation:

* :class:`SlackModel` — produces the per-CUDA-call delay, either fixed
  (the paper's sleep-injection) or jittered (network noise studies);
* distance conversions — the paper's headline "100 us = 20 km of
  fibre" via the speed of light in glass;
* :func:`slack_budget` — compose a slack value from its physical
  components (NICs, switch hops, cable length).

Units are seconds and metres throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..des.timebase import quantize

__all__ = [
    "SPEED_OF_LIGHT_VACUUM_M_PER_S",
    "FIBRE_REFRACTIVE_INDEX",
    "SPEED_OF_LIGHT_FIBRE_M_PER_S",
    "fibre_distance_for_latency",
    "latency_for_fibre_distance",
    "SlackModel",
    "SlackComponents",
    "slack_budget",
    "US",
    "MS",
]

#: Speed of light in vacuum.
SPEED_OF_LIGHT_VACUUM_M_PER_S = 299_792_458.0

#: Typical refractive index of silica fibre (~1.468); the paper uses
#: the round figure that light covers 20 km of fibre in 100 us, i.e.
#: 2e8 m/s.
FIBRE_REFRACTIVE_INDEX = 1.4990

#: Propagation speed in fibre implied by the paper's 20 km / 100 us.
SPEED_OF_LIGHT_FIBRE_M_PER_S = SPEED_OF_LIGHT_VACUUM_M_PER_S / FIBRE_REFRACTIVE_INDEX

#: Convenience second-based unit constants.
US = 1e-6
MS = 1e-3


def fibre_distance_for_latency(latency_s: float) -> float:
    """Metres of fibre a signal covers in ``latency_s`` (one-way).

    >>> round(fibre_distance_for_latency(100e-6) / 1e3)  # the paper's 20 km
    20
    """
    if latency_s < 0:
        raise ValueError("latency_s must be non-negative")
    return latency_s * SPEED_OF_LIGHT_FIBRE_M_PER_S


def latency_for_fibre_distance(distance_m: float) -> float:
    """One-way time-of-flight through ``distance_m`` of fibre."""
    if distance_m < 0:
        raise ValueError("distance_m must be non-negative")
    return distance_m / SPEED_OF_LIGHT_FIBRE_M_PER_S


@dataclass(frozen=True)
class SlackComponents:
    """Physical breakdown of a slack value (one direction).

    Attributes
    ----------
    nic_s:
        Per-NIC traversal time; two NICs sit on a CDI path (host and
        chassis side).
    switch_hop_s / switch_hops:
        Per-hop fabric switch latency and hop count.
    cable_m:
        Fibre length between host and chassis.
    """

    nic_s: float = 0.5e-6
    switch_hop_s: float = 0.3e-6
    switch_hops: int = 2
    cable_m: float = 10.0

    def total(self) -> float:
        """One-way slack implied by the components."""
        return (
            2 * self.nic_s
            + self.switch_hops * self.switch_hop_s
            + latency_for_fibre_distance(self.cable_m)
        )


def slack_budget(
    target_slack_s: float, components: Optional[SlackComponents] = None
) -> float:
    """Cable length (m) available once fixed component costs are paid.

    Given a slack budget and the per-NIC/per-hop costs, how far apart
    may the CPU and the GPU chassis physically be? Returns 0 if the
    fixed costs already exceed the budget.
    """
    comp = components or SlackComponents(cable_m=0.0)
    fixed = 2 * comp.nic_s + comp.switch_hops * comp.switch_hop_s
    remaining = target_slack_s - fixed
    if remaining <= 0:
        return 0.0
    return fibre_distance_for_latency(remaining)


class SlackModel:
    """Produces the per-call slack delay injected into CUDA API calls.

    Parameters
    ----------
    slack_s:
        Mean one-way slack per call (the paper sweeps 1 us .. 10 ms).
    jitter_fraction:
        Relative standard deviation of log-normal jitter; 0 reproduces
        the paper's deterministic sleep insertion.
    rng:
        NumPy generator for jitter; required if ``jitter_fraction > 0``.
    """

    def __init__(
        self,
        slack_s: float,
        jitter_fraction: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if slack_s < 0:
            raise ValueError("slack_s must be non-negative")
        if jitter_fraction < 0:
            raise ValueError("jitter_fraction must be non-negative")
        self.slack_s = float(slack_s)
        # The deterministic per-call delay actually fed into the DES,
        # snapped to the dyadic tick grid (repro.des.timebase) so that
        # injected-slack totals accumulate exactly. slack_s itself
        # stays raw: it is the model parameter, used for analysis
        # (Equation 1 correction, distance conversion) and repr.
        self._delay_s = quantize(self.slack_s)
        self.jitter_fraction = float(jitter_fraction)
        if jitter_fraction > 0 and rng is None:
            rng = np.random.default_rng(0)
        self._rng = rng
        self.calls_delayed = 0
        self.total_injected_s = 0.0

    @classmethod
    def none(cls) -> "SlackModel":
        """The zero-slack baseline."""
        return cls(0.0)

    @classmethod
    def for_distance(cls, distance_m: float, **kwargs: float) -> "SlackModel":
        """A slack model whose mean is the fibre time-of-flight."""
        return cls(latency_for_fibre_distance(distance_m), **kwargs)

    @property
    def is_zero(self) -> bool:
        """Whether this model never injects delay."""
        return self.slack_s == 0.0 and self.jitter_fraction == 0.0

    def sample(self) -> float:
        """Draw the next per-call delay and account for it."""
        if self.slack_s == 0.0:
            return 0.0
        if self.jitter_fraction == 0.0:
            delay = self._delay_s
        else:
            # Log-normal keeps delays positive with the requested CV.
            cv = self.jitter_fraction
            sigma = np.sqrt(np.log(1.0 + cv * cv))
            mu = np.log(self.slack_s) - sigma * sigma / 2.0
            assert self._rng is not None
            delay = float(self._rng.lognormal(mean=mu, sigma=sigma))
        self.calls_delayed += 1
        self.total_injected_s += delay
        return delay

    def equivalent_distance_m(self) -> float:
        """Fibre distance whose one-way flight time equals the mean slack."""
        return fibre_distance_for_latency(self.slack_s)

    def __repr__(self) -> str:
        return (
            f"SlackModel(slack_s={self.slack_s:g}, "
            f"jitter_fraction={self.jitter_fraction:g})"
        )
