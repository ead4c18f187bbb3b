"""The CDI profiler: end-to-end slack-penalty prediction (Sec IV-D).

Given an application's traced profile (kernel durations, memcpy sizes,
runtime fractions, queue parallelism) and the proxy's slack response
surface, predict the total slack penalty the application would suffer
at a target slack value — as the paper's lower/upper bound pair.

The pipeline is exactly the paper's: bin the kernel-duration and
transfer-size distributions onto the proxy matrix grid (both
roundings), apply Equation 3 per category, then Equation 2 across
categories with the measured ``%Runtime`` weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from ..apps.base import AppProfile
from ..proxy.response import SlackResponseSurface
from ..proxy.calibration import calibrate_matrix_size
from .binning import BinnedDistribution, bin_kernel_durations, bin_transfer_sizes
from .equations import equation2_total_slack_penalty, equation3_binned_slack_penalty

__all__ = ["SlackPrediction", "CDIProfiler"]


@dataclass(frozen=True)
class SlackPrediction:
    """The predicted slack penalty for one application at one slack."""

    app: str
    slack_s: float
    parallelism: int
    lower: float
    upper: float
    sp_kernel_lower: float
    sp_kernel_upper: float
    sp_memory_lower: float
    sp_memory_upper: float
    runtime_fraction_kernel: float
    runtime_fraction_memory: float

    def __post_init__(self) -> None:
        if self.lower > self.upper + 1e-12:
            raise ValueError("lower bound exceeds upper bound")

    @property
    def lower_percent(self) -> float:
        """Lower bound as a percentage."""
        return 100.0 * self.lower

    @property
    def upper_percent(self) -> float:
        """Upper bound as a percentage."""
        return 100.0 * self.upper


class CDIProfiler:
    """Predicts application slack penalties from traces + the proxy surface.

    Parameters
    ----------
    surface:
        The proxy's measured slack response surface.
    kernel_times:
        Proxy single-kernel times per matrix size (Table II). If
        omitted, they are calibrated on demand from the simulator.
    """

    def __init__(
        self,
        surface: SlackResponseSurface,
        kernel_times: Optional[Mapping[int, float]] = None,
    ) -> None:
        self.surface = surface
        if kernel_times is None:
            kernel_times = {
                n: calibrate_matrix_size(n).kernel_time_s
                for n in surface.matrix_sizes()
            }
        missing = set(surface.matrix_sizes()) - set(kernel_times)
        if missing:
            raise ValueError(f"kernel_times missing grid sizes {sorted(missing)}")
        self.kernel_times = dict(kernel_times)

    # -- binning ------------------------------------------------------------------
    def bin_profile(
        self, profile: AppProfile
    ) -> Dict[str, BinnedDistribution]:
        """Bracket the profile's kernels and transfers onto the grid."""
        grid = self.surface.matrix_sizes()
        kernels = profile.trace.kernels()
        copies = profile.trace.memcpys()
        if len(kernels) == 0:
            raise ValueError(f"profile {profile.name!r} has no kernels")
        if len(copies) == 0:
            raise ValueError(f"profile {profile.name!r} has no memcpys")
        return {
            "kernel": bin_kernel_durations(
                kernels.durations(),
                {n: self.kernel_times[n] for n in grid},
            ),
            "memory": bin_transfer_sizes(copies.sizes(), grid),
        }

    # -- prediction -----------------------------------------------------------------
    def predict(
        self,
        profile: AppProfile,
        slack_s: float,
        parallelism: Optional[int] = None,
    ) -> SlackPrediction:
        """Predict the application's total slack penalty at ``slack_s``."""
        if slack_s < 0:
            raise ValueError("slack_s must be non-negative")
        par = parallelism if parallelism is not None else profile.queue_parallelism
        bins = self.bin_profile(profile)

        penalties = {
            n: self.surface.penalty(n, slack_s, threads=par)
            for n in self.surface.matrix_sizes()
        }
        sp_kernel_lower = equation3_binned_slack_penalty(
            bins["kernel"].lower_counts, penalties
        )
        sp_kernel_upper = equation3_binned_slack_penalty(
            bins["kernel"].upper_counts, penalties
        )
        sp_memory_lower = equation3_binned_slack_penalty(
            bins["memory"].lower_counts, penalties
        )
        sp_memory_upper = equation3_binned_slack_penalty(
            bins["memory"].upper_counts, penalties
        )

        frac_kernel = profile.trace.kernels().runtime_fraction(profile.runtime_s)
        frac_memory = profile.trace.memcpys().runtime_fraction(profile.runtime_s)
        # Guard against overlap pushing the sum past 1 (both fractions
        # are unions individually but can overlap each other).
        total_frac = frac_kernel + frac_memory
        if total_frac > 1.0:
            frac_kernel /= total_frac
            frac_memory /= total_frac

        lower = equation2_total_slack_penalty(
            frac_kernel, sp_kernel_lower, frac_memory, sp_memory_lower
        )
        upper = equation2_total_slack_penalty(
            frac_kernel, sp_kernel_upper, frac_memory, sp_memory_upper
        )
        return SlackPrediction(
            app=profile.name,
            slack_s=slack_s,
            parallelism=par,
            lower=lower,
            upper=upper,
            sp_kernel_lower=sp_kernel_lower,
            sp_kernel_upper=sp_kernel_upper,
            sp_memory_lower=sp_memory_lower,
            sp_memory_upper=sp_memory_upper,
            runtime_fraction_kernel=frac_kernel,
            runtime_fraction_memory=frac_memory,
        )

    def predict_sweep(
        self,
        profile: AppProfile,
        slack_values_s: Sequence[float],
        parallelism: Optional[int] = None,
    ) -> Dict[float, SlackPrediction]:
        """Predictions at several slack values (Table IV rows).

        Vectorized over the slack grid: the profile is binned **once**
        and Equation 3 is evaluated as a count-weighted sum of
        per-size penalty rows across all slack values simultaneously.
        The accumulation walks bins in the same (ascending-size,
        zero-skipping) order as :func:`equation3_binned_slack_penalty`,
        so every prediction is bit-identical to a standalone
        :meth:`predict` call at that slack (see
        ``predict_sweep_reference`` in ``tests/oracles/model.py``).
        """
        slacks = list(slack_values_s)
        for s in slacks:
            if s < 0:
                raise ValueError("slack_s must be non-negative")
        if not slacks:
            return {}
        par = (
            parallelism if parallelism is not None else profile.queue_parallelism
        )
        bins = self.bin_profile(profile)

        # Penalty matrix: one row per grid size, one column per slack.
        pen_rows = {
            n: np.asarray(
                [self.surface.penalty(n, s, threads=par) for s in slacks],
                dtype=float,
            )
            for n in self.surface.matrix_sizes()
        }
        sp = {
            (category, bound): _equation3_rows(
                getattr(bins[category], f"{bound}_counts"),
                pen_rows,
                len(slacks),
            )
            for category in ("kernel", "memory")
            for bound in ("lower", "upper")
        }

        frac_kernel = profile.trace.kernels().runtime_fraction(profile.runtime_s)
        frac_memory = profile.trace.memcpys().runtime_fraction(profile.runtime_s)
        total_frac = frac_kernel + frac_memory
        if total_frac > 1.0:
            frac_kernel /= total_frac
            frac_memory /= total_frac

        out: Dict[float, SlackPrediction] = {}
        for i, s in enumerate(slacks):
            sp_kernel_lower = float(sp[("kernel", "lower")][i])
            sp_kernel_upper = float(sp[("kernel", "upper")][i])
            sp_memory_lower = float(sp[("memory", "lower")][i])
            sp_memory_upper = float(sp[("memory", "upper")][i])
            out[s] = SlackPrediction(
                app=profile.name,
                slack_s=s,
                parallelism=par,
                lower=equation2_total_slack_penalty(
                    frac_kernel, sp_kernel_lower, frac_memory, sp_memory_lower
                ),
                upper=equation2_total_slack_penalty(
                    frac_kernel, sp_kernel_upper, frac_memory, sp_memory_upper
                ),
                sp_kernel_lower=sp_kernel_lower,
                sp_kernel_upper=sp_kernel_upper,
                sp_memory_lower=sp_memory_lower,
                sp_memory_upper=sp_memory_upper,
                runtime_fraction_kernel=frac_kernel,
                runtime_fraction_memory=frac_memory,
            )
        return out


def _equation3_rows(
    element_counts: Mapping[int, float],
    penalty_rows: Mapping[int, np.ndarray],
    n_slacks: int,
) -> np.ndarray:
    """Equation 3 across a whole slack grid at once.

    Accumulates ``count * penalty_row`` in the mapping's iteration
    order, skipping zero counts — elementwise the exact operation
    sequence :func:`equation3_binned_slack_penalty` performs per
    slack, so each column matches the scalar result bit for bit.
    """
    total = float(sum(element_counts.values()))
    if total <= 0:
        raise ValueError("element_counts is empty")
    acc = np.zeros(n_slacks)
    for size, count in element_counts.items():
        if count < 0:
            raise ValueError(f"negative count for size {size}")
        if count == 0:
            continue
        if size not in penalty_rows:
            raise KeyError(f"no penalty available for matrix size {size}")
        acc = acc + penalty_rows[size] * count
    return acc / total
