"""Trace analysis: the distribution summaries behind Figures 4 and 5.

The paper presents kernel-duration and memcpy-size distributions as
violin plots. :class:`ViolinSummary` captures everything a violin
shows (count, quartiles, extrema), and
:func:`kernel_duration_profile` / :func:`memcpy_size_profile` build
the per-name + Total panels of Figures 4 and 5 from a trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from .events import CopyKind
from .store import Trace

__all__ = [
    "ViolinSummary",
    "DistributionProfile",
    "summarize",
    "kernel_duration_profile",
    "memcpy_size_profile",
    "launch_parallelism",
]


@dataclass(frozen=True)
class ViolinSummary:
    """Summary statistics equivalent to one violin in Figures 4/5."""

    label: str
    count: int
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    mean: float
    std: float

    @property
    def iqr(self) -> float:
        """Interquartile range."""
        return self.q3 - self.q1


def _quartiles(arr: np.ndarray) -> List[float]:
    """q1, median and q3 of a finite, non-empty sample, bit for bit as
    ``np.percentile(arr, [25, 50, 75])`` computes them.

    This is numpy's default (linear) method on one sort: quantile ``q``
    sits at virtual index ``(n - 1) * q`` and is interpolated as
    numpy's ``_lerp`` does, from the upper neighbour when the weight is
    at least 1/2. ``np.percentile`` itself dedupes its partition
    indices with ``np.unique``, whose first call imports ``numpy.ma``.
    """
    ordered = np.sort(arr)
    last = ordered.size - 1
    out = []
    for q in (0.25, 0.5, 0.75):
        virtual = last * q
        if virtual >= last:
            out.append(float(ordered[last]))
            continue
        i = int(virtual)
        gamma = virtual - i
        lo, hi = float(ordered[i]), float(ordered[i + 1])
        diff = hi - lo
        if gamma >= 0.5:
            out.append(hi - diff * (1 - gamma))
        else:
            out.append(lo + diff * gamma)
    return out


def summarize(
    values: Sequence[float] | np.ndarray, label: str = ""
) -> ViolinSummary:
    """Compute violin statistics for ``values``."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError(f"cannot summarize empty sample {label!r}")
    if np.any(~np.isfinite(arr)):
        raise ValueError(f"sample {label!r} contains non-finite values")
    q1, med, q3 = _quartiles(arr)
    return ViolinSummary(
        label=label,
        count=int(arr.size),
        minimum=float(arr.min()),
        q1=q1,
        median=med,
        q3=q3,
        maximum=float(arr.max()),
        mean=float(arr.mean()),
        std=float(arr.std()),
    )


@dataclass
class DistributionProfile:
    """A set of violins: one per selected name plus an aggregate Total."""

    title: str
    violins: List[ViolinSummary] = field(default_factory=list)

    def labels(self) -> List[str]:
        """Violin labels in presentation order."""
        return [v.label for v in self.violins]

    def __getitem__(self, label: str) -> ViolinSummary:
        for v in self.violins:
            if v.label == label:
                return v
        raise KeyError(label)


def kernel_duration_profile(
    trace: Trace, top_n: int = 5, title: str = ""
) -> DistributionProfile:
    """Figure-4-style profile: per-kernel duration violins + Total.

    ``top_n`` limits the per-name panels to the kernels with the
    largest aggregate runtime (the paper shows CosmoFlow's top five,
    which cover 49.9% of kernel time); every kernel contributes to
    the Total violin regardless.
    """
    kernels = trace.kernels()
    if len(kernels) == 0:
        raise ValueError("trace contains no kernel events")
    profile = DistributionProfile(title=title or f"{trace.name} kernel durations")
    groups = kernels.by_name()
    for name in kernels.top_names_by_total_time(top_n):
        profile.violins.append(summarize(groups[name].durations(), label=name))
    profile.violins.append(summarize(kernels.durations(), label="Total"))
    return profile


def memcpy_size_profile(
    trace: Trace,
    by_direction: bool = True,
    title: str = "",
) -> DistributionProfile:
    """Figure-5-style profile: memcpy size violins (per direction + Total)."""
    copies = trace.memcpys()
    if len(copies) == 0:
        raise ValueError("trace contains no memcpy events")
    profile = DistributionProfile(title=title or f"{trace.name} memcpy sizes")
    if by_direction:
        for direction in (CopyKind.H2D, CopyKind.D2H):
            sub = copies.memcpys(direction)
            if len(sub):
                profile.violins.append(summarize(sub.sizes(), label=direction.value))
    profile.violins.append(summarize(copies.sizes(), label="Total"))
    return profile


def launch_parallelism(trace: Trace, pessimistic: bool = False) -> int:
    """Effective kernel-queue parallelism of an application.

    The paper reads this off the traces: LAMMPS launches kernels from
    its 8 MPI processes; CosmoFlow enqueues long sequences whose
    launch phase takes ~1/7 of the sequence duration, for which the
    paper adopts a *pessimistic* equivalent of 4. We measure the
    maximum number of concurrently open kernel intervals and, when
    ``pessimistic``, halve it (rounding up) the same way.
    """
    concurrency = trace.kernels().max_concurrency()
    if concurrency == 0:
        return 0
    if pessimistic:
        return max(1, (concurrency + 1) // 2)
    return concurrency
