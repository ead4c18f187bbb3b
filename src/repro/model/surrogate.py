"""Surrogate fitting machinery: training series and error bounds.

The serving layer (:mod:`repro.serve`) answers penalty queries from a
fitted surrogate instead of a DES run. This module owns the *math* of
that surrogate, kept below the serving layer so the model package can
validate it against sweeps directly:

* :func:`extract_training_series` turns measured
  :class:`~repro.proxy.SweepPoint` collections (a
  :class:`~repro.proxy.SweepResult` or a
  :class:`~repro.proxy.SlackResponseSurface`) into per-
  ``(matrix_size, threads)`` training grids, canonicalized through the
  shared slack quantization (:mod:`repro.proxy.quantize`) so the
  surrogate, the surface and ``SweepResult.get`` agree on what counts
  as one grid point.
* :func:`interp_penalty` is the one log-linear interpolation rule —
  the same rule :class:`~repro.proxy.SlackResponseSurface` applies and
  :mod:`repro.model.adaptive` certifies against, which is what makes
  surrogate predictions bit-identical to surface lookups at measured
  points.
* :func:`crossval_bounds` computes per-region (per slack-interval)
  error bounds by leave-one-out cross-validation: hold out each
  interior grid point, predict it from its neighbours, and let each
  interval inherit the worst deviation observed in its neighbourhood
  (times a safety factor). Like the adaptive sweep's certification,
  this is a sampling argument, not a proof — it holds for the smooth
  monotone penalty curves the calibrated proxy produces, and the
  serving tests pin exactly that regime.

An optional monotone PCHIP fit (shape-preserving cubic in log-slack,
via scipy) is exposed through ``method="pchip"``; the
default stays ``"loglinear"`` because only that rule is exactly the
surface's own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..proxy.quantize import slack_bucket
from ..proxy.response import SlackResponseSurface
from ..proxy.sweep import SweepPoint, SweepResult

__all__ = [
    "BOUND_SAFETY_FACTOR",
    "SURROGATE_METHODS",
    "TrainingSeries",
    "crossval_bounds",
    "extract_training_series",
    "interp_penalty",
]

#: Interpolation rules a surrogate can be fit with. ``loglinear`` is
#: the surface's own rule (exact parity); ``pchip`` is a monotone
#: shape-preserving cubic in log-slack (scipy, imported on first fit
#: so that start-up does not pay for ``scipy.interpolate``).
SURROGATE_METHODS = ("loglinear", "pchip")

#: Cross-validated interval bounds are observed deviations, not
#: proofs; the safety factor widens them so a *held-out* measured
#: point (whose own deviation the reduced fit never saw) still lands
#: inside the reported bound for the smooth response curves the proxy
#: produces.
BOUND_SAFETY_FACTOR = 2.0


def interp_penalty(
    s_lo: float, p_lo: float, s_hi: float, p_hi: float, slack_s: float
) -> float:
    """Log-linear penalty interpolation — the surface's own rule."""
    if slack_s <= s_lo:
        return p_lo
    if slack_s >= s_hi:
        return p_hi
    t = (math.log(slack_s) - math.log(s_lo)) / (
        math.log(s_hi) - math.log(s_lo)
    )
    return p_lo + t * (p_hi - p_lo)


@dataclass(frozen=True)
class TrainingSeries:
    """One fitted ``(matrix_size, threads)`` series of the surrogate.

    ``slacks`` is the ascending positive-slack grid (canonical
    spellings, duplicates merged by shared bucket), ``penalties`` the
    clamped (``max(0, .)``) penalties downstream consumers read, and
    ``interval_bounds`` the cross-validated error bound of each of the
    ``len(slacks) - 1`` inter-point intervals (``inf`` where the
    series is too short to cross-validate).
    """

    matrix_size: int
    threads: int
    slacks: np.ndarray
    penalties: np.ndarray
    interval_bounds: np.ndarray

    def __post_init__(self) -> None:
        if len(self.slacks) != len(self.penalties):
            raise ValueError("slacks and penalties must align")
        if len(self.interval_bounds) != max(0, len(self.slacks) - 1):
            raise ValueError("need one bound per slack interval")
        if len(self.slacks) and self.slacks[0] <= 0:
            raise ValueError("training slacks must be positive")

    @property
    def viable(self) -> bool:
        """Whether the series has enough points to interpolate."""
        return len(self.slacks) >= 2

    def pchip(self) -> Optional[Callable[[np.ndarray], np.ndarray]]:
        """Monotone PCHIP fit in log-slack, or ``None`` if not viable."""
        if not self.viable:
            return None
        from scipy.interpolate import PchipInterpolator

        return PchipInterpolator(
            np.log(self.slacks), self.penalties, extrapolate=False
        )


def crossval_bounds(
    slacks: np.ndarray,
    penalties: np.ndarray,
    *,
    safety: float = BOUND_SAFETY_FACTOR,
) -> np.ndarray:
    """Per-interval error bounds by leave-one-out cross-validation.

    For every interior grid point ``i`` the deviation
    ``|p_i - interp(s_{i-1}, p_{i-1}, s_{i+1}, p_{i+1}, s_i)|`` is the
    error the surrogate *would* have made had ``i`` not been measured.
    Each of the ``n - 1`` intervals reports ``safety`` times the worst
    deviation among the interior points adjacent to it (both endpoints
    and their immediate neighbours), so the bound reflects the local
    curvature rather than one global worst case. Series with fewer
    than 3 points have no interior point to hold out: every interval
    bound is ``inf`` (predictions there are still served, explicitly
    uncertified).
    """
    n = len(slacks)
    if n < 2:
        return np.zeros(0)
    if n < 3:
        return np.full(n - 1, np.inf)
    deviations = np.empty(n - 2)
    for i in range(1, n - 1):
        predicted = interp_penalty(
            float(slacks[i - 1]), float(penalties[i - 1]),
            float(slacks[i + 1]), float(penalties[i + 1]),
            float(slacks[i]),
        )
        deviations[i - 1] = abs(float(penalties[i]) - predicted)
    bounds = np.empty(n - 1)
    for j in range(n - 1):
        # Interior points i = 1 .. n-2 map to deviations[i - 1]; the
        # window for interval (j, j+1) covers the held-out deviations
        # at its endpoints and their immediate neighbours.
        lo = max(1, j - 1)
        hi = min(n - 2, j + 2)
        bounds[j] = safety * float(deviations[lo - 1:hi].max())
    return bounds


def extract_training_series(
    source: Union[SweepResult, SlackResponseSurface, Sequence[SweepPoint]],
    *,
    safety: float = BOUND_SAFETY_FACTOR,
) -> List[TrainingSeries]:
    """Training series for every measured ``(matrix_size, threads)``.

    Accepts a :class:`~repro.proxy.SweepResult`, a
    :class:`~repro.proxy.SlackResponseSurface` (its retained points),
    or a plain sequence of :class:`~repro.proxy.SweepPoint`. Zero-
    slack baselines are dropped (the surrogate answers them exactly as
    0.0 without a series), penalties are clamped at 0 — the quantity
    every downstream consumer reads through the surface — and slack
    values falling in one shared quantization bucket collapse to the
    first-recorded spelling, exactly like ``SweepResult.get``'s
    near-miss index.
    """
    if isinstance(source, SlackResponseSurface):
        points: Sequence[SweepPoint] = list(source.iter_points())
    elif isinstance(source, SweepResult):
        points = source.points
    else:
        points = list(source)

    grouped: Dict[Tuple[int, int], Dict[str, SweepPoint]] = {}
    for p in points:
        if p.slack_s <= 0:
            continue
        series = grouped.setdefault((p.matrix_size, p.threads), {})
        series.setdefault(slack_bucket(p.slack_s), p)

    out: List[TrainingSeries] = []
    for (matrix_size, threads), by_bucket in sorted(grouped.items()):
        pts = sorted(by_bucket.values(), key=lambda p: p.slack_s)
        slacks = np.array([p.slack_s for p in pts])
        penalties = np.array([max(0.0, p.penalty) for p in pts])
        out.append(
            TrainingSeries(
                matrix_size=matrix_size,
                threads=threads,
                slacks=slacks,
                penalties=penalties,
                interval_bounds=crossval_bounds(
                    slacks, penalties, safety=safety
                ),
            )
        )
    return out
