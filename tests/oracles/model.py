"""Scalar reference implementations of the model pipeline.

:func:`repro.model.binning.bin_values` and
:meth:`repro.model.predictor.CDIProfiler.predict_sweep` are
vectorized. These are their unvectorized forms, the ground truth the
property tests (``tests/model/test_binning.py``,
``tests/model/test_predictor.py``), the golden scalar-parity test and
the trace benchmark (``benchmarks/bench_trace.py``) compare against:
the vectorized pipeline must reproduce these bit for bit on arbitrary
profiles. They run orders of magnitude slower than their vectorized
twins on real traces.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from repro.apps.base import AppProfile
from repro.model.binning import BinnedDistribution

__all__ = ["bin_values_reference", "predict_sweep_reference"]


def bin_values_reference(
    values: np.ndarray | Sequence[float],
    grid_value_per_size: Mapping[int, float],
    rel_tol: float = 1e-6,
) -> BinnedDistribution:
    """Scalar per-value bracketing loop (pre-vectorization semantics).

    Snap candidates are probed in ascending index order (lower grid
    mark first), matching the vectorized assignment.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("no values to bin")
    if np.any(arr < 0):
        raise ValueError("values must be non-negative")
    if rel_tol < 0:
        raise ValueError("rel_tol must be non-negative")
    sizes = sorted(grid_value_per_size)
    marks = np.array([grid_value_per_size[n] for n in sizes])
    if np.any(np.diff(marks) <= 0):
        raise ValueError("grid metric must be strictly increasing")

    lower_counts = {n: 0 for n in sizes}
    upper_counts = {n: 0 for n in sizes}
    up_idx = np.searchsorted(marks, arr, side="left")
    for v, iu in zip(arr, up_idx):
        i_up = min(int(iu), len(sizes) - 1)
        snapped = None
        for candidate in (max(0, i_up - 1), i_up):
            if abs(v - marks[candidate]) <= rel_tol * marks[candidate]:
                snapped = candidate
                break
        if snapped is not None:
            i_up = i_down = snapped
        elif v >= marks[-1]:
            i_down = len(sizes) - 1
        elif v <= marks[0]:
            i_down = 0
        else:
            i_down = i_up - 1
        lower_counts[sizes[i_up]] += 1
        upper_counts[sizes[i_down]] += 1
    return BinnedDistribution(
        lower_counts=lower_counts,
        upper_counts=upper_counts,
        total=int(arr.size),
        mean_value=float(arr.mean()),
    )


def predict_sweep_reference(
    profiler: "CDIProfiler",
    profile: AppProfile,
    slack_values_s: Sequence[float],
    parallelism: Optional[int] = None,
) -> Dict[float, "SlackPrediction"]:
    """Per-slack prediction loop (pre-vectorization ``predict_sweep``).

    Re-runs the full bin → Equation 3 → Equation 2 pipeline at every
    slack value through :meth:`CDIProfiler.predict`, exactly as the
    original dict comprehension did.
    """
    return {
        s: profiler.predict(profile, s, parallelism) for s in slack_values_s
    }
