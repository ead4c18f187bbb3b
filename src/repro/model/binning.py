"""Binning application characteristics onto the proxy's matrix grid.

The proxy's slack response is measured at discrete matrix sizes; an
application's kernel durations and transfer sizes fall between them.
Following the paper, each observation is bracketed by the two nearest
grid sizes, producing **two** binned distributions:

* rounding **up** to the larger matrix size — whose penalty is
  smaller — yields the **lower** (optimistic) total penalty;
* rounding **down** to the smaller size — larger penalty — yields the
  **upper** (pessimistic) bound, the paper's headline number.

Transfer sizes map to matrix sizes through the proxy's matrix byte
count (``n^2 * 4`` for float32 — so the paper's Table III bin edges
1 / 16 / 256 / 4096 MiB are exactly the byte sizes of matrices
2^9 / 2^11 / 2^13 / 2^15). Kernel durations map through the proxy's
calibrated single-kernel times (Table II).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Sequence, Tuple

import numpy as np

from ..hw.specs import MiB

__all__ = [
    "BinnedDistribution",
    "matrix_bytes",
    "transfer_grid_bytes",
    "bin_values",
    "bin_transfer_sizes",
    "bin_kernel_durations",
    "table3_bins",
    "TABLE3_BIN_EDGES_MIB",
]

#: Table III's transfer-size bin edges in MiB (= proxy matrix bytes).
TABLE3_BIN_EDGES_MIB: Tuple[float, ...] = (1.0, 16.0, 256.0, 4096.0)


def matrix_bytes(matrix_size: int, dtype_bytes: int = 4) -> int:
    """Bytes of one proxy matrix of dimension ``matrix_size``."""
    if matrix_size <= 0:
        raise ValueError("matrix_size must be positive")
    return matrix_size * matrix_size * dtype_bytes


def transfer_grid_bytes(
    grid_sizes: Sequence[int], dtype_bytes: int = 4
) -> Dict[int, int]:
    """Map each grid matrix size to its transfer byte count."""
    return {n: matrix_bytes(n, dtype_bytes) for n in grid_sizes}


@dataclass(frozen=True)
class BinnedDistribution:
    """An application distribution bracketed onto the proxy grid.

    ``lower_counts`` holds the rounded-**up** assignment (used for the
    lower/optimistic penalty); ``upper_counts`` the rounded-**down**
    assignment (upper/pessimistic penalty). Both sum to the number of
    observations.
    """

    lower_counts: Dict[int, int]
    upper_counts: Dict[int, int]
    total: int
    mean_value: float

    def __post_init__(self) -> None:
        if sum(self.lower_counts.values()) != self.total:
            raise ValueError("lower_counts do not sum to total")
        if sum(self.upper_counts.values()) != self.total:
            raise ValueError("upper_counts do not sum to total")


def bin_values(
    values: np.ndarray | Sequence[float],
    grid_value_per_size: Mapping[int, float],
    rel_tol: float = 1e-6,
) -> BinnedDistribution:
    """Bracket observations between grid sizes by a monotone metric.

    ``grid_value_per_size`` maps each matrix size to the metric value
    the proxy exhibits there (bytes for transfers, seconds for kernel
    durations); it must be strictly increasing in matrix size.
    Observations off the ends of the grid clamp to the nearest size on
    both assignments; observations within ``rel_tol`` (relative) of a
    grid mark snap to it exactly, so floating-point noise cannot flip
    an on-grid value into the adjacent (much more slack-sensitive)
    bracket. Snap candidates are probed lower-mark-first.

    Grid marks are sorted by matrix size exactly once and must be
    strictly increasing in size; a non-monotonic grid (where rounding
    "up" in size could round *down* in metric) raises ``ValueError``.

    Vectorized: the whole bracketing — searchsorted round-up, snap
    masks, end clamps, bin counts — runs as column operations with no
    per-value loop, bit-identical to
    ``bin_values_reference`` in ``tests/oracles/model.py``.
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
    last = len(sizes) - 1

    # Index of the first grid mark >= value (round up), clamped.
    i_up = np.minimum(np.searchsorted(marks, arr, side="left"), last)
    lo_cand = np.maximum(i_up - 1, 0)
    # Snap-to-mark masks, lower candidate taking precedence.
    snap_lo = np.abs(arr - marks[lo_cand]) <= rel_tol * marks[lo_cand]
    snap_hi = np.abs(arr - marks[i_up]) <= rel_tol * marks[i_up]
    # Rounded-down index: clamp off-grid ends, else one below i_up.
    i_down = np.where(
        arr >= marks[-1], last, np.where(arr <= marks[0], 0, i_up - 1)
    )
    i_down = np.where(snap_lo, lo_cand, np.where(snap_hi, i_up, i_down))
    i_up = np.where(snap_lo, lo_cand, i_up)

    # Rounded up -> larger matrix -> lower penalty assignment.
    n_bins = len(sizes)
    lower_binned = np.bincount(i_up, minlength=n_bins)
    upper_binned = np.bincount(i_down, minlength=n_bins)
    lower_counts = {n: int(c) for n, c in zip(sizes, lower_binned)}
    upper_counts = {n: int(c) for n, c in zip(sizes, upper_binned)}
    return BinnedDistribution(
        lower_counts=lower_counts,
        upper_counts=upper_counts,
        total=int(arr.size),
        mean_value=float(arr.mean()),
    )


def bin_transfer_sizes(
    sizes_bytes: np.ndarray | Sequence[float],
    grid_sizes: Sequence[int],
    dtype_bytes: int = 4,
) -> BinnedDistribution:
    """Bracket transfer sizes (bytes) onto the proxy matrix grid."""
    return bin_values(sizes_bytes, transfer_grid_bytes(grid_sizes, dtype_bytes))


def bin_kernel_durations(
    durations_s: np.ndarray | Sequence[float],
    kernel_time_per_size: Mapping[int, float],
) -> BinnedDistribution:
    """Bracket kernel durations onto the proxy grid via Table II times."""
    return bin_values(durations_s, kernel_time_per_size)


def table3_bins(
    sizes_bytes: np.ndarray | Sequence[float],
    edges_mib: Sequence[float] = TABLE3_BIN_EDGES_MIB,
) -> Dict[str, int]:
    """Histogram transfer sizes into the paper's Table III columns.

    Returns counts for ``<=1``, ``<=16``, ``<=256``, ``<=4096`` and
    ``>4096`` MiB (with default edges).
    """
    arr = np.asarray(sizes_bytes, dtype=float) / MiB
    if arr.size == 0:
        raise ValueError("no transfer sizes")
    result: Dict[str, int] = {}
    lower = -np.inf
    for edge in edges_mib:
        result[f"<={edge:g}"] = int(((arr > lower) & (arr <= edge)).sum())
        lower = edge
    result[f">{edges_mib[-1]:g}"] = int((arr > edges_mib[-1]).sum())
    return result
