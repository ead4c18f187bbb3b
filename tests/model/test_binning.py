"""Vectorized binning vs. the retained scalar reference, bit for bit.

Also the regression tests for the grid-ordering fix: ``bin_values``
must sort the grid marks by matrix size exactly once, and reject
grids whose metric is not strictly increasing in size instead of
silently mis-bracketing.
"""

import numpy as np
import pytest

from repro.hw import MiB
from repro.model.binning import (
    bin_kernel_durations,
    bin_transfer_sizes,
    bin_values,
)
from ..oracles.model import bin_values_reference

from .conftest import SYNTHETIC_KERNEL_TIMES

SEEDS = [0, 3, 11, 42, 777, 31337]

GRID = SYNTHETIC_KERNEL_TIMES  # {512: 50e-6, ..., 32768: 3.8}


def assert_same(a, b):
    assert a.lower_counts == b.lower_counts
    assert a.upper_counts == b.upper_counts
    assert a.total == b.total
    assert a.mean_value == b.mean_value


class TestGridOrdering:
    """Satellite regression: unsorted and non-monotonic grids."""

    def test_unsorted_grid_insertion_order_is_harmless(self):
        values = [40e-6, 1.6e-3, 2.0, 5.0]
        shuffled = {8192: 60e-3, 512: 50e-6, 32768: 3.8, 2048: 1.5e-3}
        assert_same(bin_values(values, shuffled), bin_values(values, GRID))

    @pytest.mark.parametrize("fn", [bin_values, bin_values_reference])
    def test_non_monotonic_grid_rejected(self, fn):
        # Metric *decreases* from size 512 to 2048: rounding "up" in
        # size would round down in metric — must be an explicit error.
        bad = {512: 1.0, 2048: 0.5, 8192: 2.0}
        with pytest.raises(ValueError, match="strictly increasing"):
            fn([0.7], bad)

    @pytest.mark.parametrize("fn", [bin_values, bin_values_reference])
    def test_duplicate_metric_rejected(self, fn):
        with pytest.raises(ValueError, match="strictly increasing"):
            fn([0.7], {512: 1.0, 2048: 1.0})

    @pytest.mark.parametrize("fn", [bin_values, bin_values_reference])
    def test_input_validation(self, fn):
        with pytest.raises(ValueError, match="no values"):
            fn([], GRID)
        with pytest.raises(ValueError, match="non-negative"):
            fn([-1.0], GRID)
        with pytest.raises(ValueError, match="rel_tol"):
            fn([1.0], GRID, rel_tol=-1e-9)


class TestReferenceParity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_values_match_reference(self, seed):
        rng = np.random.RandomState(seed)
        n = int(rng.randint(1, 500))
        # Log-uniform over well past both ends of the grid.
        values = 10.0 ** rng.uniform(-6, 2, size=n)
        assert_same(bin_values(values, GRID), bin_values_reference(values, GRID))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_snap_tolerance_edges_match_reference(self, seed):
        rng = np.random.RandomState(seed)
        marks = np.array([GRID[n] for n in sorted(GRID)])
        # Values exactly on marks, one-ULP off, and just inside/outside
        # the relative snap window — the cases the snap masks exist for.
        base = marks[rng.randint(0, len(marks), size=64)]
        eps = rng.choice(
            [0.0, 1e-7, -1e-7, 9.9e-7, -9.9e-7, 1.1e-6, -1.1e-6], size=64
        )
        values = np.nextafter(base * (1.0 + eps), np.inf)
        assert_same(bin_values(values, GRID), bin_values_reference(values, GRID))

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_random_grids_match_reference(self, seed):
        rng = np.random.RandomState(seed)
        n_bins = int(rng.randint(2, 7))
        sizes = sorted(rng.choice(range(64, 65536), size=n_bins, replace=False))
        grid = {
            int(s): float(m)
            for s, m in zip(sizes, np.sort(10.0 ** rng.uniform(-5, 1, n_bins)))
        }
        values = 10.0 ** rng.uniform(-6, 2, size=int(rng.randint(1, 300)))
        assert_same(bin_values(values, grid), bin_values_reference(values, grid))

    def test_wrappers_route_through_vectorized_path(self):
        sizes = [0.5 * MiB, 3 * MiB, 700 * MiB, 9000 * MiB]
        grid = [512, 2048, 8192, 32768]
        got = bin_transfer_sizes(sizes, grid)
        ref = bin_values_reference(
            sizes, {n: n * n * 4 for n in grid}
        )
        assert_same(got, ref)
        durs = [40e-6, 1.4e-3, 61e-3, 4.0]
        assert_same(
            bin_kernel_durations(durs, GRID), bin_values_reference(durs, GRID)
        )
