"""Wall-clock speedup of the parallel sweep engine.

The acceptance bar: on a >= 4-core runner, the paper's quick grid runs
at least 2x faster with a worker pool than sequentially, while
producing exactly equal points. Single- and dual-core environments
skip the ratio assertion (the pool cannot win there) but the parity
contract is still covered by tests/parallel/test_executor.py.
"""

import os

import pytest

from repro.parallel import PointCache, fork_available
from repro.proxy import (
    PAPER_MATRIX_SIZES,
    PAPER_SLACK_VALUES_S,
    PAPER_THREAD_COUNTS,
    SweepOptions,
    run_slack_sweep,
)

#: The paper's quick grid (the surface ExperimentContext builds), with
#: enough iterations that compute dominates pool startup.
QUICK_PAPER_GRID = dict(
    matrix_sizes=PAPER_MATRIX_SIZES,
    slack_values_s=PAPER_SLACK_VALUES_S,
    threads=PAPER_THREAD_COUNTS,
    iterations=40,
)


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4 or not fork_available(),
    reason="speedup bar needs >= 4 cores and fork",
)
def test_quick_grid_speedup_at_least_2x():
    workers = min(os.cpu_count() or 1, 8)
    sequential = run_slack_sweep(**QUICK_PAPER_GRID)
    parallel = run_slack_sweep(
        **QUICK_PAPER_GRID, options=SweepOptions(workers=workers)
    )

    assert parallel.points == sequential.points
    assert parallel.skipped == sequential.skipped
    assert parallel.timing.mode == "process"

    speedup = sequential.timing.wall_s / parallel.timing.wall_s
    assert speedup >= 2.0, (
        f"parallel sweep only {speedup:.2f}x faster "
        f"({sequential.timing.wall_s:.2f}s -> {parallel.timing.wall_s:.2f}s "
        f"with {workers} workers)"
    )


def test_cache_hit_counts_parity_inline_vs_pool(tmp_path):
    """SweepTiming counts cache hits identically on every execution path.

    The inline (workers=1) loop and the process pool must report the
    same cached/measured split for the same warm cache — the numbers
    come from the shared cache-resolution pass, not from the execution
    backend.
    """
    grid = dict(
        matrix_sizes=[256], slack_values_s=[1e-5, 1e-4],
        threads=[1], iterations=5,
    )
    n_points = 3  # baseline + two slack values

    def cached(workers=1):
        return SweepOptions(
            workers=workers, cache=PointCache(tmp_path / "points")
        )

    cold = run_slack_sweep(**grid, options=cached())
    assert cold.timing.grid_points == n_points
    assert (cold.timing.cached, cold.timing.measured) == (0, n_points)

    warm_inline = run_slack_sweep(**grid, options=cached())
    assert (warm_inline.timing.cached, warm_inline.timing.measured) == (
        n_points, 0
    )

    if fork_available() and (os.cpu_count() or 1) >= 2:
        warm_pool = run_slack_sweep(**grid, options=cached(workers=2))
        assert (warm_pool.timing.cached, warm_pool.timing.measured) == (
            warm_inline.timing.cached, warm_inline.timing.measured
        )
        assert warm_pool.points == warm_inline.points == cold.points
