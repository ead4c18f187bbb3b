"""Tests for the parallel sweep execution engine.

The engine's contract: fanning a grid out over worker processes (or
resolving it from cache) changes nothing about the result — points,
ordering, and OOM skips are exactly equal to the sequential sweep.
"""

import os

import pytest

from repro.parallel import (
    PointTask,
    SweepExecutor,
    fork_available,
    measure_point,
    merge_stats,
)
from repro.proxy import ProxyConfig, SweepOptions, SweepTiming, run_slack_sweep

#: A compact grid exercising threads, sizes and slack decades.
QUICK_GRID = dict(
    matrix_sizes=(512, 2048),
    slack_values_s=(1e-6, 1e-4, 1e-2),
    threads=(1, 2),
    iterations=10,
)


class TestParallelEqualsSequential:
    @pytest.fixture(scope="class")
    def sequential(self):
        return run_slack_sweep(**QUICK_GRID)

    def test_parallel_points_exactly_equal(self, sequential):
        parallel = run_slack_sweep(
            **QUICK_GRID, options=SweepOptions(workers=2)
        )
        assert parallel.points == sequential.points
        assert parallel.skipped == sequential.skipped

    def test_sequential_matches_legacy_grid_order(self, sequential):
        # threads-major, then matrix size, then ascending grid slack —
        # the historical sequential loop nesting.
        expected = [
            (t, n, s)
            for t in QUICK_GRID["threads"]
            for n in QUICK_GRID["matrix_sizes"]
            for s in QUICK_GRID["slack_values_s"]
        ]
        got = [(p.threads, p.matrix_size, p.slack_s) for p in sequential.points]
        assert got == expected

    def test_oom_skips_identical_in_both_modes(self):
        grid = dict(
            matrix_sizes=(2**15, 512),
            slack_values_s=(1e-6, 1e-4),
            threads=(4,),
            iterations=5,
        )
        sequential = run_slack_sweep(**grid)
        parallel = run_slack_sweep(**grid, options=SweepOptions(workers=2))
        assert sequential.skipped == parallel.skipped
        assert len(sequential.skipped) == 1
        assert sequential.skipped[0][:2] == (2**15, 4)
        assert parallel.points == sequential.points
        # The measurable 512 series is still fully present.
        assert {p.matrix_size for p in parallel.points} == {512}


class TestSweepExecutor:
    def test_default_worker_count_is_cpu_count(self):
        assert SweepExecutor().workers == (os.cpu_count() or 1)

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError):
            SweepExecutor(workers=0)

    def test_preserves_task_order(self):
        config = ProxyConfig(matrix_size=512, threads=1, iterations=3)
        slacks = [0.0, 1e-2, 1e-6, 1e-4]  # deliberately unsorted
        tasks = [PointTask(config, s) for s in slacks]
        results = SweepExecutor(workers=1).run(tasks)
        expected = [measure_point(t) for t in tasks]
        assert [r.loop_runtime_s for r in results] == [
            e.loop_runtime_s for e in expected
        ]

    def test_stats_populated(self):
        config = ProxyConfig(matrix_size=512, threads=1, iterations=3)
        ex = SweepExecutor(workers=1)
        ex.run([PointTask(config, 0.0), PointTask(config, 1e-4)])
        stats = ex.stats
        assert isinstance(stats, SweepTiming)
        assert stats.grid_points == 2
        assert stats.measured == 2
        assert stats.cached == 0
        assert stats.mode == "inline"
        assert stats.workers == 1
        assert stats.wall_s > 0
        assert stats.points_per_sec > 0

    @pytest.mark.skipif(not fork_available(), reason="requires fork")
    def test_pool_mode_reports_process(self):
        config = ProxyConfig(matrix_size=512, threads=1, iterations=3)
        tasks = [PointTask(config, s) for s in (0.0, 1e-6, 1e-4, 1e-2)]
        ex = SweepExecutor(workers=2)
        ex.run(tasks)
        assert ex.stats.mode == "process"
        assert ex.stats.workers == 2


class TestSweepTiming:
    def test_timing_attached_to_sweep_result(self):
        result = run_slack_sweep(
            matrix_sizes=(512,),
            slack_values_s=(1e-4,),
            threads=(1,),
            iterations=3,
        )
        t = result.timing
        assert t is not None
        assert t.grid_points == 2  # baseline + one slack point
        assert t.measured == 2
        assert t.mode == "inline"
        assert t.wall_s > 0
        assert t.point_seconds > 0
        assert t.points_per_sec == pytest.approx(2 / t.wall_s)
        doc = t.to_doc()
        assert doc["grid_points"] == 2
        # Sequential runs must not report a pseudo-speedup: the ratio
        # of the inline path against itself is meaningless, so both
        # the property and the doc emit None (JSON null).
        assert t.speedup_vs_sequential is None
        assert doc["speedup_vs_sequential"] is None

    def test_timing_is_the_executor_stats(self):
        ex = SweepExecutor(workers=1)
        result = run_slack_sweep(
            matrix_sizes=(512,), slack_values_s=(1e-4,), threads=(1,),
            iterations=3, executor=ex,
        )
        assert isinstance(ex.stats, SweepTiming)
        assert ex.stats == result.timing

    def test_timing_excluded_from_equality(self):
        a = run_slack_sweep(
            matrix_sizes=(512,), slack_values_s=(1e-4,), threads=(1,),
            iterations=3,
        )
        b = run_slack_sweep(
            matrix_sizes=(512,), slack_values_s=(1e-4,), threads=(1,),
            iterations=3,
        )
        # Wall times differ between runs, but timing is not part of a
        # result's identity.
        assert a == b


class TestMergeStats:
    def test_merges_additive_fields(self):
        a = SweepTiming(
            wall_s=1.0, grid_points=4, measured=3, cached=1, workers=1,
            mode="inline", point_seconds=0.9,
        )
        b = SweepTiming(
            wall_s=2.0, grid_points=6, measured=6, cached=0, workers=4,
            mode="process", point_seconds=5.0,
        )
        merged = merge_stats([a, b])
        assert merged.wall_s == 3.0
        assert merged.grid_points == 10
        assert merged.measured == 9
        assert merged.cached == 1
        assert merged.workers == 4
        assert merged.mode == "process"
        assert merged.point_seconds == 5.9

    def test_empty_and_none_entries(self):
        assert merge_stats([]) is None
        assert merge_stats([None, None]) is None
        only = SweepTiming(
            wall_s=1.0, grid_points=2, measured=2, cached=0, workers=1,
            mode="inline", point_seconds=0.5,
        )
        assert merge_stats([None, only]) == only


class TestSweepResultIndex:
    def test_get_is_indexed(self):
        sweep = run_slack_sweep(
            matrix_sizes=(512,), slack_values_s=(1e-6, 1e-4), threads=(1,),
            iterations=3,
        )
        p = sweep.get(512, 1, 1e-4)
        assert sweep._index[(512, 1, 1e-4)] is p

    def test_get_tolerance_fallback(self):
        sweep = run_slack_sweep(
            matrix_sizes=(512,), slack_values_s=(1e-4,), threads=(1,),
            iterations=3,
        )
        # Float-close but not bit-identical: still resolves.
        nearly = 1e-4 * (1 + 1e-12)
        assert nearly != 1e-4
        assert sweep.get(512, 1, nearly).slack_s == 1e-4

    def test_get_missing_raises(self):
        sweep = run_slack_sweep(
            matrix_sizes=(512,), slack_values_s=(1e-4,), threads=(1,),
            iterations=3,
        )
        with pytest.raises(KeyError):
            sweep.get(1024, 1, 1e-4)
