"""Tests for the content-addressed per-point result cache.

Covers the acceptance contract: a warm cache performs zero proxy runs,
extending the grid reuses every previously cached point, and changing
any ``ProxyConfig`` field or the cache version tag invalidates.
"""

import dataclasses

import pytest

import repro.parallel.point as point_mod
from repro.parallel import (
    PointCache,
    PointMeasurement,
    PointTask,
    point_key,
)
from repro.proxy import ProxyConfig, SweepOptions, run_slack_sweep

GRID = dict(
    matrix_sizes=(512, 2048),
    slack_values_s=(1e-6, 1e-4),
    threads=(1, 2),
    iterations=5,
)


@pytest.fixture
def count_proxy_runs(monkeypatch):
    """Instrument run_proxy with a call counter (inline executor path)."""
    calls = []
    real = point_mod.run_proxy

    def counting(config, slack=None, **kwargs):
        calls.append((config, slack))
        return real(config, slack, **kwargs)

    monkeypatch.setattr(point_mod, "run_proxy", counting)
    return calls


class TestPointKey:
    CONFIG = ProxyConfig(matrix_size=512, threads=1, iterations=5)

    def test_stable(self):
        assert point_key(self.CONFIG, 1e-4) == point_key(self.CONFIG, 1e-4)

    def test_slack_changes_key(self):
        assert point_key(self.CONFIG, 1e-4) != point_key(self.CONFIG, 1e-3)

    def test_any_config_field_changes_key(self):
        base = point_key(self.CONFIG, 1e-4)
        for change in (
            {"matrix_size": 1024},
            {"threads": 2},
            {"iterations": 6},
            {"dtype_bytes": 8},
            {"target_compute_s": 10.0},
            {"phase_barrier": True},
            {"gpu": dataclasses.replace(self.CONFIG.gpu, fp32_tflops=9.7)},
        ):
            changed = dataclasses.replace(self.CONFIG, **change)
            assert point_key(changed, 1e-4) != base, change

    def test_version_tag_changes_key(self):
        assert point_key(self.CONFIG, 1e-4, version="a") != point_key(
            self.CONFIG, 1e-4, version="b"
        )


class TestCacheRoundTrip:
    def test_warm_cache_runs_zero_proxies(self, tmp_path, count_proxy_runs):
        cache = PointCache(tmp_path)
        first = run_slack_sweep(**GRID, options=SweepOptions(cache=cache))
        cold_calls = len(count_proxy_runs)
        assert cold_calls == first.timing.measured > 0

        second = run_slack_sweep(**GRID, options=SweepOptions(cache=cache))
        assert len(count_proxy_runs) == cold_calls  # zero new run_proxy calls
        assert second.timing.measured == 0
        assert second.timing.cached == first.timing.measured
        assert second.points == first.points
        assert second.skipped == first.skipped

    def test_grid_extension_reuses_all_cached_points(
        self, tmp_path, count_proxy_runs
    ):
        cache = PointCache(tmp_path)
        run_slack_sweep(**GRID, options=SweepOptions(cache=cache))
        before = len(count_proxy_runs)

        extended = dict(GRID, slack_values_s=(1e-6, 1e-4, 1e-2))
        result = run_slack_sweep(**extended, options=SweepOptions(cache=cache))
        # Exactly one new slack point per configuration; baselines and
        # the old slack values all come from the cache.
        configs = len(GRID["matrix_sizes"]) * len(GRID["threads"])
        assert len(count_proxy_runs) - before == configs
        assert result.timing.measured == configs
        assert result.timing.cached == configs * 3  # baseline + 2 old slacks

    def test_oom_failures_cached(self, tmp_path, count_proxy_runs):
        grid = dict(
            matrix_sizes=(2**15,), slack_values_s=(1e-6,), threads=(4,),
            iterations=5,
        )
        cache = PointCache(tmp_path)
        first = run_slack_sweep(**grid, options=SweepOptions(cache=cache))
        assert len(first.skipped) == 1
        before = len(count_proxy_runs)

        second = run_slack_sweep(**grid, options=SweepOptions(cache=cache))
        assert len(count_proxy_runs) == before  # OOM verdicts cached too
        assert second.skipped == first.skipped

    def test_cold_sweep_hashes_each_key_once(self, tmp_path, monkeypatch):
        # A miss's get and the put of its measurement share one key.
        import repro.parallel.pointcache as pointcache_mod

        keys = []
        real = pointcache_mod.point_key

        def counting(*args, **kwargs):
            keys.append(real(*args, **kwargs))
            return keys[-1]

        monkeypatch.setattr(pointcache_mod, "point_key", counting)
        cache = PointCache(tmp_path)
        result = run_slack_sweep(**GRID, options=SweepOptions(cache=cache))
        grid_points = result.timing.grid_points
        assert result.timing.measured == grid_points
        assert len(keys) == grid_points == len(set(keys))
        assert cache.writes == grid_points
        assert not cache._missed

    def test_cached_points_bitwise_equal(self, tmp_path):
        cache = PointCache(tmp_path)
        fresh = run_slack_sweep(**GRID, options=SweepOptions(cache=cache))
        cached = run_slack_sweep(**GRID, options=SweepOptions(cache=cache))
        # Floats survive the JSON round-trip exactly (repr round-trip).
        assert cached.points == fresh.points


class TestCacheInvalidation:
    def test_config_field_change_invalidates(self, tmp_path, count_proxy_runs):
        cache = PointCache(tmp_path)
        run_slack_sweep(**GRID, options=SweepOptions(cache=cache))
        before = len(count_proxy_runs)

        changed = dict(GRID, iterations=6)
        result = run_slack_sweep(**changed, options=SweepOptions(cache=cache))
        assert result.timing.cached == 0
        assert len(count_proxy_runs) - before == result.timing.measured > 0

    def test_version_tag_change_invalidates(self, tmp_path, count_proxy_runs):
        cache_v1 = PointCache(tmp_path, version="v1")
        run_slack_sweep(**GRID, options=SweepOptions(cache=cache_v1))
        before = len(count_proxy_runs)

        cache_v2 = PointCache(tmp_path, version="v2")
        result = run_slack_sweep(**GRID, options=SweepOptions(cache=cache_v2))
        assert result.timing.cached == 0
        assert len(count_proxy_runs) > before


class TestFaultPlanKeying:
    """Degraded and healthy points must never alias in the cache."""

    CONFIG = ProxyConfig(matrix_size=512, threads=1, iterations=5)

    @staticmethod
    def _plan(seed=42):
        from repro.faults import FaultPlan

        return FaultPlan.from_spec(f"seed={seed};loss:rate=1%")

    def test_fault_plan_changes_key(self):
        assert point_key(self.CONFIG, 1e-4, faults=self._plan()) != point_key(
            self.CONFIG, 1e-4
        )

    def test_seed_alone_changes_key(self):
        assert point_key(self.CONFIG, 1e-4, faults=self._plan(1)) != point_key(
            self.CONFIG, 1e-4, faults=self._plan(2)
        )

    def test_empty_plan_shares_key_with_none(self):
        from repro.faults import FaultPlan

        assert point_key(
            self.CONFIG, 1e-4, faults=FaultPlan(seed=7)
        ) == point_key(self.CONFIG, 1e-4)

    def test_cache_misses_when_only_fault_plan_differs(self, tmp_path):
        cache = PointCache(tmp_path)
        m = PointMeasurement(ok=True, loop_runtime_s=1.0)
        cache.put(self.CONFIG, 1e-4, m)
        assert cache.get(self.CONFIG, 1e-4) == m
        assert cache.get(self.CONFIG, 1e-4, self._plan()) is None
        degraded = PointMeasurement(ok=True, loop_runtime_s=2.0)
        cache.put(self.CONFIG, 1e-4, degraded, self._plan())
        assert cache.get(self.CONFIG, 1e-4, self._plan()) == degraded
        assert cache.get(self.CONFIG, 1e-4) == m  # healthy entry intact

    def test_degraded_sweep_does_not_reuse_healthy_points(
        self, tmp_path, count_proxy_runs
    ):
        cache = PointCache(tmp_path)
        grid = dict(
            matrix_sizes=(512,), slack_values_s=(1e-4,), threads=(1,),
            iterations=5,
        )
        run_slack_sweep(**grid, options=SweepOptions(cache=cache))
        before = len(count_proxy_runs)

        degraded = run_slack_sweep(
            **grid, options=SweepOptions(cache=cache, faults=self._plan())
        )
        # Every degraded point re-measures: zero healthy entries reused.
        assert degraded.timing.cached == 0
        assert len(count_proxy_runs) - before == degraded.timing.measured > 0

        # ... and the degraded run is itself warm on a second pass.
        again = run_slack_sweep(
            **grid, options=SweepOptions(cache=cache, faults=self._plan())
        )
        assert again.timing.measured == 0
        assert again.points == degraded.points


class TestCacheStore:
    CONFIG = ProxyConfig(matrix_size=512, threads=1, iterations=3)

    def test_get_miss_returns_none(self, tmp_path):
        assert PointCache(tmp_path).get(self.CONFIG, 1e-4) is None

    def test_put_get_roundtrip(self, tmp_path):
        cache = PointCache(tmp_path)
        m = PointMeasurement(
            ok=True, loop_runtime_s=1.25, corrected_runtime_s=1.2,
            iterations=3, kernel_time_s=0.01, injected_slack_s=0.05,
            starvation_cost_s=0.0, elapsed_s=0.5,
        )
        cache.put(self.CONFIG, 1e-4, m)
        assert cache.get(self.CONFIG, 1e-4) == m
        assert len(cache) == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = PointCache(tmp_path)
        m = PointMeasurement(ok=True, loop_runtime_s=1.0)
        path = cache.put(self.CONFIG, 1e-4, m)
        path.write_text("{not json")
        assert cache.get(self.CONFIG, 1e-4) is None

    def test_clear_removes_everything(self, tmp_path):
        cache = PointCache(tmp_path)
        cache.put(self.CONFIG, 1e-4, PointMeasurement(ok=True))
        cache.put(self.CONFIG, 1e-3, PointMeasurement(ok=True))
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0
        assert cache.get(self.CONFIG, 1e-4) is None

    def test_executor_counts_cache_hits(self, tmp_path):
        from repro.parallel import SweepExecutor

        cache = PointCache(tmp_path)
        tasks = [PointTask(self.CONFIG, s) for s in (0.0, 1e-4)]
        ex = SweepExecutor(workers=1, cache=cache)
        ex.run(tasks)
        assert ex.stats.measured == 2 and ex.stats.cached == 0
        ex.run(tasks)
        assert ex.stats.measured == 0 and ex.stats.cached == 2


class TestConcurrentWrites:
    """put() must survive racing writers of the same entry (worker
    pools, shard subprocesses, shared network filesystems)."""

    CONFIG = ProxyConfig(matrix_size=512, threads=1, iterations=3)

    def test_lost_rename_race_is_counted_not_raised(
        self, tmp_path, monkeypatch
    ):
        from pathlib import Path

        cache = PointCache(tmp_path)
        m = PointMeasurement(ok=True, loop_runtime_s=1.0)

        def racing_replace(self, target):
            raise FileExistsError(target)  # non-atomic fs mid-race

        monkeypatch.setattr(Path, "replace", racing_replace)
        path = cache.put(self.CONFIG, 1e-4, m)  # must not raise
        assert cache.write_races == 1
        assert cache.writes == 0
        # The loser's temp file never litters the store.
        assert list(tmp_path.rglob("*.tmp")) == []

        monkeypatch.undo()
        assert cache.put(self.CONFIG, 1e-4, m) == path
        assert cache.writes == 1
        assert cache.get(self.CONFIG, 1e-4) == m

    def test_race_publishes_write_races_metric(self, tmp_path, monkeypatch):
        from pathlib import Path

        from repro.obs import collecting

        cache = PointCache(tmp_path)
        monkeypatch.setattr(
            Path, "replace", lambda self, target: (_ for _ in ()).throw(
                FileExistsError(target)
            )
        )
        with collecting() as reg:
            cache.put(self.CONFIG, 1e-4, PointMeasurement(ok=True))
            assert reg.counter("pointcache.write_races").value == 1

    def test_unwritable_store_does_not_crash_the_sweep(
        self, tmp_path, monkeypatch
    ):
        from pathlib import Path

        cache = PointCache(tmp_path)
        monkeypatch.setattr(
            Path,
            "write_text",
            lambda self, *a, **k: (_ for _ in ()).throw(OSError("full")),
        )
        cache.put(self.CONFIG, 1e-4, PointMeasurement(ok=True))
        assert cache.write_races == 1 and cache.writes == 0

    def test_same_content_writers_converge(self, tmp_path):
        # Two cache objects (two "hosts") writing the same point: both
        # succeed, the entry holds the shared content either way.
        a, b = PointCache(tmp_path), PointCache(tmp_path)
        m = PointMeasurement(ok=True, loop_runtime_s=2.5)
        assert a.put(self.CONFIG, 1e-4, m) == b.put(self.CONFIG, 1e-4, m)
        assert a.get(self.CONFIG, 1e-4) == m
        assert a.write_races == b.write_races == 0


