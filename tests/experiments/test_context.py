"""Tests for the shared experiment context (caching, configuration)."""

import pytest

from repro.experiments import ExperimentContext
from repro.experiments.context import default_cache_dir
from repro.proxy import SweepOptions


class TestConfiguration:
    def test_quick_mode_fixes_iterations(self):
        assert ExperimentContext(quick=True).sweep_iterations == 25
        assert ExperimentContext(quick=False).sweep_iterations is None

    def test_quick_mode_shortens_profiling_runs(self):
        quick = ExperimentContext(quick=True)
        full = ExperimentContext(quick=False)
        assert quick.lammps_config().params.steps < \
            full.lammps_config().params.steps
        assert quick.cosmoflow_config().epochs < \
            full.cosmoflow_config().epochs

    def test_full_mode_uses_paper_run_lengths(self):
        full = ExperimentContext(quick=False)
        assert full.lammps_config().params.steps == 5000
        cfg = full.cosmoflow_config()
        assert cfg.epochs == 5
        assert cfg.train_samples == cfg.val_samples == 1024

    def test_default_cache_dir_is_repo_local(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert default_cache_dir().name == ".cache"

    def test_cache_dir_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "shared"))
        assert default_cache_dir() == tmp_path / "shared"
        # Empty/whitespace values fall back to the repo-local default.
        monkeypatch.setenv("REPRO_CACHE_DIR", "  ")
        assert default_cache_dir().name == ".cache"

    def test_cache_dir_env_override_feeds_context(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-cache"))
        ctx = ExperimentContext(quick=True)
        cache = ctx.point_cache()
        assert cache is not None
        assert cache.root == tmp_path / "env-cache" / "points"
        # An explicit cache_dir still wins over the environment.
        ctx2 = ExperimentContext(quick=True, cache_dir=tmp_path / "explicit")
        assert ctx2.point_cache().root == tmp_path / "explicit" / "points"
        # A str cache_dir is coerced at construction, not at first use.
        ctx3 = ExperimentContext(quick=True, cache_dir=str(tmp_path / "s"))
        assert ctx3.cache_dir == tmp_path / "s"
        assert ctx3.point_cache().root == tmp_path / "s" / "points"
        assert ctx3._surface_cache_path().parent == tmp_path / "s"

    def test_adaptive_knobs(self):
        opts = SweepOptions(cache=True, adaptive=True, tol=5e-4)
        ctx = ExperimentContext(quick=True, options=opts)
        assert ctx.options == opts
        with pytest.raises(ValueError):
            ExperimentContext(options=SweepOptions(cache=True, tol=1e-3))

    def test_adaptive_surface_gets_own_cache_digest(self, tmp_path):
        dense = ExperimentContext(quick=True, cache_dir=tmp_path)
        adaptive = ExperimentContext(
            quick=True, cache_dir=tmp_path,
            options=SweepOptions(cache=True, adaptive=True),
        )
        assert dense._surface_cache_path() != adaptive._surface_cache_path()

    def test_empty_fault_plan_is_the_healthy_context(self, tmp_path):
        from repro.faults import FaultPlan

        healthy = ExperimentContext(quick=True, cache_dir=tmp_path)
        empty = ExperimentContext(
            quick=True, cache_dir=tmp_path,
            options=SweepOptions(cache=True, faults=FaultPlan(seed=3)),
        )
        assert empty.options == healthy.options
        assert empty._surface_cache_path() == healthy._surface_cache_path()


class TestProfileMemoization:
    def test_profiles_memoized(self):
        ctx = ExperimentContext(quick=True)
        assert ctx.lammps_profile() is ctx.lammps_profile()
        assert ctx.cosmoflow_profile() is ctx.cosmoflow_profile()

    def test_profiles_tuple(self):
        ctx = ExperimentContext(quick=True)
        lam, cosmo = ctx.profiles()
        assert lam.name == "lammps"
        assert cosmo.name == "cosmoflow"


class TestSurfaceCaching:
    def test_surface_memoized_in_process(self):
        ctx = ExperimentContext(quick=True)
        assert ctx.surface() is ctx.surface()

    def test_surface_disk_cache_roundtrip(self, tmp_path):
        # Build with a private cache dir: the first context writes,
        # the second reads the file instead of re-sweeping.
        ctx1 = ExperimentContext(quick=True, cache_dir=tmp_path)
        surface1 = ctx1.surface()
        files = list(tmp_path.glob("surface-*.json"))
        assert len(files) == 1

        ctx2 = ExperimentContext(quick=True, cache_dir=tmp_path)
        surface2 = ctx2.surface()
        assert surface2.matrix_sizes() == surface1.matrix_sizes()
        assert surface2.penalty(512, 1e-4) == pytest.approx(
            surface1.penalty(512, 1e-4)
        )
        # Still just one cache file (same key).
        assert len(list(tmp_path.glob("surface-*.json"))) == 1

    def test_torn_surface_file_is_a_miss(self, tmp_path):
        # A killed writer's torn file (or any unreadable one) must not
        # break later runs: the next context re-assembles the surface
        # from the point cache and rewrites a valid file.
        import json

        surface1 = ExperimentContext(quick=True, cache_dir=tmp_path).surface()
        (path,) = tmp_path.glob("surface-*.json")
        text = path.read_text()
        path.write_text(text[: len(text) // 2])

        ctx2 = ExperimentContext(quick=True, cache_dir=tmp_path)
        surface2 = ctx2.surface()
        assert ctx2.sweep_timing.measured == 0  # all from the point cache
        assert list(surface2.iter_points()) == list(surface1.iter_points())
        assert json.loads(path.read_text()) == json.loads(text)
        assert [p.name for p in tmp_path.iterdir() if p.is_file()] == [
            path.name
        ]

    def test_surface_file_keyed_on_point_cache_version(
        self, tmp_path, monkeypatch
    ):
        import repro.experiments.context as context

        ctx = ExperimentContext(quick=True, cache_dir=tmp_path)
        before = ctx._surface_cache_path()
        monkeypatch.setattr(context, "POINT_CACHE_VERSION", "next")
        assert ctx._surface_cache_path() != before
