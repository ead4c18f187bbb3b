"""Tests for parallel experiment execution in run_all."""

import pytest

from repro.experiments import ExperimentContext, run_all, run_experiment
from repro.experiments import runner
from repro.experiments.runner import experiment_ids
from repro.faults import FaultPlan
from repro.parallel import fork_available
from repro.proxy import SweepOptions


class TestRunAllParallel:
    @pytest.fixture(scope="class")
    def shared_cache(self, tmp_path_factory):
        return tmp_path_factory.mktemp("cache")

    def test_workers_one_is_sequential(self, shared_cache):
        ctx = ExperimentContext(quick=True, cache_dir=shared_cache)
        results = run_all(ctx, workers=1)
        assert [r.experiment_id for r in results] == experiment_ids()

    @pytest.mark.skipif(not fork_available(), reason="requires fork")
    def test_parallel_matches_sequential(self, shared_cache):
        ctx = ExperimentContext(quick=True, cache_dir=shared_cache)
        results = run_all(ctx, workers=2)
        # Registry order regardless of completion order.
        assert [r.experiment_id for r in results] == experiment_ids()
        # Spot-check determinism: a worker-produced artifact renders
        # identically to one computed in this process from the same
        # disk caches.
        direct = run_experiment("table1", ctx)
        parallel_table1 = results[experiment_ids().index("table1")]
        assert parallel_table1.render() == direct.render()


class _InlinePool:
    """Stands in for the process pool: runs the initializer here and
    answers every experiment with the worker context it built."""

    def __init__(self, max_workers, mp_context, initializer, initargs):
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, ids):
        return [runner._WORKER_CTX for _ in ids]


def test_worker_context_keeps_the_parents_options(tmp_path, monkeypatch):
    """A pool worker rebuilds the parent's context with every sweep knob
    but ``workers`` — so it keys (and loads) the same surface file."""
    plan = FaultPlan.from_spec("seed=7;loss:rate=1%")
    ctx = ExperimentContext(
        quick=True,
        cache_dir=tmp_path,
        options=SweepOptions(
            workers=2, cache=True, faults=plan, adaptive=True, tol=5e-4,
            fast_forward=False,
        ),
    )
    # run_all imports the pool only when it starts one.
    monkeypatch.setattr(
        "concurrent.futures.ProcessPoolExecutor", _InlinePool
    )
    monkeypatch.setattr(runner, "_WORKER_CTX", None)
    monkeypatch.setattr(ctx, "surface", lambda: None)  # no sweep needed
    monkeypatch.setattr(runner, "experiment_ids", lambda: ["a", "b"])

    worker = run_all(ctx, workers=2)[0]
    assert worker is not ctx
    assert worker.options == ctx.options.replace(workers=1)
    assert worker.cache_dir == ctx.cache_dir
    assert worker.quick == ctx.quick
    assert worker._surface_cache_path() == ctx._surface_cache_path()
