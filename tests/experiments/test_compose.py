"""The accelerators compose.

Quick Table III and Table IV must print the same bytes whichever
engine measured them (the index cores or the reference DES), whether
the point, profile and surface caches started cold or warm, and
whether the proxy sweep ran inline or on a process pool. The
reference is the default configuration: the cores, a cold cache, one
worker.
"""

import pytest

from repro.experiments import ExperimentContext, run_experiment
from repro.proxy import SweepOptions

from ..bytesdiff import assert_same_document

EXPERIMENTS = ("table3", "table4")

#: Engine name -> the ``fast_forward`` knob that selects it.
ENGINES = {"core": None, "des": False}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """``(engine, workers) -> {"cold": ..., "warm": ...}`` renderings.

    Each pair gets its own cache directory: a cold context fills it,
    then a fresh context renders from it warm. Built on first use and
    shared by the cases of that pair.
    """
    memo = {}

    def render(cache_dir, engine, workers, cache):
        ctx = ExperimentContext(
            quick=True,
            cache_dir=cache_dir,
            options=SweepOptions(
                cache=True, fast_forward=ENGINES[engine], workers=workers
            ),
        )
        doc = "".join(run_experiment(eid, ctx).render() for eid in EXPERIMENTS)
        if cache == "warm":
            # The surface came from the file, not from a sweep.
            assert ctx.sweep_timing is None
        else:
            timing = ctx.sweep_timing
            assert timing.measured == timing.grid_points
            assert timing.mode == ("process" if workers > 1 else "inline")
        return doc

    def get(engine, workers):
        if (engine, workers) not in memo:
            cache_dir = tmp_path_factory.mktemp(f"{engine}-{workers}")
            cold = render(cache_dir, engine, workers, "cold")
            warm = render(cache_dir, engine, workers, "warm")
            memo[engine, workers] = {"cold": cold, "warm": warm}
        return memo[engine, workers]

    return get


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("cache", ["cold", "warm"])
@pytest.mark.parametrize("engine", list(ENGINES))
def test_tables_identical_across_accelerators(outputs, engine, cache, workers):
    assert_same_document(
        outputs(engine, workers)[cache],
        outputs("core", 1)["cold"],
        note=f"{engine} engine, {cache} cache, {workers} worker(s)",
    )
