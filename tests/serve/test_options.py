"""The SweepOptions bundle: the one spelling of the sweep knobs."""

import dataclasses
import warnings

import pytest

import repro.proxy
from repro.experiments import ExperimentContext
from repro.parallel import PointCache, SweepExecutor
from repro.proxy import SweepOptions, run_slack_sweep


def test_options_are_frozen_and_keyword_only():
    opts = SweepOptions(workers=2, cache=False)
    with pytest.raises(dataclasses.FrozenInstanceError):
        opts.workers = 4
    with pytest.raises(TypeError):
        SweepOptions(2)


def test_defaults_round_trip():
    opts = SweepOptions()
    assert opts.workers == 1
    assert opts.cache is None
    assert opts.fast_forward is None
    assert opts.faults is None
    assert opts.adaptive is False
    assert opts.tol is None
    assert opts == SweepOptions()
    assert hash(opts) == hash(SweepOptions())


def test_validate_rejects_bad_combinations():
    with pytest.raises(ValueError, match="workers"):
        SweepOptions(workers=0).validate()
    with pytest.raises(ValueError, match="adaptive"):
        SweepOptions(tol=1e-3).validate()
    assert SweepOptions(adaptive=True, tol=1e-3).validate().tol == 1e-3
    with pytest.raises(ValueError, match="positive"):
        SweepOptions(adaptive=True, tol=0.0).validate()


def test_validate_normalizes_and_checks_the_fault_plan():
    from repro.faults import FaultPlan
    from repro.faults.plan import LinkFlap

    assert SweepOptions(faults=FaultPlan()).validate().faults is None
    overlapping = FaultPlan(
        events=(
            LinkFlap(start_s=0.0, down_s=2e-3),
            LinkFlap(start_s=1e-3, down_s=1e-3),
        )
    )
    with pytest.raises(ValueError, match="overlapping"):
        SweepOptions(faults=overlapping).validate()


def test_replace_returns_updated_copy():
    base = SweepOptions(workers=1)
    other = base.replace(workers=4)
    assert base.workers == 1 and other.workers == 4


def test_point_cache_resolution(tmp_path):
    assert SweepOptions(cache=None).point_cache() is None
    assert SweepOptions(cache=False).point_cache() is None
    store = PointCache.__new__(PointCache)  # no disk touch needed
    assert SweepOptions(cache=store).point_cache() is store
    assert SweepOptions(cache=store).point_cache(tmp_path) is store
    resolved = SweepOptions(cache=True).point_cache(tmp_path)
    assert resolved.root == tmp_path / "points"


def test_unset_and_resolve_options_are_gone():
    assert not hasattr(repro.proxy, "UNSET")
    assert not hasattr(repro.proxy, "resolve_options")
    with pytest.raises(ImportError):
        from repro.proxy.options import resolve_options  # noqa: F401


def test_run_slack_sweep_accepts_options():
    opts = SweepOptions(workers=1, cache=False, fast_forward=True)
    result = run_slack_sweep(
        matrix_sizes=[256], slack_values_s=[1e-5], threads=[1],
        iterations=3, target_compute_s=2.0, options=opts,
    )
    assert len(result.points) == 1


@pytest.mark.parametrize(
    "knob", ["workers", "cache", "fast_forward", "faults", "adaptive", "tol"]
)
def test_run_slack_sweep_rejects_per_knob_keywords(knob):
    with pytest.raises(TypeError, match=knob):
        run_slack_sweep(
            matrix_sizes=[256], slack_values_s=[1e-5], iterations=3,
            **{knob: None},
        )


def test_positional_grid_is_a_type_error():
    with pytest.raises(TypeError):
        run_slack_sweep([256], [1e-5], [1], 3, 2.0)


def test_executor_takes_concrete_knobs(tmp_path):
    store = PointCache(tmp_path)
    ex = SweepExecutor(3, store, chunk_size=2)
    assert (ex.workers, ex.cache, ex.chunk_size) == (3, store, 2)
    assert SweepExecutor(1).cache is None


def test_executor_rejects_options_keyword():
    with pytest.raises(TypeError):
        SweepExecutor(options=SweepOptions(workers=3))


def test_context_accepts_options_bundle():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        ctx = ExperimentContext(options=SweepOptions(workers=2, cache=False))
    assert ctx.options == SweepOptions(workers=2, cache=False)
    assert ctx.point_cache() is None
    assert ctx._surface_cache_path() is None


def test_context_default_and_workers_shorthand():
    assert ExperimentContext().options == SweepOptions(cache=True)
    assert ExperimentContext(workers=3).options == SweepOptions(
        cache=True, workers=3
    )


def test_context_rejects_workers_with_options():
    with pytest.raises(TypeError, match="not both"):
        ExperimentContext(options=SweepOptions(workers=2), workers=5)


@pytest.mark.parametrize(
    "attr", ["workers", "cache", "fast_forward", "faults", "adaptive",
             "tol", "use_cache"]
)
def test_context_mirror_attributes_are_gone(attr):
    assert not hasattr(ExperimentContext(), attr)
