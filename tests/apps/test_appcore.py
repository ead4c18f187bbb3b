"""Index cores for LAMMPS and CosmoFlow: bit parity with the reference DES.

Every LAMMPS and CosmoFlow profile runs on its index core except
``fast_forward=False`` and non-empty fault plans, which run the DES.
A profile the index core builds must equal the event-by-event DES run
(``fast_forward=False``, the oracle) in everything the profile cache
stores — every trace column with its dtype, the metas, the interned
names, the runtime and the call rate — and must leave the caller's
slack model (counters and rng) exactly as the DES leaves it. Only the
storage layout (capacity, growths, bytes) is exempt.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import (
    CosmoFlowProfileConfig,
    LammpsProfileConfig,
    profile_cosmoflow,
    profile_lammps,
)
from repro.apps.lammps import LJParams
from repro.apps.profilecache import _profile_arrays
from repro.apps.registry import get_app
from repro.experiments import ExperimentContext, run_experiment
from repro.faults import FaultPlan
from repro.gpusim import PreloadShim
from repro.network import SlackModel
from repro.obs import collecting
from repro.proxy import SweepOptions

SLACKS = {
    "none": lambda: None,
    "fixed": lambda: SlackModel(2e-5),
    "jittered": lambda: SlackModel(
        5e-5, jitter_fraction=0.2, rng=np.random.default_rng(11)
    ),
    "preload": lambda: PreloadShim(
        1e-4, coverage=0.6, rng=np.random.default_rng(5)
    ),
}


def _slack_state(model):
    if model is None:
        return None
    state = dict(vars(model))
    rng = state.pop("_rng", None)
    if rng is not None:
        state["_rng"] = rng.bit_generator.state
    return state


def assert_core_matches_oracle(profiler, config, slack_kind):
    """Profile ``config`` on the default path and on the DES; compare."""
    oracle_slack, core_slack = SLACKS[slack_kind](), SLACKS[slack_kind]()
    oracle = profiler(config, oracle_slack, fast_forward=False)
    with collecting() as reg:
        core = profiler(config, core_slack)
    assert reg.counter("appcore.runs").value == 1
    assert core.runtime_s == oracle.runtime_s
    assert core.cuda_calls_per_second == oracle.cuda_calls_per_second
    assert core.queue_parallelism == oracle.queue_parallelism
    expected, got = _profile_arrays(oracle), _profile_arrays(core)
    assert expected.keys() == got.keys()
    for key in expected:
        assert got[key].dtype == expected[key].dtype, key
        np.testing.assert_array_equal(got[key], expected[key], err_msg=key)
    assert _slack_state(core_slack) == _slack_state(oracle_slack)
    return core


# Jitter-free configs small enough to simulate fully in a test, with a
# step count that is not a multiple of the rebuild cadence.
JITTER_FREE_LAMMPS = LammpsProfileConfig(
    params=LJParams(box_size=40, steps=12 * 17 + 5), jitter=0.0
)
JITTER_FREE_COSMOFLOW = CosmoFlowProfileConfig(
    epochs=2, train_samples=128, val_samples=64, jitter=0.0
)


def _assert_profiles_bit_identical(full, fast):
    assert full.name == fast.name
    assert full.runtime_s == fast.runtime_s
    assert full.queue_parallelism == fast.queue_parallelism
    assert full.cuda_calls_per_second == fast.cuda_calls_per_second
    assert len(full.trace) == len(fast.trace)
    # Every event, not just aggregates: TraceEvent is a frozen
    # dataclass, so == is field-exact (names, timestamps, sizes,
    # correlation ids).
    assert list(full.trace) == list(fast.trace)


def _assert_took_the_core(profile):
    assert not profile.fastforward.certified
    assert profile.fastforward.reason == "no-app-skip"


class TestLammpsParity:
    def test_bit_identical_profile(self):
        full = profile_lammps(JITTER_FREE_LAMMPS, fast_forward=False)
        fast = profile_lammps(JITTER_FREE_LAMMPS, fast_forward=True)
        _assert_took_the_core(fast)
        _assert_profiles_bit_identical(full, fast)

    def test_bit_identical_under_base_slack(self):
        slack = SlackModel(1e-5)
        full = profile_lammps(JITTER_FREE_LAMMPS, slack, fast_forward=False)
        fast = profile_lammps(JITTER_FREE_LAMMPS, slack, fast_forward=True)
        _assert_took_the_core(fast)
        _assert_profiles_bit_identical(full, fast)

    def test_default_is_on(self):
        with collecting() as reg:
            default = profile_lammps(JITTER_FREE_LAMMPS)
        assert default.fastforward.enabled
        assert reg.counter("appcore.runs").value == 1
        _assert_profiles_bit_identical(
            profile_lammps(JITTER_FREE_LAMMPS, fast_forward=True), default
        )

    @settings(max_examples=30, deadline=None)
    @given(
        processes=st.integers(1, 8),
        steps=st.integers(1, 60),
        jitter=st.sampled_from([0.0, 0.1, 0.3]),
        seed=st.integers(0, 2**16),
        slack=st.sampled_from(sorted(SLACKS)),
    )
    def test_core_equals_des(self, processes, steps, jitter, seed, slack):
        config = LammpsProfileConfig(
            params=LJParams(40, steps=steps),
            processes=processes,
            jitter=jitter,
            seed=seed,
        )
        assert_core_matches_oracle(profile_lammps, config, slack)

    @pytest.mark.parametrize("slack", ["fixed", "jittered"])
    def test_short_rebuild_cadence(self, slack):
        config = LammpsProfileConfig(
            params=LJParams(60, steps=23), processes=3, neighbor_every=4
        )
        assert_core_matches_oracle(profile_lammps, config, slack)


class TestCosmoflowParity:
    def test_bit_identical_profile(self):
        full = profile_cosmoflow(JITTER_FREE_COSMOFLOW, fast_forward=False)
        fast = profile_cosmoflow(JITTER_FREE_COSMOFLOW, fast_forward=True)
        _assert_took_the_core(fast)
        _assert_profiles_bit_identical(full, fast)

    def test_bit_identical_under_base_slack(self):
        slack = SlackModel(1e-5)
        full = profile_cosmoflow(
            JITTER_FREE_COSMOFLOW, slack, fast_forward=False
        )
        fast = profile_cosmoflow(
            JITTER_FREE_COSMOFLOW, slack, fast_forward=True
        )
        _assert_took_the_core(fast)
        _assert_profiles_bit_identical(full, fast)

    @settings(max_examples=20, deadline=None)
    @given(
        batch_size=st.sampled_from([2, 4, 8]),
        train_batches=st.integers(1, 12),
        val_batches=st.integers(0, 6),
        cadences=st.tuples(
            st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)
        ),
        epochs=st.integers(1, 2),
        jitter=st.sampled_from([0.0, 0.08]),
        slack=st.sampled_from(sorted(SLACKS)),
    )
    def test_core_equals_des(
        self, batch_size, train_batches, val_batches, cadences, epochs,
        jitter, slack,
    ):
        prefetch, exchange, sync = cadences
        config = CosmoFlowProfileConfig(
            batch_size=batch_size,
            epochs=epochs,
            train_samples=train_batches * batch_size,
            val_samples=val_batches * batch_size,
            prefetch_batches=prefetch,
            gradient_exchange_every=exchange,
            weight_sync_every=sync,
            jitter=jitter,
        )
        assert_core_matches_oracle(profile_cosmoflow, config, slack)


class TestDispatch:
    def test_jittered_default_runs_the_core(self):
        config = LammpsProfileConfig(params=LJParams(40, steps=30))
        with collecting() as reg:
            profile = profile_lammps(config)
        assert reg.counter("appcore.runs").value == 1
        assert profile.fastforward.reason == "no-app-skip"

    def test_fault_plan_falls_back_to_the_des(self):
        plan = FaultPlan.from_spec(
            "seed=7;spike:start=0ms,duration=1ms,extra=10us"
        )
        config = LammpsProfileConfig(params=LJParams(40, steps=30))
        with collecting() as reg:
            faulted = profile_lammps(config, faults=plan)
        assert reg.counter("appcore.fallbacks.faults-active").value == 1
        assert reg.counter("appcore.runs").value == 0
        assert faulted.fastforward.reason == "faults-active"
        assert faulted.runtime_s != profile_lammps(config).runtime_s

    def test_empty_fault_plan_runs_the_core(self):
        config = CosmoFlowProfileConfig(
            epochs=1, train_samples=32, val_samples=16
        )
        with collecting() as reg:
            profile_cosmoflow(config, faults=FaultPlan())
        assert reg.counter("appcore.runs").value == 1

    def test_disabled_runs_the_des(self):
        config = CosmoFlowProfileConfig(
            epochs=1, train_samples=32, val_samples=16
        )
        with collecting() as reg:
            profile = profile_cosmoflow(config, fast_forward=False)
        assert reg.counter("appcore.fallbacks.disabled").value == 1
        assert reg.counter("appcore.runs").value == 0
        assert profile.fastforward.reason == "disabled"

    def test_fast_forwardable_run_keeps_fast_forward(self):
        with collecting() as reg:
            profile = profile_lammps(JITTER_FREE_LAMMPS)
        assert profile.fastforward.enabled
        _assert_took_the_core(profile)
        assert reg.counter("appcore.runs").value == 1


@pytest.fixture(scope="module")
def contexts():
    """Uncached quick contexts: reference DES and default (index cores)."""
    oracle = ExperimentContext(
        quick=True, options=SweepOptions(cache=False, fast_forward=False)
    )
    default = ExperimentContext(quick=True, options=SweepOptions(cache=False))
    return oracle, default


class TestPaperConfigs:
    @pytest.mark.parametrize("app", ["lammps", "cosmoflow"])
    def test_quick_default_profiles_equal_des(self, contexts, app):
        oracle, default = contexts
        assert default.app_config(app) == get_app(app).default_config(True)
        expected = _profile_arrays(oracle.app_profile(app))
        got = _profile_arrays(default.app_profile(app))
        assert default.app_profile(app).fastforward.reason == "no-app-skip"
        assert oracle.app_profile(app).fastforward.reason == "disabled"
        assert expected.keys() == got.keys()
        for key in expected:
            assert got[key].dtype == expected[key].dtype, key
            np.testing.assert_array_equal(got[key], expected[key])

    @pytest.mark.parametrize("experiment", ["table3", "figure4"])
    def test_rendered_experiment_equals_des(self, contexts, experiment):
        oracle, default = contexts
        assert (
            run_experiment(experiment, default).render()
            == run_experiment(experiment, oracle).render()
        )
