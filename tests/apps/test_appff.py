"""Application-DES fast-forward: bit-parity and refusal gates.

Mirrors tests/proxy/test_fastforward.py at the application layer: a
jitter-free profiling run fast-forwarded through the epoch monitors
must be *bit-identical* to the full simulation — runtime, derived
rates, and every single trace event — and every ineligible
configuration must refuse with the documented reason and fall back to
the full run.
"""

import pytest

from repro.apps import (
    CosmoFlowProfileConfig,
    LammpsProfileConfig,
    profile_cosmoflow,
    profile_lammps,
)
from repro.apps.lammps import LJParams
from repro.des.fastforward import MIN_ITERATIONS
from repro.faults import FaultPlan
from repro.network import SlackModel
from repro.obs import collecting
from repro.trace import RepeatedEpochTrace


# Jitter-free configs small enough to simulate fully in a test but
# long enough to certify (>= MIN_ITERATIONS epochs / cycles), with a
# non-multiple step count so the tail path is exercised too.
LAMMPS_CONFIG = LammpsProfileConfig(
    params=LJParams(box_size=40, steps=12 * 17 + 5), jitter=0.0
)
COSMOFLOW_CONFIG = CosmoFlowProfileConfig(
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


class TestLammpsParity:
    def test_bit_identical_profile(self):
        full = profile_lammps(LAMMPS_CONFIG, fast_forward=False)
        fast = profile_lammps(LAMMPS_CONFIG, fast_forward=True)
        assert fast.fastforward is not None and fast.fastforward.certified
        assert fast.fastforward.skipped_iterations > 0
        assert fast.fastforward.events_skipped > 0
        _assert_profiles_bit_identical(full, fast)

    def test_bit_identical_under_base_slack(self):
        slack = SlackModel(1e-5)
        full = profile_lammps(LAMMPS_CONFIG, slack, fast_forward=False)
        fast = profile_lammps(LAMMPS_CONFIG, slack, fast_forward=True)
        assert fast.fastforward.certified
        _assert_profiles_bit_identical(full, fast)

    def test_default_is_on(self):
        fast = profile_lammps(LAMMPS_CONFIG)
        assert fast.fastforward.certified


class TestCosmoflowParity:
    def test_bit_identical_profile(self):
        full = profile_cosmoflow(COSMOFLOW_CONFIG, fast_forward=False)
        fast = profile_cosmoflow(COSMOFLOW_CONFIG, fast_forward=True)
        assert fast.fastforward is not None and fast.fastforward.certified
        assert fast.fastforward.skipped_iterations > 0
        _assert_profiles_bit_identical(full, fast)

    def test_bit_identical_under_base_slack(self):
        slack = SlackModel(1e-5)
        full = profile_cosmoflow(COSMOFLOW_CONFIG, slack, fast_forward=False)
        fast = profile_cosmoflow(COSMOFLOW_CONFIG, slack, fast_forward=True)
        assert fast.fastforward.certified
        _assert_profiles_bit_identical(full, fast)


class TestRefusalGates:
    """Ineligible configs fall back to the full run, with the reason."""

    def test_jittered_default_refuses(self):
        # The golden default configs jitter their delays — fast-forward
        # must refuse (outputs stay byte-identical to the seed).
        profile = profile_lammps(
            LammpsProfileConfig(params=LJParams(box_size=40, steps=200))
        )
        assert not profile.fastforward.certified
        assert profile.fastforward.reason == "jitter"

    def test_cosmoflow_jittered_default_refuses(self):
        profile = profile_cosmoflow(
            CosmoFlowProfileConfig(epochs=1, train_samples=64, val_samples=32)
        )
        assert not profile.fastforward.certified
        assert profile.fastforward.reason == "jitter"

    def test_disabled_knob(self):
        profile = profile_lammps(LAMMPS_CONFIG, fast_forward=False)
        assert not profile.fastforward.certified
        assert profile.fastforward.reason == "disabled"
        assert not profile.fastforward.enabled

    def test_too_few_iterations(self):
        short = LammpsProfileConfig(
            params=LJParams(
                box_size=40, steps=17 * (MIN_ITERATIONS - 1)
            ),
            jitter=0.0,
        )
        profile = profile_lammps(short)
        assert not profile.fastforward.certified
        assert profile.fastforward.reason == "too-few-iterations"

    def test_cosmoflow_too_few_cycles(self):
        short = CosmoFlowProfileConfig(
            epochs=1, train_samples=16, val_samples=16, jitter=0.0
        )
        profile = profile_cosmoflow(short)
        assert not profile.fastforward.certified
        assert profile.fastforward.reason == "too-few-iterations"

    def test_faults_active_refuses(self):
        plan = FaultPlan.from_spec(
            "seed=7;spike:start=0ms,duration=1ms,extra=10us"
        )
        profile = profile_lammps(LAMMPS_CONFIG, faults=plan)
        assert not profile.fastforward.certified
        assert profile.fastforward.reason == "faults-active"

    def test_slack_jitter_refuses(self):
        import numpy as np

        slack = SlackModel(
            1e-5, jitter_fraction=0.1, rng=np.random.default_rng(0)
        )
        profile = profile_lammps(LAMMPS_CONFIG, slack)
        assert not profile.fastforward.certified
        assert profile.fastforward.reason == "slack-jitter"


class TestMetrics:
    def test_appff_counters_published(self):
        with collecting() as reg:
            profile_lammps(LAMMPS_CONFIG)
            profile_lammps(LAMMPS_CONFIG, fast_forward=False)
        assert reg.counter("appff.hits").value == 1
        assert reg.counter("appff.fallbacks").value == 1
        assert reg.counter("appff.cycles_skipped").value > 0
        assert reg.counter("appff.events_skipped").value > 0


class TestRepeatedEpochTrace:
    """The lazy trace a fast-forwarded LAMMPS profile carries."""

    def _fast(self):
        return profile_lammps(LAMMPS_CONFIG)

    def test_lazy_until_expanded(self):
        trace = self._fast().trace
        assert isinstance(trace, RepeatedEpochTrace)
        assert not trace.materialized
        n = len(trace)  # cheap: arithmetic, no expansion
        assert not trace.materialized
        events = list(trace)
        assert trace.materialized
        assert len(events) == n

    def test_expanded_events_sorted_and_duration_positive(self):
        trace = self._fast().trace
        events = list(trace)
        starts = [e.start for e in events]
        assert starts == sorted(starts)
        assert all(e.end >= e.start for e in events)

    def test_correlation_ids_unique_per_operation(self):
        trace = self._fast().trace
        kernels = trace.kernels()
        corr = [e.correlation_id for e in kernels]
        assert len(set(corr)) == len(corr)
