"""Steady-state fast-forward: parity and refusal gates.

The contract under test is strong: a fast-forwarded proxy run (the
index core skipping its certified steady state) is **bit-identical**
to the full event-by-event simulation in every result field —
runtimes, injected slack, starvation cost, the trace, and the
complete simulator-telemetry snapshot. These tests compare with
``==``, not ``pytest.approx``, on purpose.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import SlackModel
from repro.gpusim.flatcore import MIN_ITERATIONS
from repro.proxy import FastForwardInfo, ProxyConfig, SweepOptions, run_proxy
from repro.proxy.matmul import core_fallback_reason


def _pair(config, slack_s):
    """One config run both ways: full simulation and fast-forwarded."""
    full = run_proxy(config, SlackModel(slack_s), fast_forward=False)
    fast = run_proxy(config, SlackModel(slack_s), fast_forward=True)
    return full, fast


def _assert_bit_identical(full, fast):
    assert full.loop_runtime_s == fast.loop_runtime_s
    assert full.corrected_runtime_s == fast.corrected_runtime_s
    assert full.injected_slack_s == fast.injected_slack_s
    assert full.starvation_cost_s == fast.starvation_cost_s
    assert full.iterations == fast.iterations
    assert full.kernel_time_s == fast.kernel_time_s
    assert len(full.trace) == len(fast.trace)
    assert full.sim_metrics == fast.sim_metrics


class TestParity:
    @pytest.mark.parametrize("threads", [1, 2, 4, 8])
    def test_bit_identical_across_thread_counts(self, threads):
        config = ProxyConfig(matrix_size=512, threads=threads, iterations=40)
        full, fast = _pair(config, 1e-5)
        assert fast.fastforward is not None and fast.fastforward.certified
        assert fast.fastforward.skipped_iterations > 0
        _assert_bit_identical(full, fast)

    @pytest.mark.parametrize("slack_s", [0.0, 1e-5, 1e-3])
    def test_bit_identical_across_slacks(self, slack_s):
        config = ProxyConfig(matrix_size=512, threads=2, iterations=30)
        full = run_proxy(
            config,
            SlackModel.none() if slack_s == 0.0 else SlackModel(slack_s),
            fast_forward=False,
        )
        fast = run_proxy(
            config,
            SlackModel.none() if slack_s == 0.0 else SlackModel(slack_s),
            fast_forward=True,
        )
        assert fast.fastforward.certified
        _assert_bit_identical(full, fast)

    def test_bit_identical_large_matrix(self):
        config = ProxyConfig(matrix_size=2048, threads=2, iterations=20)
        full, fast = _pair(config, 1e-4)
        assert fast.fastforward.certified
        _assert_bit_identical(full, fast)

    def test_trace_events_identical(self):
        # The repeated-epoch trace expands to the exact event list the
        # full simulation records — every field of every event.
        config = ProxyConfig(matrix_size=512, threads=2, iterations=30)
        full, fast = _pair(config, 1e-5)
        full_events = list(full.trace)
        fast_events = list(fast.trace)
        assert len(full_events) == len(fast_events)
        for a, b in zip(full_events, fast_events):
            assert dataclasses.asdict(a) == dataclasses.asdict(b)
        assert full.trace.busy_time() == fast.trace.busy_time()
        assert full.trace.total_time() == fast.trace.total_time()
        assert full.trace.max_concurrency() == fast.trace.max_concurrency()

    def test_info_accounting(self):
        config = ProxyConfig(matrix_size=512, threads=1, iterations=100)
        fast = run_proxy(config, SlackModel(1e-5))
        info = fast.fastforward
        assert isinstance(info, FastForwardInfo)
        assert info.enabled and info.certified and info.reason is None
        assert info.warmup_iterations + info.skipped_iterations == 100
        assert info.warmup_iterations < 15  # settles within a few epochs
        assert info.events_skipped > 0
        assert info.cycle_period_s > 0


class TestRefusalGates:
    """Ineligible configs run the full simulation — and say why."""

    def _assert_full_run(self, config, make_slack, reason):
        # SlackModel instances are stateful (they account the delays
        # they hand out), so each run gets a fresh one.
        default = run_proxy(config, make_slack())
        assert default.fastforward is not None
        assert not default.fastforward.certified
        assert default.fastforward.reason == reason
        # The fallback IS the full simulation: forcing fast_forward
        # off changes nothing but the recorded reason.
        off = run_proxy(config, make_slack(), fast_forward=False)
        assert off.fastforward.reason == "disabled"
        _assert_bit_identical(off, default)

    def test_phase_barrier_refused(self):
        config = ProxyConfig(
            matrix_size=512, threads=2, iterations=10, phase_barrier=True
        )
        self._assert_full_run(config, lambda: SlackModel(1e-5), "phase-barrier")

    @given(spacing=st.floats(min_value=1e-9, max_value=1e-3))
    @settings(max_examples=5, deadline=None)
    def test_iteration_spacing_refused(self, spacing):
        config = ProxyConfig(
            matrix_size=256, threads=1, iterations=8,
            iteration_spacing_s=spacing,
        )
        self._assert_full_run(
            config, lambda: SlackModel(1e-5), "iteration-spacing"
        )

    @given(offset=st.floats(min_value=1e-9, max_value=1e-3))
    @settings(max_examples=5, deadline=None)
    def test_thread_launch_offset_refused(self, offset):
        config = ProxyConfig(
            matrix_size=256, threads=2, iterations=8,
            thread_launch_offset_s=offset,
        )
        self._assert_full_run(
            config, lambda: SlackModel(1e-5), "thread-launch-offset"
        )

    def test_jitter_refused(self):
        config = ProxyConfig(matrix_size=256, threads=1, iterations=8)
        slack = SlackModel(1e-5, jitter_fraction=0.1)
        result = run_proxy(config, slack)
        assert not result.fastforward.certified
        assert result.fastforward.reason == "slack-jitter"

    def test_slack_subclass_refused(self):
        class Shim(SlackModel):
            pass

        config = ProxyConfig(matrix_size=256, threads=1, iterations=8)
        self._assert_full_run(
            config, lambda: Shim(1e-5), "slack-model-subclass"
        )

    @given(iterations=st.integers(min_value=1, max_value=MIN_ITERATIONS - 1))
    @settings(max_examples=5, deadline=None)
    def test_too_few_iterations_refused(self, iterations):
        config = ProxyConfig(
            matrix_size=256, threads=1, iterations=iterations
        )
        self._assert_full_run(
            config, lambda: SlackModel(1e-5), "too-few-iterations"
        )

    def test_refusal_reason_eligible(self):
        config = ProxyConfig(matrix_size=512, threads=2, iterations=40)
        assert core_fallback_reason(config) is None
        result = run_proxy(config, SlackModel(1e-5))
        assert result.core_fallback is None
        assert result.fastforward.reason is None

    def test_faults_active_refused(self):
        # Fault windows make the run time-inhomogeneous: no epoch can
        # stand in for the rest, so an active plan refuses outright.
        from repro.faults import FaultPlan

        plan = FaultPlan.from_spec("spike:start=0,duration=10ms,extra=100us")
        config = ProxyConfig(matrix_size=512, threads=2, iterations=40)
        result = run_proxy(config, SlackModel(1e-5), faults=plan)
        assert not result.fastforward.certified
        assert result.fastforward.reason == "faults-active"
        assert result.fastforward.skipped_iterations == 0

    def test_empty_plan_does_not_refuse(self):
        from repro.faults import FaultPlan

        config = ProxyConfig(matrix_size=512, threads=2, iterations=40)
        result = run_proxy(config, SlackModel(1e-5), faults=FaultPlan(seed=9))
        assert result.fastforward.certified
        assert result.fastforward.reason is None

    def test_refusal_reason_faults_first(self):
        # The gate fires before any other eligibility check runs.
        from repro.faults import FaultPlan

        plan = FaultPlan.from_spec("spike:start=0,duration=10ms,extra=100us")
        config = ProxyConfig(
            matrix_size=512, threads=2, iterations=10, phase_barrier=True
        )
        assert core_fallback_reason(config, faults=plan) == "faults-active"
        result = run_proxy(config, SlackModel(1e-5), faults=plan)
        assert result.core_fallback == "faults-active"
        assert result.fastforward.reason == "faults-active"

    def test_degraded_sweep_records_fastforward_fallbacks(self):
        # Every freshly measured point of a degraded sweep falls back
        # to the full simulation — and the executor says so.
        from repro.faults import FaultPlan
        from repro.obs import collecting
        from repro.proxy import run_slack_sweep

        plan = FaultPlan.from_spec("spike:start=0,duration=10ms,extra=100us")
        grid = dict(
            matrix_sizes=(512,), slack_values_s=(1e-4,), threads=(1, 2),
            iterations=20,
        )
        with collecting() as reg:
            run_slack_sweep(**grid, options=SweepOptions(faults=plan))
        # 2 configs x (baseline + 1 slack point) = 4 full simulations.
        assert reg.counter("proxy.fastforward.fallbacks").value == 4
        assert reg.counter("proxy.fastforward.hits").value == 0
        with collecting() as reg:
            run_slack_sweep(**grid)
        assert reg.counter("proxy.fastforward.hits").value == 4
        assert reg.counter("proxy.fastforward.fallbacks").value == 0

    def test_never_settling_run_reports_no_fixed_point(self):
        # phase_barrier with threads=1 builds no barriers, so the gate
        # cannot be exercised that way; instead use a run short enough
        # to be eligible but whose monitor dies before certifying is
        # hard to construct deterministically — the "disabled" knob is
        # the reliable negative control.
        config = ProxyConfig(matrix_size=512, threads=1, iterations=40)
        off = run_proxy(config, SlackModel(1e-5), fast_forward=False)
        assert off.fastforward.reason == "disabled"
        assert not off.fastforward.certified


class TestReusedSlackModel:
    """A slack model reused across runs reports each run's own slack."""

    @pytest.mark.parametrize("iterations", [5, 30])
    def test_reused_model_reports_the_fresh_run(self, iterations):
        config = ProxyConfig(matrix_size=512, iterations=iterations)
        fresh = run_proxy(config, SlackModel(1e-4), fast_forward=False)
        reused = SlackModel(1e-4)
        runs = []
        # Reference DES, then the index core (skipping where it can)
        # through both spellings of the default; twice.
        for ff in (False, True, None) * 2:
            runs.append(run_proxy(config, reused, fast_forward=ff))
        assert runs[2].core_fallback is None and runs[5].core_fallback is None
        assert runs[2].fastforward.certified == (iterations == 30)
        fabric = {
            k: v for k, v in fresh.sim_metrics.items()
            if k.startswith("fabric.")
        }
        for run in runs:
            assert run.injected_slack_s == fresh.injected_slack_s
            assert run.loop_runtime_s == fresh.loop_runtime_s
            assert run.starvation_cost_s == fresh.starvation_cost_s
            assert {
                k: v for k, v in run.sim_metrics.items()
                if k.startswith("fabric.")
            } == fabric
