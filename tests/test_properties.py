"""Cross-module property-based tests on system invariants.

These pin down the relationships the reproduction's conclusions rest
on: conservation of injected slack, the Equation 1 identity,
monotonicity of the slack response, bracket ordering of the binning,
and trace accounting identities — for arbitrary inputs, not just the
paper's grid.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Environment, quantize
from repro.gpusim import CudaRuntime, KernelSpec, matmul_efficiency
from repro.hw import GPUSpec, MiB
from repro.model import bin_values, equation3_binned_slack_penalty, matrix_bytes
from repro.network import (
    SlackModel,
    fibre_distance_for_latency,
    latency_for_fibre_distance,
)
from repro.proxy import PAPER_SLACK_VALUES_S, ProxyConfig, run_proxy
from repro.trace import CopyKind, EventKind, Trace, TraceEvent


GRID = (512, 2048, 8192, 32768)


class TestSlackConservation:
    """Injected slack is exactly calls x delay, whatever the workload."""

    @settings(max_examples=15, deadline=None)
    @given(
        calls=st.integers(min_value=1, max_value=20),
        slack_us=st.floats(min_value=0.1, max_value=1000.0),
    )
    def test_total_injected_is_calls_times_delay(self, calls, slack_us):
        slack = slack_us * 1e-6
        env = Environment()
        rt = CudaRuntime(env, slack=SlackModel(slack))

        def host():
            for _ in range(calls):
                yield from rt.memcpy(MiB, CopyKind.H2D)

        env.process(host())
        env.run()
        assert rt.injector.calls_delayed == calls
        # The injected delay is tick-quantized, and dyadic sums are
        # exact — so the accumulated total equals the product bit for
        # bit, a strictly stronger claim than approx equality.
        assert rt.injector.total_injected_s == calls * quantize(slack)
        assert rt.injector.total_injected_s == pytest.approx(calls * slack, rel=1e-5)

    @settings(max_examples=15, deadline=None)
    @given(slack_us=st.floats(min_value=1.0, max_value=10_000.0))
    def test_wall_time_at_least_injected(self, slack_us):
        slack = slack_us * 1e-6
        env = Environment()
        rt = CudaRuntime(env, slack=SlackModel(slack))

        def host():
            for _ in range(5):
                yield from rt.memcpy(MiB, CopyKind.H2D)
            return env.now

        proc = env.process(host())
        env.run()
        assert proc.value >= rt.injector.total_injected_s


class TestDistanceConversionProperties:
    @settings(max_examples=100)
    @given(st.floats(min_value=0, max_value=10.0, allow_nan=False))
    def test_roundtrip_identity(self, latency):
        assert latency_for_fibre_distance(
            fibre_distance_for_latency(latency)
        ) == pytest.approx(latency, abs=1e-15)

    @settings(max_examples=100)
    @given(
        a=st.floats(min_value=0, max_value=1.0),
        b=st.floats(min_value=0, max_value=1.0),
    )
    def test_additivity(self, a, b):
        assert fibre_distance_for_latency(a + b) == pytest.approx(
            fibre_distance_for_latency(a) + fibre_distance_for_latency(b)
        )


class TestKernelModelProperties:
    @settings(max_examples=100)
    @given(n=st.integers(min_value=1, max_value=10**6))
    def test_matmul_efficiency_bounded(self, n):
        eff = matmul_efficiency(n)
        assert 0 < eff < 1

    @settings(max_examples=50)
    @given(
        n1=st.integers(min_value=1, max_value=10**5),
        n2=st.integers(min_value=1, max_value=10**5),
    )
    def test_matmul_efficiency_monotone(self, n1, n2):
        if n1 < n2:
            assert matmul_efficiency(n1) < matmul_efficiency(n2)

    @settings(max_examples=50, deadline=None)
    @given(
        flops=st.floats(min_value=1e6, max_value=1e15),
        eff=st.floats(min_value=0.01, max_value=1.0),
    )
    def test_execution_time_floor(self, flops, eff):
        gpu = GPUSpec()
        k = KernelSpec(name="k", flops=flops, efficiency=eff)
        assert k.execution_time(gpu) >= gpu.min_kernel_time_s

    @settings(max_examples=50)
    @given(gap=st.floats(min_value=0, max_value=100.0, allow_nan=False))
    def test_starvation_cost_bounded_and_monotone(self, gap):
        gpu = GPUSpec()
        cost = gpu.starvation_cost(gap)
        assert 0 <= cost <= gpu.idle_ramp_cap_s
        assert gpu.starvation_cost(gap + 1e-3) >= cost


class TestBinningProperties:
    @settings(max_examples=100)
    @given(
        values=st.lists(
            st.floats(min_value=1, max_value=1e13, allow_nan=False),
            min_size=1, max_size=40,
        )
    )
    def test_bracket_penalty_ordering(self, values):
        """The pessimistic assignment never yields a lower Eq.3 result
        when penalties decrease with matrix size (as measured)."""
        grid = {n: float(matrix_bytes(n)) for n in GRID}
        binned = bin_values(values, grid)
        # Any decreasing penalty profile.
        penalties = {512: 8.0, 2048: 2.0, 8192: 0.3, 32768: 0.01}
        lower = equation3_binned_slack_penalty(binned.lower_counts, penalties)
        upper = equation3_binned_slack_penalty(binned.upper_counts, penalties)
        assert upper >= lower - 1e-12

    @settings(max_examples=100)
    @given(
        values=st.lists(
            st.floats(min_value=1, max_value=1e13, allow_nan=False),
            min_size=1, max_size=40,
        )
    )
    def test_counts_conserved(self, values):
        grid = {n: float(matrix_bytes(n)) for n in GRID}
        binned = bin_values(values, grid)
        assert sum(binned.lower_counts.values()) == len(values)
        assert sum(binned.upper_counts.values()) == len(values)


class TestTraceAccountingProperties:
    @st.composite
    def intervals(draw):
        n = draw(st.integers(min_value=1, max_value=30))
        events = []
        for _ in range(n):
            start = draw(st.floats(min_value=0, max_value=100))
            length = draw(st.floats(min_value=1e-6, max_value=10))
            events.append(
                TraceEvent(EventKind.KERNEL, "k", start, start + length)
            )
        return events

    @settings(max_examples=100)
    @given(events=intervals())
    def test_busy_time_bounds(self, events):
        """Union busy time <= summed durations, and <= span."""
        trace = Trace(events)
        busy = trace.busy_time()
        assert busy <= trace.total_time() + 1e-9
        assert busy <= trace.span + 1e-9
        assert busy >= max(e.duration for e in events) - 1e-9

    @settings(max_examples=100)
    @given(events=intervals())
    def test_concurrency_consistent_with_overlap(self, events):
        trace = Trace(events)
        conc = trace.max_concurrency()
        assert 1 <= conc <= len(events)
        # If no two events overlap, concurrency is 1.
        sorted_events = sorted(events, key=lambda e: e.start)
        overlapping = any(
            a.overlaps(b)
            for a, b in zip(sorted_events, sorted_events[1:])
        )
        if not overlapping and conc > 1:
            # Only possible with non-adjacent overlaps; verify one exists.
            assert any(
                e1.overlaps(e2)
                for i, e1 in enumerate(sorted_events)
                for e2 in sorted_events[i + 1:]
            )


class TestFaultDeterminismProperties:
    """Same seed => same bits, whatever the execution strategy.

    The fault layer's contract is that a (config, slack, plan) triple
    is bit-identical across repeated invocations, inline vs.
    process-pool sweep workers, and every thread count — for *any*
    seed, not just the ones the golden files happen to pin.
    """

    GRID = dict(
        matrix_sizes=(512,),
        slack_values_s=(1e-4,),
        threads=(1, 2, 4, 8),
        iterations=8,
    )

    @staticmethod
    def _plan(seed):
        from repro.faults import FaultPlan

        return FaultPlan.from_spec(
            f"seed={seed};loss:rate=5%;flap:start=2ms,down=1ms;"
            "spike:start=0,duration=20ms,extra=50us"
        )

    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32))
    def test_inline_vs_process_pool_bit_identical(self, seed):
        from repro.proxy import SweepOptions, run_slack_sweep

        opts = SweepOptions(faults=self._plan(seed))
        inline = run_slack_sweep(**self.GRID, options=opts)
        pooled = run_slack_sweep(
            **self.GRID, options=opts.replace(workers=4)
        )
        # SweepPoint is a frozen dataclass: == here is exact float
        # equality on every field of every point, in order.
        assert inline.points == pooled.points
        assert inline.skipped == pooled.skipped

    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32))
    def test_repeated_invocations_bit_identical(self, seed):
        from repro.proxy import SweepOptions, run_slack_sweep

        opts = SweepOptions(faults=self._plan(seed))
        first = run_slack_sweep(**self.GRID, options=opts)
        second = run_slack_sweep(**self.GRID, options=opts)
        assert first.points == second.points
        assert first.skipped == second.skipped

    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32))
    def test_empty_plan_reproduces_healthy_sweep(self, seed):
        from repro.faults import FaultPlan
        from repro.proxy import SweepOptions, run_slack_sweep

        grid = dict(self.GRID, threads=(1, 2))
        healthy = run_slack_sweep(**grid)
        empty = run_slack_sweep(
            **grid, options=SweepOptions(faults=FaultPlan(seed=seed))
        )
        assert healthy.points == empty.points


class TestDeviceMemoryProxyInvariant:
    @settings(max_examples=30, deadline=None)
    @given(
        threads=st.integers(min_value=1, max_value=8),
        log_n=st.integers(min_value=9, max_value=15),
    )
    def test_oom_exactly_when_over_capacity(self, threads, log_n):
        """The proxy admits a configuration iff 3 matrices x threads fit."""
        from repro.hw import GiB, OutOfMemoryError
        from repro.proxy import ProxyConfig, run_proxy

        config = ProxyConfig(matrix_size=2**log_n, threads=threads,
                             iterations=1)
        fits = config.device_bytes_needed <= 40 * GiB
        if fits:
            run_proxy(config)  # must not raise
        else:
            with pytest.raises(OutOfMemoryError):
                run_proxy(config)


class TestEquation1Identity:
    """Equation 1's premise, exactly: on one thread every injected
    delay and every extra starvation charge lands on the critical path,
    so the slowdown against the zero-slack run is their sum, bit for
    bit on the dyadic time grid. On the index core this also pins the
    totals its steady-state skip extrapolates."""

    @settings(max_examples=40, deadline=None)
    @given(
        size=st.sampled_from([2**9, 2**11, 2**13]),
        iterations=st.integers(min_value=1, max_value=80),
        slack_s=st.sampled_from(PAPER_SLACK_VALUES_S),
        fast_forward=st.sampled_from([None, False]),
    )
    def test_slowdown_is_injected_plus_starvation(
        self, size, iterations, slack_s, fast_forward
    ):
        config = ProxyConfig(matrix_size=size, iterations=iterations)
        base = run_proxy(config, SlackModel.none(), fast_forward=fast_forward)
        run = run_proxy(config, SlackModel(slack_s), fast_forward=fast_forward)
        assert run.loop_runtime_s - base.loop_runtime_s == (
            run.injected_slack_s
            + (run.starvation_cost_s - base.starvation_cost_s)
        )


class TestEquation23BoundOrdering:
    """Equations 2-3 bracket every app's penalty: for each registered
    app with kernels (penalty kind other than ``"none"``), on its
    conformance profile and the quick surface, the lower bound never
    exceeds the upper, at any slack up to 100 ms and any parallelism.

    Penalty is *not* asserted non-decreasing in slack: the quick
    surface is not monotone everywhere, so predictions may dip by
    float noise between neighbouring slacks.
    """

    @pytest.fixture(scope="class")
    def cases(self):
        from repro.apps import registered_apps
        from repro.experiments import ExperimentContext
        from repro.model import CDIProfiler

        profiler = CDIProfiler(ExperimentContext(quick=True).surface())
        profiles = [
            app.profiler(app.conformance_config())
            for app in registered_apps()
            if app.penalty.kind != "none"
        ]
        assert len(profiles) == 3
        return profiler, profiles

    @settings(max_examples=40, deadline=None)
    @given(
        slack_s=st.floats(min_value=0.0, max_value=0.1),
        parallelism=st.integers(min_value=1, max_value=8),
    )
    def test_lower_never_exceeds_upper(self, cases, slack_s, parallelism):
        profiler, profiles = cases
        for profile in profiles:
            pred = profiler.predict(profile, slack_s, parallelism=parallelism)
            assert pred.lower <= pred.upper, (profile.name, pred)
