"""Tests for the slack proxy: calibration, runs, sweeps, response surface."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import A100_SXM4_40GB, PCIE_GEN4_X16, OutOfMemoryError
from repro.network import SlackModel
from repro.proxy import (
    CUDA_CALLS_PER_ITERATION,
    ITERATION_CEILING,
    ITERATION_FLOOR,
    ProxyConfig,
    SlackResponseSurface,
    SweepOptions,
    calibrate_iterations,
    calibrate_matrix_size,
    run_proxy,
    run_slack_sweep,
    time_single_kernel,
)

SLOW_LINK = dataclasses.replace(PCIE_GEN4_X16, lanes=8)
SLOW_GPU = dataclasses.replace(A100_SXM4_40GB, fp32_tflops=9.75)


class TestCalibration:
    def test_iteration_floor(self):
        assert calibrate_iterations(100.0) == ITERATION_FLOOR

    def test_iteration_ceiling(self):
        assert calibrate_iterations(1e-6) == ITERATION_CEILING

    def test_iteration_target(self):
        # 30 s / 0.1 s per kernel = 300 iterations.
        assert calibrate_iterations(0.1) == 300

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            calibrate_iterations(0.0)
        with pytest.raises(ValueError):
            calibrate_iterations(1.0, floor=0)
        with pytest.raises(ValueError):
            calibrate_iterations(1.0, floor=10, ceiling=5)

    def test_single_kernel_time_grows_with_n(self):
        t_small = time_single_kernel(512)
        t_large = time_single_kernel(8192)
        assert t_large > t_small * 100

    def test_single_kernel_timing_is_memoized(self, monkeypatch):
        from repro.gpusim.flatcore import FlatDevice
        from repro.proxy import calibration

        monkeypatch.setattr(calibration, "_KERNEL_TIMES", {})
        built = []
        run = FlatDevice.run

        def counting_run(self, *args, **kwargs):
            built.append(1)
            return run(self, *args, **kwargs)

        monkeypatch.setattr(FlatDevice, "run", counting_run)
        first = time_single_kernel(1024)
        assert len(built) == 1
        # The second call returns the identical float, simulating nothing.
        assert time_single_kernel(1024) is first
        assert len(built) == 1
        # Any other spec is its own entry.
        time_single_kernel(1024, pcie=SLOW_LINK)
        assert len(built) == 2
        assert time_single_kernel(1024, gpu=SLOW_GPU) > first
        assert len(built) == 3
        assert time_single_kernel(1024, pcie=SLOW_LINK) is not None
        assert len(built) == 3

    @pytest.mark.parametrize("spec", ["default", "slow-link", "slow-gpu"])
    def test_single_kernel_time_equals_des(self, spec, monkeypatch):
        from repro.proxy import calibration

        from ..oracles import proxyloop

        monkeypatch.setattr(calibration, "_KERNEL_TIMES", {})
        specs = {
            "default": {},
            "slow-link": {"pcie": SLOW_LINK},
            "slow-gpu": {"gpu": SLOW_GPU},
        }[spec]
        for exponent in range(4, 17):
            n = 2**exponent
            assert time_single_kernel(n, **specs) == (
                proxyloop.time_single_kernel(n, **specs)
            ), n

    def test_calibrate_matrix_size_bundle(self):
        cal = calibrate_matrix_size(2**13)
        assert cal.matrix_size == 8192
        assert cal.matrix_bytes == 8192 * 8192 * 4
        assert cal.iterations == calibrate_iterations(cal.kernel_time_s)
        assert cal.raw_compute_s == pytest.approx(
            cal.kernel_time_s * cal.iterations
        )

    def test_paper_iteration_bounds_on_grid(self):
        # Smallest proxy kernels hit the ceiling; the largest, the floor
        # neighbourhood (~8 iterations for 2^15's multi-second kernel).
        assert calibrate_matrix_size(2**9).iterations == ITERATION_CEILING
        assert calibrate_matrix_size(2**15).iterations < 20


class TestProxyConfig:
    def test_matrix_bytes(self):
        cfg = ProxyConfig(matrix_size=2**15)
        assert cfg.matrix_bytes == 4 * 1024**3  # 4 GiB per matrix

    def test_device_bytes_needed_scales_with_threads(self):
        cfg = ProxyConfig(matrix_size=2**15, threads=4)
        assert cfg.device_bytes_needed == 48 * 1024**3

    def test_validation(self):
        with pytest.raises(ValueError):
            ProxyConfig(matrix_size=0)
        with pytest.raises(ValueError):
            ProxyConfig(threads=0)
        with pytest.raises(ValueError):
            ProxyConfig(iterations=-1)


class TestRunProxy:
    def test_zero_slack_baseline(self):
        result = run_proxy(ProxyConfig(matrix_size=512, iterations=10))
        assert result.slack_s == 0.0
        assert result.injected_slack_s == 0.0
        assert result.iterations == 10
        assert result.corrected_runtime_s == result.loop_runtime_s
        assert len(result.trace.kernels()) == 10

    def test_five_cuda_calls_per_iteration(self):
        result = run_proxy(
            ProxyConfig(matrix_size=512, iterations=7),
            SlackModel(1e-6),
        )
        assert result.cuda_calls == 7 * CUDA_CALLS_PER_ITERATION
        # Each call got exactly one injected delay.
        assert result.injected_slack_s == pytest.approx(
            result.cuda_calls * 1e-6
        )

    def test_equation1_correction(self):
        slack = 1e-4
        result = run_proxy(
            ProxyConfig(matrix_size=512, iterations=20), SlackModel(slack)
        )
        expected = result.loop_runtime_s - 20 * CUDA_CALLS_PER_ITERATION * slack
        assert result.corrected_runtime_s == pytest.approx(expected)

    def test_corrected_runtime_at_least_baseline(self):
        base = run_proxy(ProxyConfig(matrix_size=512, iterations=50))
        slowed = run_proxy(
            ProxyConfig(matrix_size=512, iterations=50), SlackModel(1e-3)
        )
        assert slowed.corrected_runtime_s >= base.loop_runtime_s * 0.999

    def test_trace_has_three_copies_per_iteration(self):
        result = run_proxy(ProxyConfig(matrix_size=512, iterations=5))
        assert len(result.trace.memcpys()) == 15

    def test_multi_thread_kernels_multiply(self):
        result = run_proxy(ProxyConfig(matrix_size=512, threads=4, iterations=5))
        assert len(result.trace.kernels()) == 20

    def test_oom_for_large_matrices_many_threads(self):
        # The paper's exclusion: 2^15 needs 3 x 4 GiB per thread.
        with pytest.raises(OutOfMemoryError):
            run_proxy(ProxyConfig(matrix_size=2**15, threads=4, iterations=5))

    def test_two_threads_at_max_matrix_fit(self):
        cfg = ProxyConfig(matrix_size=2**15, threads=2, iterations=5)
        assert cfg.device_bytes_needed <= 40 * 1024**3


class TestSlackResponseTrends:
    """The paper's three key Figure 3 trends, as integration tests."""

    @staticmethod
    def norm(matrix_size, slack_s, threads=1, iterations=30):
        cfg = ProxyConfig(matrix_size=matrix_size, threads=threads,
                          iterations=iterations)
        base = run_proxy(cfg)
        run = run_proxy(cfg, SlackModel(slack_s))
        return run.corrected_runtime_s / base.loop_runtime_s

    def test_longer_kernels_more_resilient(self):
        small = self.norm(512, 1e-3)
        large = self.norm(8192, 1e-3)
        assert small > 1.5
        assert large < 1.05
        assert large < small

    def test_parallel_threads_increase_tolerance(self):
        serial = self.norm(512, 1e-3, threads=1)
        parallel = self.norm(512, 1e-3, threads=8)
        assert parallel < serial

    def test_dropoff_sharpens_with_slack(self):
        # Penalty grows superlinearly across slack decades for a small
        # kernel: each decade multiplies the penalty ~10x.
        p1 = self.norm(512, 1e-4) - 1.0
        p2 = self.norm(512, 1e-3) - 1.0
        assert p2 > 5 * p1

    def test_2_13_sees_about_10pct_at_10ms(self):
        # The paper's anchor: matrix 2^13 first exceeds 1% at 10 ms of
        # slack, reaching ~10%.
        n = self.norm(2**13, 10e-3, iterations=20)
        assert 1.05 < n < 1.15

    def test_2_15_unaffected_up_to_1s(self):
        n = self.norm(2**15, 1.0, iterations=5)
        assert n < 1.01


class TestSweepAndSurface:
    @pytest.fixture(scope="class")
    def sweep(self):
        return run_slack_sweep(
            matrix_sizes=(512, 2048),
            slack_values_s=(1e-6, 1e-4, 1e-2),
            threads=(1, 2),
            iterations=30,
        )

    def test_sweep_covers_grid(self, sweep):
        assert len(sweep.points) == 2 * 3 * 2
        assert sweep.matrix_sizes() == [512, 2048]
        assert sweep.thread_counts() == [1, 2]

    def test_sweep_get_and_series(self, sweep):
        p = sweep.get(512, 1, 1e-4)
        assert p.matrix_size == 512
        series = sweep.series(512, 1)
        assert [q.slack_s for q in series] == [1e-6, 1e-4, 1e-2]
        with pytest.raises(KeyError):
            sweep.get(999, 1, 1e-4)

    def test_sweep_skips_oom_configs(self):
        result = run_slack_sweep(
            matrix_sizes=(2**15,),
            slack_values_s=(1e-6,),
            threads=(4,),
            iterations=5,
        )
        assert len(result.points) == 0
        assert len(result.skipped) == 1
        assert result.skipped[0][:2] == (2**15, 4)

    def test_surface_penalty_zero_at_zero_slack(self, sweep):
        surface = SlackResponseSurface(sweep)
        assert surface.penalty(512, 0.0) == 0.0

    def test_surface_interpolates_between_grid_points(self, sweep):
        surface = SlackResponseSurface(sweep)
        lo = surface.penalty(512, 1e-4)
        mid = surface.penalty(512, 1e-3)
        hi = surface.penalty(512, 1e-2)
        assert lo <= mid <= hi

    def test_surface_clamps_above_grid(self, sweep):
        surface = SlackResponseSurface(sweep)
        assert surface.penalty(512, 1.0) == surface.penalty(512, 1e-2)

    def test_surface_linear_below_grid(self, sweep):
        surface = SlackResponseSurface(sweep)
        tiny = surface.penalty(512, 1e-7)
        at_grid = surface.penalty(512, 1e-6)
        assert tiny == pytest.approx(at_grid / 10, rel=0.01)

    def test_surface_unknown_size_rejected(self, sweep):
        surface = SlackResponseSurface(sweep)
        with pytest.raises(KeyError):
            surface.penalty(4096, 1e-4)

    def test_surface_nearest_sizes(self, sweep):
        surface = SlackResponseSurface(sweep)
        assert surface.nearest_sizes(1000) == (512, 2048)
        assert surface.nearest_sizes(512) == (512, 512)
        assert surface.nearest_sizes(10) == (512, 512)
        assert surface.nearest_sizes(10**9) == (2048, 2048)

    def test_surface_thread_fallback(self, sweep):
        surface = SlackResponseSurface(sweep)
        # threads=8 not measured; falls back to nearest (2).
        assert surface.penalty(512, 1e-4, threads=8) == surface.penalty(
            512, 1e-4, threads=2
        )

    def test_surface_json_roundtrip(self, sweep, tmp_path):
        surface = SlackResponseSurface(sweep)
        path = tmp_path / "surface.json"
        surface.to_json(path)
        loaded = SlackResponseSurface.from_json(path)
        assert loaded.matrix_sizes() == surface.matrix_sizes()
        assert loaded.penalty(512, 1e-4) == pytest.approx(
            surface.penalty(512, 1e-4)
        )

    def test_empty_sweep_rejected(self):
        from repro.proxy import SweepResult

        with pytest.raises(ValueError):
            SlackResponseSurface(SweepResult())

    def test_negative_slack_rejected(self, sweep):
        surface = SlackResponseSurface(sweep)
        with pytest.raises(ValueError):
            surface.penalty(512, -1e-6)


@settings(max_examples=20, deadline=None)
@given(
    kernel_time=st.floats(min_value=1e-6, max_value=100.0,
                          allow_nan=False, allow_infinity=False)
)
def test_calibration_always_within_bounds(kernel_time):
    """Property: iteration count always lands in [floor, ceiling]."""
    n = calibrate_iterations(kernel_time)
    assert ITERATION_FLOOR <= n <= ITERATION_CEILING


class TestOffsetAndSpacingControls:
    """The paper's control experiments (Section IV-B): thread-launch
    offsets and iteration spacing show no correlation with the slack
    penalty."""

    @staticmethod
    def residual(offset=0.0, spacing=0.0, slack=1e-3):
        """Absolute starvation residual per iteration (seconds).

        The quantity slack actually adds beyond its direct delay —
        normalizing would conflate the control knobs' effect on the
        *baseline* length with their (absent) effect on starvation.
        """
        cfg = ProxyConfig(
            matrix_size=512, threads=2, iterations=30,
            thread_launch_offset_s=offset, iteration_spacing_s=spacing,
        )
        base = run_proxy(cfg)
        run = run_proxy(cfg, SlackModel(slack))
        return (run.corrected_runtime_s - base.loop_runtime_s) / 30

    def test_thread_offset_uncorrelated(self):
        r0 = self.residual(offset=0.0)
        r1 = self.residual(offset=200e-6)
        # "No correlation": the offset moves the residual by far less
        # than the residual itself.
        assert abs(r1 - r0) < 0.35 * max(r0, r1)

    def test_iteration_spacing_uncorrelated(self):
        r0 = self.residual(spacing=0.0)
        r1 = self.residual(spacing=500e-6)
        assert abs(r1 - r0) < 0.35 * max(r0, r1)

    def test_offset_delays_wall_clock_but_not_penalty_shape(self):
        cfg = ProxyConfig(matrix_size=512, threads=4, iterations=5,
                          thread_launch_offset_s=1e-3)
        res = run_proxy(cfg)
        # Thread 3 starts 3 ms late; the loop cannot finish before that.
        assert res.loop_runtime_s > 3e-3

    def test_validation(self):
        with pytest.raises(ValueError):
            ProxyConfig(thread_launch_offset_s=-1.0)
        with pytest.raises(ValueError):
            ProxyConfig(iteration_spacing_s=-1.0)


class TestSweepNearMissLookup:
    """SweepResult.get resolves float-close slacks via an O(1) index."""

    def _result_with(self, slacks):
        from repro.proxy import SweepPoint, SweepResult

        result = SweepResult()
        for s in slacks:
            result.add(
                SweepPoint(
                    matrix_size=512, threads=1, slack_s=s,
                    loop_runtime_s=1.0, corrected_runtime_s=1.0,
                    baseline_runtime_s=1.0, iterations=10,
                    kernel_time_s=1e-3,
                )
            )
        return result

    @given(
        slack=st.floats(min_value=1e-7, max_value=1e-1,
                        allow_nan=False, allow_infinity=False),
        rel=st.floats(min_value=-0.9e-9, max_value=0.9e-9),
    )
    @settings(max_examples=200, deadline=None)
    def test_within_tolerance_resolves(self, slack, rel):
        result = self._result_with([slack])
        probe = slack * (1.0 + rel)
        assert result.get(512, 1, probe).slack_s == slack

    @given(
        slack=st.floats(min_value=1e-7, max_value=1e-1,
                        allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_outside_tolerance_raises(self, slack):
        result = self._result_with([slack])
        # Clear both tolerance terms: the 1e-9 relative part and the
        # 1e-12 absolute floor (which dominates for small slacks).
        probe = slack + max(slack * 1e-6, 1e-11)
        with pytest.raises(KeyError):
            result.get(512, 1, probe)

    def test_paper_grid_near_misses(self):
        from repro.proxy import PAPER_SLACK_VALUES_S

        result = self._result_with(PAPER_SLACK_VALUES_S)
        for s in PAPER_SLACK_VALUES_S:
            # A decimal round-trip through 12 significant digits is the
            # classic near-miss source (JSON files written by hand).
            probe = float(f"{s:.12g}")
            assert result.get(512, 1, probe).slack_s == s


class TestHoistedCalibration:
    def test_sweep_points_carry_shared_calibration(self):
        # Auto-calibrated sweep: calibration runs once per matrix size
        # in the sweep layer and every point carries its values.
        sweep = run_slack_sweep(
            matrix_sizes=(512,),
            slack_values_s=(1e-5,),
            threads=(1,),
            iterations=None,
        )
        kt = time_single_kernel(512)
        p = sweep.get(512, 1, 1e-5)
        assert p.kernel_time_s == kt
        assert p.iterations == calibrate_iterations(kt)

    def test_fastforward_counters_published(self):
        from repro.obs import collecting, get_registry

        with collecting():
            run_slack_sweep(
                matrix_sizes=(512,),
                slack_values_s=(1e-5,),
                threads=(1,),
                iterations=30,
            )
            reg = get_registry()
            # Baseline + one slack point, both certified.
            assert reg.counter("proxy.fastforward.hits").value == 2
            assert reg.counter("proxy.fastforward.fallbacks").value == 0
            assert reg.counter("proxy.fastforward.events_skipped").value > 0

    def test_no_fast_forward_sweep_is_identical(self):
        kwargs = dict(
            matrix_sizes=(512,),
            slack_values_s=(1e-5, 1e-3),
            threads=(2,),
            iterations=30,
        )
        fast = run_slack_sweep(**kwargs)
        full = run_slack_sweep(
            options=SweepOptions(fast_forward=False), **kwargs
        )
        assert fast.points == full.points
