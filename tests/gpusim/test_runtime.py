"""Unit and integration tests for the simulated CUDA runtime."""

import pytest

from repro.des import Environment
from repro.gpusim import CudaRuntime, KernelSpec, matmul_kernel
from repro.hw import GPUSpec, GiB, MiB, OutOfMemoryError
from repro.network import SlackModel
from repro.trace import CopyKind, EventKind


def make_runtime(slack_s=0.0, **gpu_kwargs):
    env = Environment()
    gpu = GPUSpec(**gpu_kwargs) if gpu_kwargs else GPUSpec()
    rt = CudaRuntime(env, gpu=gpu, slack=SlackModel(slack_s))
    return env, rt


def drive(env, gen):
    proc = env.process(gen)
    env.run()
    return proc.value


class TestMemoryAPI:
    def test_malloc_free(self):
        env, rt = make_runtime()
        a = rt.malloc(MiB, tag="x")
        assert rt.memory.used >= MiB
        rt.free(a)
        assert rt.memory.used == 0

    def test_oom_propagates(self):
        env, rt = make_runtime()
        with pytest.raises(OutOfMemoryError):
            rt.malloc(100 * GiB)


class TestMemcpy:
    def test_sync_memcpy_takes_transfer_time(self):
        env, rt = make_runtime()

        def host():
            t0 = env.now
            yield from rt.memcpy(GiB, CopyKind.H2D)
            return env.now - t0

        elapsed = drive(env, host())
        expected = rt.pcie.transfer_time(GiB)
        assert elapsed == pytest.approx(expected + rt.api_overhead_s, rel=0.01)

    def test_memcpy_traced(self):
        env, rt = make_runtime()

        def host():
            yield from rt.memcpy(4 * MiB, CopyKind.H2D)
            yield from rt.memcpy(2 * MiB, CopyKind.D2H)

        drive(env, host())
        copies = rt.tracer.trace.memcpys()
        assert len(copies) == 2
        assert copies.sizes().sum() == 6 * MiB
        assert len(rt.tracer.trace.memcpys(CopyKind.D2H)) == 1

    def test_async_memcpy_returns_before_completion(self):
        env, rt = make_runtime()

        def host():
            t0 = env.now
            op = yield from rt.memcpy_async(GiB, CopyKind.H2D)
            host_return = env.now - t0
            yield op.completion
            total = env.now - t0
            return host_return, total

        host_return, total = drive(env, host())
        assert host_return < total
        assert total >= rt.pcie.transfer_time(GiB)

    def test_invalid_memcpy_args(self):
        env, rt = make_runtime()

        def host():
            yield from rt.memcpy(0, CopyKind.H2D)

        with pytest.raises(ValueError):
            drive(env, host())

    def test_d2d_rejected(self):
        env, rt = make_runtime()

        def host():
            yield from rt.memcpy(MiB, CopyKind.D2D)

        with pytest.raises(ValueError):
            drive(env, host())


class TestKernelLaunch:
    def test_async_launch_returns_after_overhead(self):
        env, rt = make_runtime()
        kernel = KernelSpec(name="slow", duration_s=1.0)

        def host():
            t0 = env.now
            op = yield from rt.launch(kernel)
            launch_return = env.now - t0
            yield op.completion
            return launch_return, env.now - t0

        launch_return, total = drive(env, host())
        assert launch_return == pytest.approx(rt.gpu.launch_overhead_s)
        assert total >= 1.0

    def test_blocking_launch_waits_for_kernel(self):
        env, rt = make_runtime()
        kernel = KernelSpec(name="slow", duration_s=0.5)

        def host():
            t0 = env.now
            yield from rt.launch(kernel, blocking=True)
            return env.now - t0

        elapsed = drive(env, host())
        assert elapsed >= 0.5

    def test_kernel_traced_with_duration(self):
        env, rt = make_runtime()
        kernel = KernelSpec(name="k", duration_s=0.25)

        def host():
            yield from rt.launch(kernel, blocking=True)

        drive(env, host())
        kernels = rt.tracer.trace.kernels()
        assert len(kernels) == 1
        assert kernels[0].duration == pytest.approx(0.25)

    def test_stream_ordering(self):
        env, rt = make_runtime()
        k1 = KernelSpec(name="first", duration_s=0.2)
        k2 = KernelSpec(name="second", duration_s=0.1)

        def host():
            op1 = yield from rt.launch(k1)
            op2 = yield from rt.launch(k2)
            yield op2.completion
            return op1, op2

        op1, op2 = drive(env, host())
        assert op1.receipt.end <= op2.receipt.start

    def test_multi_stream_overlap_copy_and_compute(self):
        env, rt = make_runtime()
        s1 = rt.create_stream()
        s2 = rt.create_stream()
        kernel = KernelSpec(name="k", duration_s=0.1)

        def host():
            kop = yield from rt.launch(kernel, stream=s1)
            cop = yield from rt.memcpy_async(GiB, CopyKind.H2D, stream=s2)
            yield kop.completion & cop.completion
            return kop.receipt, cop.receipt

        krec, crec = drive(env, host())
        # Kernel and copy overlapped: both start before either ends.
        assert krec.start < crec.end and crec.start < krec.end

    def test_matmul_kernel_execution_scales_with_n(self):
        env, rt = make_runtime()

        def host(n):
            yield from rt.launch(matmul_kernel(n), blocking=True)

        durations = []
        for n in (512, 2048, 8192):
            env, rt = make_runtime()
            drive(env, host(n))
            durations.append(rt.tracer.trace.kernels()[0].duration)
        assert durations[0] < durations[1] < durations[2]
        # Cubic-ish growth: 4x n is much more than 4x the time.
        assert durations[1] / durations[0] > 10


class TestSynchronize:
    def test_device_synchronize_waits_all_streams(self):
        env, rt = make_runtime()
        s1 = rt.create_stream()
        s2 = rt.create_stream()

        def host():
            yield from rt.launch(KernelSpec(name="a", duration_s=0.5), stream=s1)
            yield from rt.launch(KernelSpec(name="b", duration_s=1.0), stream=s2)
            yield from rt.synchronize()
            return env.now

        end = drive(env, host())
        assert end >= 1.0
        assert s1.idle and s2.idle

    def test_stream_synchronize_waits_one_stream(self):
        env, rt = make_runtime()
        s1 = rt.create_stream()
        s2 = rt.create_stream()

        def host():
            yield from rt.launch(KernelSpec(name="a", duration_s=0.1), stream=s1)
            yield from rt.launch(KernelSpec(name="b", duration_s=5.0), stream=s2)
            yield from rt.synchronize(stream=s1)
            return env.now, s2.idle

        now, s2_idle = drive(env, host())
        assert now < 5.0
        assert not s2_idle

    def test_sync_traced(self):
        env, rt = make_runtime()

        def host():
            yield from rt.synchronize()

        drive(env, host())
        syncs = rt.tracer.trace.of_kinds(EventKind.SYNC)
        assert len(syncs) == 1


class TestSlackInjection:
    def test_slack_extends_host_time(self):
        def loop(rt, env):
            def host():
                t0 = env.now
                yield from rt.memcpy(MiB, CopyKind.H2D)
                yield from rt.launch(
                    KernelSpec(name="k", duration_s=1e-3), blocking=True
                )
                yield from rt.synchronize()
                return env.now - t0

            return drive(env, host())

        env0, rt0 = make_runtime(0.0)
        base = loop(rt0, env0)
        env1, rt1 = make_runtime(100e-6)
        slowed = loop(rt1, env1)
        # 3 API calls x 100 us of slack, plus starvation effects.
        assert slowed - base >= 300e-6

    def test_slack_events_traced(self):
        env, rt = make_runtime(50e-6)

        def host():
            yield from rt.memcpy(MiB, CopyKind.H2D)

        drive(env, host())
        slacks = rt.tracer.trace.of_kinds(EventKind.SLACK)
        assert len(slacks) == 1
        assert slacks[0].duration == pytest.approx(50e-6)

    def test_injected_total_matches_calls(self):
        env, rt = make_runtime(10e-6)

        def host():
            for _ in range(4):
                yield from rt.memcpy(MiB, CopyKind.H2D)

        drive(env, host())
        assert rt.injector.calls_delayed == 4
        assert rt.injector.total_injected_s == pytest.approx(40e-6)

    def test_set_slack_swaps_model(self):
        env, rt = make_runtime(0.0)
        rt.set_slack(SlackModel(123e-6))
        assert rt.slack.slack_s == 123e-6


class TestStarvation:
    def test_no_starvation_when_queue_busy(self):
        env, rt = make_runtime()

        def host():
            ops = []
            for _ in range(5):
                op = yield from rt.launch(KernelSpec(name="k", duration_s=0.01))
                ops.append(op)
            yield from rt.synchronize()

        drive(env, host())
        # Back-to-back kernels: no gaps beyond the first.
        assert rt.total_starvation_cost() < 1e-4

    def test_starvation_charged_after_idle_gap(self):
        env, rt = make_runtime()

        def host():
            yield from rt.launch(KernelSpec(name="k1", duration_s=0.01),
                                 blocking=True)
            yield env.timeout(5e-3)  # starve the device for 5 ms
            yield from rt.launch(KernelSpec(name="k2", duration_s=0.01),
                                 blocking=True)

        drive(env, host())
        cost = rt.total_starvation_cost()
        # gap ~5 ms -> cost ~0.9 * 5 ms
        assert cost == pytest.approx(0.9 * 5e-3, rel=0.05)

    def test_starvation_cost_saturates_at_cap(self):
        env, rt = make_runtime()

        def host():
            yield from rt.launch(KernelSpec(name="k1", duration_s=0.01),
                                 blocking=True)
            yield env.timeout(10.0)  # enormous gap
            yield from rt.launch(KernelSpec(name="k2", duration_s=0.01),
                                 blocking=True)

        drive(env, host())
        assert rt.total_starvation_cost() == pytest.approx(
            rt.gpu.idle_ramp_cap_s, rel=0.01
        )

    def test_copies_keep_device_warm(self):
        env, rt = make_runtime()

        def host():
            yield from rt.launch(KernelSpec(name="k1", duration_s=0.01),
                                 blocking=True)
            # A copy right before the next kernel keeps activity recent.
            yield from rt.memcpy(256 * MiB, CopyKind.H2D)
            yield from rt.launch(KernelSpec(name="k2", duration_s=0.01),
                                 blocking=True)

        drive(env, host())
        # Gap before k2 is only the API overhead, not the copy time.
        assert rt.total_starvation_cost() < 1e-4


class TestUtilization:
    def test_engine_utilization_reported(self):
        env, rt = make_runtime()

        def host():
            yield from rt.launch(KernelSpec(name="k", duration_s=1.0),
                                 blocking=True)

        drive(env, host())
        util = rt.engine_utilization()
        assert util["compute"] > 0.9
        assert util["copy_h2d"] == 0.0
