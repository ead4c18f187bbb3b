"""Tests for CUDA-Graphs batched submission."""

import pytest

from repro.des import Environment
from repro.gpusim import CudaGraph, CudaRuntime, GraphNode, KernelSpec
from repro.hw import MiB
from repro.network import SlackModel
from repro.trace import CopyKind, EventKind


def make_env(slack_s=0.0):
    env = Environment()
    rt = CudaRuntime(env, slack=SlackModel(slack_s))
    return env, rt


def drive(env, gen):
    proc = env.process(gen)
    env.run()
    return proc.value


class TestGraphNode:
    def test_kernel_node_needs_spec(self):
        with pytest.raises(ValueError):
            GraphNode(kind="kernel")

    def test_memcpy_node_needs_direction_and_bytes(self):
        with pytest.raises(ValueError):
            GraphNode(kind="memcpy", nbytes=0, copy_kind=CopyKind.H2D)
        with pytest.raises(ValueError):
            GraphNode(kind="memcpy", nbytes=10)
        with pytest.raises(ValueError):
            GraphNode(kind="memcpy", nbytes=10, copy_kind=CopyKind.D2D)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            GraphNode(kind="mystery")


class TestCapture:
    def test_fluent_capture(self):
        _, rt = make_env()
        g = (
            CudaGraph(rt)
            .add_memcpy(MiB, CopyKind.H2D)
            .add_kernel(KernelSpec(name="k", duration_s=1e-3))
            .add_memcpy(MiB, CopyKind.D2H)
        )
        assert len(g.nodes) == 3
        assert not g.instantiated

    def test_instantiate_freezes(self):
        _, rt = make_env()
        g = CudaGraph(rt).add_kernel(KernelSpec(name="k", duration_s=1e-3))
        g.instantiate()
        assert g.instantiated
        with pytest.raises(RuntimeError):
            g.add_kernel(KernelSpec(name="k2", duration_s=1e-3))
        with pytest.raises(RuntimeError):
            g.add_memcpy(MiB, CopyKind.H2D)

    def test_empty_graph_rejected(self):
        _, rt = make_env()
        with pytest.raises(ValueError):
            CudaGraph(rt).instantiate()

    def test_launch_requires_instantiation(self):
        env, rt = make_env()
        g = CudaGraph(rt).add_kernel(KernelSpec(name="k", duration_s=1e-3))

        def host():
            yield from g.launch()

        with pytest.raises(RuntimeError):
            drive(env, host())


class TestReplay:
    def _graph(self, rt):
        return (
            CudaGraph(rt, name="iter")
            .add_memcpy(MiB, CopyKind.H2D)
            .add_kernel(KernelSpec(name="k", duration_s=2e-3))
            .add_memcpy(MiB, CopyKind.D2H)
            .instantiate()
        )

    def test_nodes_execute_in_order(self):
        env, rt = make_env()
        g = self._graph(rt)

        def host():
            ops = yield from g.launch(blocking=True)
            return ops

        ops = drive(env, host())
        assert len(ops) == 3
        starts = [op.receipt.start for op in ops]
        assert starts == sorted(starts)
        assert g.replays == 1

    def test_blocking_waits_for_last_node(self):
        env, rt = make_env()
        g = self._graph(rt)

        def host():
            t0 = env.now
            yield from g.launch(blocking=True)
            return env.now - t0

        elapsed = drive(env, host())
        assert elapsed >= 2e-3

    def test_one_slack_charge_per_replay(self):
        env, rt = make_env(slack_s=50e-6)
        g = self._graph(rt)

        def host():
            for _ in range(4):
                yield from g.launch(blocking=True)

        drive(env, host())
        # Four replays -> four slack charges total, not 4 x 3 nodes.
        assert rt.injector.calls_delayed == 4
        assert rt.injector.total_injected_s == pytest.approx(4 * 50e-6)

    def test_graph_launch_traced_as_api_event(self):
        env, rt = make_env()
        g = self._graph(rt)

        def host():
            yield from g.launch(blocking=True)

        drive(env, host())
        apis = rt.tracer.trace.of_kinds(EventKind.API).by_name()[
            "cudaGraphLaunch"
        ]
        assert len(apis) == 1
        assert apis[0].meta["nodes"] == 3

    def test_mitigation_vs_individual_calls(self):
        """Graphs pay ~1/5 the slack exposure of per-call submission."""
        def loop(use_graph, slack):
            env, rt = make_env(slack)
            n, iters = 512, 20
            nbytes = n * n * 4
            kernel = KernelSpec(name="k", duration_s=60e-6)
            if use_graph:
                g = (CudaGraph(rt).add_memcpy(nbytes, CopyKind.H2D)
                     .add_memcpy(nbytes, CopyKind.H2D).add_kernel(kernel)
                     .add_memcpy(nbytes, CopyKind.D2H).instantiate())

                def host():
                    t0 = env.now
                    for _ in range(iters):
                        yield from g.launch(blocking=True)
                    return env.now - t0
            else:
                def host():
                    t0 = env.now
                    for _ in range(iters):
                        yield from rt.memcpy(nbytes, CopyKind.H2D)
                        yield from rt.memcpy(nbytes, CopyKind.H2D)
                        yield from rt.launch(kernel, blocking=True)
                        yield from rt.memcpy(nbytes, CopyKind.D2H)
                        yield from rt.synchronize()
                    return env.now - t0
            return drive(env, host())

        slack = 1e-4
        overhead_calls = loop(False, slack) - loop(False, 0.0)
        overhead_graph = loop(True, slack) - loop(True, 0.0)
        assert overhead_graph < 0.3 * overhead_calls
