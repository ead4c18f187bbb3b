"""The index core's graph launch and API overhead against the DES.

``FlatDevice.graph`` must replay a captured graph exactly as
:meth:`repro.gpusim.CudaGraph.launch` does on :class:`CudaRuntime`:
every trace column, name and meta in record order (correlation ids
included), the run's end time and the slack model's end state.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Environment
from repro.gpusim import CudaRuntime, KernelSpec
from repro.gpusim.flatcore import FlatDevice
from repro.hw import A100_SXM4_40GB, PCIE_GEN4_X16
from repro.network import SlackModel
from repro.trace import CopyKind
from repro.trace.store import COLUMNS

from ..oracles.proxyloop import run_programs

SLACKS = {
    "none": lambda seed: SlackModel(0.0),
    "fixed": lambda seed: SlackModel(2e-5),
    "jittered": lambda seed: SlackModel(
        5e-5, jitter_fraction=0.3, rng=np.random.default_rng(seed)
    ),
}
_COPY = {"h2d": CopyKind.H2D, "d2h": CopyKind.D2H}


def _slack_state(model):
    state = dict(vars(model))
    rng = state.pop("_rng", None)
    if rng is not None:
        state["_rng"] = rng.bit_generator.state
    return state


def _trace_state(trace):
    store = trace.store
    n = store.n
    return (
        {col: getattr(store, col)[:n] for col in COLUMNS},
        store.names,
        store.metas[:n],
    )


def _flat_programs(dev, programs):
    """The oracle's program steps as FlatDevice instructions."""
    bodies = []
    for program in programs:
        body = []
        for step in program:
            kind = step[0]
            if kind == "graph":
                nodes = [
                    dev.launch(node[1], node[2]) if node[0] == "kernel"
                    else dev.memcpy(node[1], _COPY[node[0]])
                    for node in step[1]
                ]
                body.append(dev.graph(nodes, blocking=step[2]))
            elif kind == "kernel":
                body.append(dev.launch(step[1], step[2], blocking=step[3]))
            elif kind == "sync":
                body.append(FlatDevice.SYNC_STREAM)
            else:
                body.append(dev.memcpy(step[1], _COPY[kind], sync=step[2]))
        bodies.append(body)
    return bodies


def assert_graph_run_matches_des(programs, iters, slack_kind, seed=0):
    """Run ``programs`` on the core and on the DES; compare everything."""
    core_slack, des_slack = SLACKS[slack_kind](seed), SLACKS[slack_kind](seed)
    dev = FlatDevice(A100_SXM4_40GB, PCIE_GEN4_X16, core_slack)
    run = dev.run(
        _flat_programs(dev, programs), range(len(programs)), count=iters
    )
    env = Environment()
    rt = CudaRuntime(env, slack=des_slack)
    run_programs(rt, programs, iters)
    got, got_names, got_metas = _trace_state(run.trace)
    want, want_names, want_metas = _trace_state(rt.tracer.trace)
    for col in COLUMNS:
        np.testing.assert_array_equal(got[col], want[col], err_msg=col)
    assert got_names == want_names
    assert got_metas == want_metas
    assert run.end_s == env.now
    assert run.starvation_s == rt.total_starvation_cost()
    assert run.injected_slack_s == rt.injector.total_injected_s
    assert run.slack_calls == rt.injector.calls_delayed
    assert _slack_state(core_slack) == _slack_state(des_slack)
    return run


_NBYTES = st.sampled_from([4096, 1 << 20, 3 << 20])
_DURATION = st.sampled_from([1e-6, 5e-6, 3e-5, 2e-4])
_NODE = st.one_of(
    st.tuples(st.just("kernel"), st.sampled_from(["k0", "k1"]), _DURATION),
    st.tuples(st.sampled_from(["h2d", "d2h"]), _NBYTES),
)
_GRAPH = st.tuples(
    st.just("graph"), st.lists(_NODE, min_size=1, max_size=6), st.booleans()
)
_CALL = st.one_of(
    st.tuples(st.sampled_from(["h2d", "d2h"]), _NBYTES, st.booleans()),
    st.tuples(st.just("kernel"), st.just("k2"), _DURATION, st.booleans()),
    st.just(("sync",)),
)


@st.composite
def _program(draw):
    """1-4 steps, at least one of them a graph launch, sometimes ending
    in a stream sync."""
    steps = draw(st.lists(st.one_of(_GRAPH, _CALL), min_size=0, max_size=3))
    steps.insert(draw(st.integers(0, len(steps))), draw(_GRAPH))
    if draw(st.booleans()):
        steps.append(("sync",))
    return steps


class TestGraphOp:
    @settings(max_examples=40, deadline=None)
    @given(
        programs=st.lists(_program(), min_size=1, max_size=3),
        iters=st.integers(1, 60),
        slack_kind=st.sampled_from(sorted(SLACKS)),
        seed=st.integers(0, 2**16),
    )
    def test_core_equals_cuda_graph(self, programs, iters, slack_kind, seed):
        # A stream queue must stay below the Store's capacity.
        depth = max(
            sum(len(s[1]) if s[0] == "graph" else 1 for s in p) for p in programs
        )
        if depth * iters > 900:
            programs = [p + [("sync",)] for p in programs]
        assert_graph_run_matches_des(programs, iters, slack_kind, seed)

    def test_graph_body_plays_out_in_full(self):
        # CudaGraph's launch wait and copy times are off the tick grid,
        # so the core refuses to skip even a certifiable-looking loop.
        nbytes = 512 * 512 * 4
        iteration = [(
            "graph",
            [("h2d", nbytes), ("h2d", nbytes), ("kernel", "k", 6e-5),
             ("d2h", nbytes)],
            True,
        )]
        run = assert_graph_run_matches_des([iteration], 50, "fixed")
        assert run.refusal == "graph-off-grid"
        assert run.cycles_skipped == 0

    def test_plain_body_still_skips(self):
        nbytes = 512 * 512 * 4
        iteration = [("h2d", nbytes, True), ("kernel", "k", 6e-5, True),
                     ("d2h", nbytes, True), ("sync",)]
        run = assert_graph_run_matches_des([iteration], 50, "fixed")
        assert run.refusal is None
        assert run.cycles_skipped > 0

    def test_one_api_row_and_one_slack_charge_per_replay(self):
        dev = FlatDevice(A100_SXM4_40GB, PCIE_GEN4_X16, SlackModel(5e-5))
        graph = dev.graph(
            [dev.memcpy(4096, CopyKind.H2D), dev.launch("k", 1e-4)]
        )
        run = dev.run([[graph]], [0], count=4)
        apis = [e for e in run.trace if e.name == "cudaGraphLaunch"]
        assert [e.meta for e in apis] == [{"graph": "graph", "nodes": 2}] * 4
        assert run.slack_calls == 4

    def test_invalid_graphs_rejected(self):
        dev = FlatDevice(A100_SXM4_40GB, PCIE_GEN4_X16, SlackModel(0.0))
        with pytest.raises(ValueError):
            dev.graph([])
        with pytest.raises(ValueError):
            dev.graph([dev.launch("k", 1e-4, mu=-9.0)])
        with pytest.raises(ValueError):
            dev.graph([FlatDevice.SYNC_STREAM])


class TestApiOverhead:
    @pytest.mark.parametrize("overhead", [0.0, 3.5e-6, 2e-5])
    def test_matches_cuda_runtime(self, overhead):
        nbytes = 1 << 20
        dev = FlatDevice(A100_SXM4_40GB, PCIE_GEN4_X16, SlackModel(0.0),
                         api_overhead_s=overhead)
        body = [dev.memcpy(nbytes, CopyKind.H2D), dev.launch("k", 1e-4),
                FlatDevice.SYNC_STREAM]
        run = dev.run([body], [0], count=3)
        env = Environment()
        rt = CudaRuntime(env, api_overhead_s=overhead)
        kernel = KernelSpec(name="k", duration_s=1e-4)

        def host(stream):
            for _ in range(3):
                yield from rt.memcpy(nbytes, CopyKind.H2D, stream)
                yield from rt.launch(kernel, stream)
                yield from rt.synchronize(stream)

        env.process(host(rt.create_stream()))
        env.run()
        got, _, _ = _trace_state(run.trace)
        want, _, _ = _trace_state(rt.tracer.trace)
        for col in COLUMNS:
            np.testing.assert_array_equal(got[col], want[col], err_msg=col)
