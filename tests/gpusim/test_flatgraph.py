"""The index core's graph launch and API overhead.

``FlatDevice.graph`` must replay a captured graph exactly as
:meth:`repro.gpusim.CudaGraph.launch` does on :class:`CudaRuntime`,
where the DES interpreter runs it: every trace column, name and meta
in record order (correlation ids included), the run's end time and the
slack model's end state.
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

from .test_interpret import (
    _DEV,
    SLACKS,
    assert_core_matches_interpreter,
    programs,
)


def _trace_state(trace):
    store = trace.store
    n = store.n
    return (
        {col: getattr(store, col)[:n] for col in COLUMNS},
        store.names,
        store.metas[:n],
    )


class TestGraphOp:
    @settings(max_examples=40, deadline=None)
    @given(
        program=programs(graph=True, max_hosts=3),
        slack_kind=st.sampled_from(sorted(SLACKS)),
        seed=st.integers(0, 2**16),
    )
    def test_core_equals_cuda_graph(self, program, slack_kind, seed):
        bodies, join, count = program
        assert_core_matches_interpreter(bodies, join, count, slack_kind, seed)

    def test_graph_body_plays_out_in_full(self):
        # CudaGraph's launch wait and copy times are off the tick grid,
        # so the core refuses to skip even a certifiable-looking loop.
        nbytes = 512 * 512 * 4
        h2d, d2h = (_DEV.memcpy(nbytes, kind)
                    for kind in (CopyKind.H2D, CopyKind.D2H))
        graph = _DEV.graph([h2d, h2d, _DEV.launch("k", 6e-5), d2h],
                           blocking=True)
        run = assert_core_matches_interpreter([[graph]], None, 50, "fixed")
        assert run.refusal == "graph-off-grid"
        assert run.cycles_skipped == 0

    def test_plain_body_still_skips(self):
        nbytes = 512 * 512 * 4
        iteration = [_DEV.memcpy(nbytes, CopyKind.H2D),
                     _DEV.launch("k", 6e-5, blocking=True),
                     _DEV.memcpy(nbytes, CopyKind.D2H),
                     FlatDevice.SYNC_STREAM]
        run = assert_core_matches_interpreter([iteration], None, 50, "fixed")
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
