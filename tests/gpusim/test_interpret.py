"""The generic DES interpreter against the index core.

A workload's host side is one set of :class:`FlatDevice` programs with
two interpreters: the index core (:meth:`FlatDevice.run`) and the DES
(:func:`repro.gpusim.interpret.run_des`). Over random programs — every
opcode, jitter draws, barriers, graph launches, an optional join,
slack none, fixed or jittered — the two must agree on every trace
column, name and meta, the end time, starvation, slack and the end
states of the slack model and the jitter source. The core's steady-state
skip must not change a run either.

The runs only the DES makes (``fast_forward=False``, fault plans, the
proxy's phase barrier, spacing and offset) are pinned by digests
recorded from the hand-written DES drivers the interpreter replaced.
"""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import profile_cosmoflow, profile_lammps
from repro.apps.profilecache import _profile_arrays
from repro.apps.registry import get_app
from repro.faults import FaultPlan
from repro.gpusim.flatcore import (
    OP_ASYNC,
    OP_GRAPH,
    OP_LAUNCH,
    OP_MEMCPY,
    FlatDevice,
)
from repro.gpusim.interpret import run_des
from repro.hw import A100_SXM4_40GB, PCIE_GEN4_X16
from repro.network import SlackModel
from repro.proxy import ProxyConfig, run_proxy
from repro.trace import CopyKind
from repro.trace.store import COLUMNS

SLACKS = {
    "none": lambda seed: SlackModel(0.0),
    "fixed": lambda seed: SlackModel(2e-5),
    "jittered": lambda seed: SlackModel(
        5e-5, jitter_fraction=0.3, rng=np.random.default_rng(seed)
    ),
}


def _slack_state(model):
    state = dict(vars(model))
    rng = state.pop("_rng", None)
    if rng is not None:
        state["_rng"] = rng.bit_generator.state
    return state


def _device(slack, seed):
    return FlatDevice(A100_SXM4_40GB, PCIE_GEN4_X16, slack,
                      rng=np.random.default_rng(seed), sigma=0.2)


def assert_same_run(got, want):
    """Two ``(trace, end_s, starvation, injected slack, calls delayed)``
    outcomes are equal, every trace column, name and meta included."""
    (got_trace, *got_scalars), (want_trace, *want_scalars) = got, want
    a, b = got_trace.store, want_trace.store
    for col in COLUMNS:
        x, y = getattr(a, col)[:a.n], getattr(b, col)[:b.n]
        assert x.dtype == y.dtype, col
        np.testing.assert_array_equal(x, y, err_msg=col)
    assert a.names == b.names
    assert a.metas[:a.n] == b.metas[:b.n]
    assert got_scalars == want_scalars


def _core(run):
    return (run.trace, run.end_s, run.starvation_s, run.injected_slack_s,
            run.slack_calls)


def assert_core_matches_interpreter(bodies, join, count, slack_kind, seed=0):
    """Run the programs on both interpreters; compare everything.
    Returns the core's run."""
    core_dev = _device(SLACKS[slack_kind](seed), seed)
    des_dev = _device(SLACKS[slack_kind](seed), seed)
    threads = range(len(bodies))
    run = core_dev.run(bodies, threads, join, count=count)
    _, rt = run_des(des_dev, [body * count for body in bodies], threads,
                    join)
    assert_same_run(
        _core(run),
        (rt.tracer.trace, rt.env.now, rt.total_starvation_cost(),
         rt.injector.total_injected_s, rt.injector.calls_delayed),
    )
    assert _slack_state(core_dev.slack) == _slack_state(des_dev.slack)
    assert (core_dev.rng.bit_generator.state
            == des_dev.rng.bit_generator.state)
    return run


# Random programs. Instructions do not depend on the slack model, so
# one device builds them all.
_DEV = FlatDevice(A100_SXM4_40GB, PCIE_GEN4_X16, SlackModel(0.0))
_NBYTES = st.sampled_from([4096, 1 << 20, 3 << 20])
_DURATION = st.sampled_from([1e-6, 5e-6, 3e-5, 2e-4])
_KIND = st.sampled_from([CopyKind.H2D, CopyKind.D2H])
_NAME = st.sampled_from(["k0", "k1"])


def _jitter(plain):
    """No draw, or (unless ``plain``) a log-normal mu."""
    return st.just(None) if plain else st.sampled_from(
        [None, -12.0, -10.0]
    )


_NODE = st.one_of(
    st.builds(_DEV.launch, _NAME, _DURATION),
    st.builds(_DEV.memcpy, _NBYTES, _KIND),
)
_GRAPH = st.builds(
    lambda nodes, blocking: _DEV.graph(nodes, blocking=blocking),
    st.lists(_NODE, min_size=1, max_size=6),
    st.booleans(),
)


def _calls(plain):
    """One instruction; ``plain`` ones draw no jitter and hold no graph."""
    calls = [
        st.builds(
            lambda n, kind, sync: _DEV.memcpy(n, kind, sync=sync),
            _NBYTES, _KIND, st.booleans(),
        ),
        st.builds(
            lambda name, mean, mu, meta, blocking: FlatDevice.launch(
                name, mean, mu, meta, blocking=blocking
            ),
            _NAME, _DURATION, _jitter(plain),
            st.sampled_from([None, {"layer": 3}]), st.booleans(),
        ),
        st.builds(
            FlatDevice.cpu, _DURATION, _jitter(plain),
            st.sampled_from([1, 2]), st.sampled_from([0.0, 1e-6]),
        ),
        st.sampled_from([FlatDevice.SYNC_STREAM, FlatDevice.SYNC_DEVICE]),
    ]
    if not plain:
        calls.append(_GRAPH)
    return st.one_of(*calls)


def _puts(body):
    """Ops one pass of ``body`` puts on its host's stream."""
    return sum(
        len(call[2]) if call[0] == OP_GRAPH else 1
        for call in body
        if call[0] in (OP_LAUNCH, OP_MEMCPY, OP_ASYNC, OP_GRAPH)
    )


@st.composite
def programs(draw, plain=False, graph=False, max_hosts=8, min_count=1):
    """``(bodies, join, count)``: 1-``max_hosts`` hosts whose bodies
    hold the same number of barriers (none if ``plain``; a graph launch
    each if ``graph``), an optional join and ``min_count``-60 cycles."""
    call = _calls(plain)
    hosts = draw(st.integers(1, max_hosts))
    barriers = 0 if plain else draw(st.integers(0, 2))
    bodies = []
    for _ in range(hosts):
        body = draw(st.lists(call, min_size=1, max_size=5))
        extra = [FlatDevice.BARRIER] * barriers
        if graph:
            extra.append(draw(_GRAPH))
        for step in extra:
            body.insert(draw(st.integers(0, len(body))), step)
        bodies.append(body)
    join = draw(st.none() | st.lists(call, min_size=1, max_size=3))
    count = draw(st.integers(min_count, 60))
    # A stream queue must stay below the Store's capacity.
    if max(map(_puts, bodies)) * count > 900:
        bodies = [body + [FlatDevice.SYNC_STREAM] for body in bodies]
    return bodies, join, count


class TestDifferential:
    @settings(max_examples=40, deadline=None)
    @given(
        program=programs(),
        slack_kind=st.sampled_from(sorted(SLACKS)),
        seed=st.integers(0, 2**16),
    )
    def test_core_equals_interpreter(self, program, slack_kind, seed):
        bodies, join, count = program
        assert_core_matches_interpreter(bodies, join, count, slack_kind, seed)

    @settings(max_examples=40, deadline=None)
    @given(
        program=programs(plain=True, min_count=7),
        slack_kind=st.sampled_from(["none", "fixed"]),
    )
    def test_skip_on_equals_skip_off(self, program, slack_kind):
        # The core never skips a one-cycle run, so the same bodies
        # unrolled at count=1 are the run without the skip.
        bodies, join, count = program
        threads = range(len(bodies))
        skip_dev = _device(SLACKS[slack_kind](0), 0)
        full_dev = _device(SLACKS[slack_kind](0), 0)
        skip = skip_dev.run(bodies, threads, join, count=count)
        full = full_dev.run([body * count for body in bodies], threads, join)
        assert full.cycles_skipped == 0
        assert_same_run(_core(skip), _core(full))
        assert skip.slack_sleeps == full.slack_sleeps
        assert _slack_state(skip_dev.slack) == _slack_state(full_dev.slack)

    def test_proxy_body_skips(self):
        body = [_DEV.memcpy(1 << 20, CopyKind.H2D),
                _DEV.launch("k", 6e-5, blocking=True),
                _DEV.memcpy(1 << 20, CopyKind.D2H), FlatDevice.SYNC_STREAM]
        run = assert_core_matches_interpreter([body] * 2, None, 40, "fixed")
        assert run.cycles_skipped > 0


FAULTS = (
    "seed=42;loss:rate=1%;flap:start=5ms,down=2ms;"
    "spike:start=0,duration=10ms,extra=100us"
)


def _digest(arrays):
    """sha256 over named arrays: each key, dtype and raw bytes in key
    order."""
    h = hashlib.sha256()
    for key in sorted(arrays):
        a = np.ascontiguousarray(arrays[key])
        h.update(key.encode())
        h.update(a.dtype.str.encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _app(name, faults=None, slack_s=0.0):
    profiler = {"lammps": profile_lammps, "cosmoflow": profile_cosmoflow}[name]

    def run():
        plan = FaultPlan.from_spec(faults) if faults else None
        profile = profiler(
            get_app(name).default_config(True),
            SlackModel(slack_s),
            fast_forward=False,
            faults=plan,
        )
        return _profile_arrays(profile)

    return run


def _proxy(slack_s=1e-5, fast_forward=None, faults=None, **config):
    def run():
        plan = FaultPlan.from_spec(faults) if faults else None
        result = run_proxy(
            ProxyConfig(matrix_size=512, iterations=12, **config),
            SlackModel(slack_s),
            fast_forward=fast_forward,
            faults=plan,
        )
        store = result.trace.store
        arrays = {col: getattr(store, col)[:store.n] for col in COLUMNS}
        scalars = {
            "loop_runtime_s": result.loop_runtime_s,
            "injected_slack_s": result.injected_slack_s,
            "starvation_cost_s": result.starvation_cost_s,
            "sim_metrics": result.sim_metrics,
            "names": list(store.names),
            "metas": repr(store.metas[:store.n]),
        }
        arrays["scalars"] = np.frombuffer(
            json.dumps(scalars).encode(), dtype=np.uint8
        )
        return arrays

    return run


#: Runs only the DES makes, by name.
PINNED_RUNS = {
    "lammps-quick": _app("lammps"),
    "cosmoflow-quick": _app("cosmoflow"),
    "lammps-faults": _app("lammps", FAULTS, 1e-4),
    "cosmoflow-faults": _app("cosmoflow", FAULTS, 1e-4),
    "proxy-barrier-t2": _proxy(fast_forward=False, threads=2,
                               phase_barrier=True),
    "proxy-barrier-t4": _proxy(fast_forward=False, threads=4,
                               phase_barrier=True),
    "proxy-spacing": _proxy(threads=2, iteration_spacing_s=2.0**-20),
    "proxy-offset": _proxy(threads=4, thread_launch_offset_s=2.0**-19),
    "proxy-spacing-offset-barrier": _proxy(
        1e-3, threads=3, phase_barrier=True, iteration_spacing_s=2.0**-19,
        thread_launch_offset_s=2.0**-20,
    ),
    "proxy-faults": _proxy(1e-4, threads=2, faults=FAULTS),
}

#: Their digests as the hand-written DES drivers made them (LAMMPS's
#: and CosmoFlow's own DES generators, ``run_proxy``'s worker
#: processes and per-call barriers), recorded before the interpreter
#: replaced those drivers.
PINNED_DIGESTS = {
    "cosmoflow-faults": (
        "fb97b16140c783aee02e37973b559354"
        "f7be6702c9908a25dabf4d32bac81e16"
    ),
    "cosmoflow-quick": (
        "69efc17ec2828f0782e0fe2ddb249583"
        "2fe0c030cdedc222e151fc69ce99880a"
    ),
    "lammps-faults": (
        "f1f73502169d3448e09623bd4b9a89f7"
        "8164426594b803945e37a6f950431a78"
    ),
    "lammps-quick": (
        "75e0826d0e1f130d9881bee184b481d7"
        "5f88b95c050267b7be694ded88b20c84"
    ),
    "proxy-barrier-t2": (
        "e9e2a61b937abd904d7bed20f1b81398"
        "adface81cb7f051ba0f448dd71ffed06"
    ),
    "proxy-barrier-t4": (
        "8456c4d46ca5ade52385dfc610843d99"
        "03353c7e9e6202ede9a46eaf9822a977"
    ),
    "proxy-faults": (
        "278f02c8263c6237d16c78de1e9e1ecb"
        "116dfc44c0b4eef10609f6b322796ca0"
    ),
    "proxy-offset": (
        "49532116c69bb1b609727472045f8823"
        "eaf2c400c188f2c731601c8b6414c429"
    ),
    "proxy-spacing": (
        "a325aadea3d915c8139e0b7b3e5101aa"
        "3a733e929bf7a031a17efaa904872d5f"
    ),
    "proxy-spacing-offset-barrier": (
        "d0b29d23e7d0afacbf676e7817b6fe7b"
        "5d4d9253b5a8d4e6c72fdc6789bd084c"
    ),
}


class TestPinnedDesRuns:
    @pytest.mark.parametrize("case", sorted(PINNED_RUNS))
    def test_digest(self, case):
        assert _digest(PINNED_RUNS[case]()) == PINNED_DIGESTS[case]
