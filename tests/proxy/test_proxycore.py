"""Index core of the matmul proxy: bit parity with the reference DES.

A run the index core computes must equal the event-by-event DES run
(``fast_forward=False``, the oracle) in every result field — runtimes,
injected slack, starvation cost, every trace column, name and meta in
record order, the complete ``sim_metrics`` dict — and must leave the
caller's slack model (counters and rng) exactly as the DES leaves it.
That holds whether or not the core skipped the loop's steady state.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import ExperimentContext, run_experiment
from repro.faults import FaultPlan
from repro.gpusim import PreloadShim
from repro.hw import OutOfMemoryError
from repro.network import SlackModel
from repro.obs import collecting
from repro.parallel import PointCache
from repro.proxy import ProxyConfig, SweepOptions, run_proxy, run_slack_sweep
from repro.trace.store import COLUMNS

SLACKS = {
    "none": lambda: None,
    "fixed": lambda: SlackModel(2e-5),
    "jittered": lambda: SlackModel(
        5e-5, jitter_fraction=0.3, rng=np.random.default_rng(11)
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


def _trace_state(trace):
    store = trace.store
    n = store.n
    return (
        {col: getattr(store, col)[:n] for col in COLUMNS},
        store.names,
        store.metas[:n],
    )


def assert_core_matches_oracle(config, slack_kind):
    """Run ``config`` on the core and on the DES; compare every field."""
    oracle_slack, core_slack = SLACKS[slack_kind](), SLACKS[slack_kind]()
    oracle = run_proxy(config, oracle_slack, fast_forward=False)
    core = run_proxy(config, core_slack)
    assert core.core_fallback is None
    assert oracle.core_fallback == "disabled"
    for field in ("slack_s", "iterations", "kernel_time_s", "loop_runtime_s",
                  "corrected_runtime_s", "injected_slack_s",
                  "starvation_cost_s"):
        assert getattr(core, field) == getattr(oracle, field), field
    assert core.sim_metrics == oracle.sim_metrics
    assert list(core.sim_metrics) == list(oracle.sim_metrics)
    (got, got_names, got_metas) = _trace_state(core.trace)
    (want, want_names, want_metas) = _trace_state(oracle.trace)
    for col in COLUMNS:
        assert got[col].dtype == want[col].dtype, col
        np.testing.assert_array_equal(got[col], want[col], err_msg=col)
    assert got_names == want_names
    assert got_metas == want_metas
    assert core.trace.name == oracle.trace.name
    assert _slack_state(core_slack) == _slack_state(oracle_slack)
    return core, oracle


#: Iterations from which every none- or fixed-slack run on the test
#: grid certifies its steady state early enough to skip cycles.
SKIPS_FROM = 20


class TestParity:
    @settings(max_examples=40, deadline=None)
    @given(
        size=st.sampled_from([2**9, 2**11, 2**13]),
        threads=st.integers(1, 8),
        iterations=st.integers(1, 120),
        slack=st.sampled_from(sorted(SLACKS)),
    )
    def test_core_equals_des(self, size, threads, iterations, slack):
        config = ProxyConfig(
            matrix_size=size, threads=threads, iterations=iterations
        )
        core, _ = assert_core_matches_oracle(config, slack)
        if slack in ("none", "fixed") and iterations >= SKIPS_FROM:
            # A skip that never fires would pass the parity asserts.
            assert core.fastforward.certified, core.fastforward
            assert core.fastforward.events_skipped > 0
            assert core.fastforward.skipped_iterations > 0

    def test_period_of_several_iterations(self):
        # Six free-running threads at 20 us take turns on the engines:
        # the state repeats only every few iterations, and the skip
        # must still equal the DES.
        config = ProxyConfig(matrix_size=2**9, threads=6, iterations=40)
        core, _ = assert_core_matches_oracle(config, "fixed")
        info = core.fastforward
        assert info.certified
        assert info.cycle_period_s > 2 * core.loop_runtime_s / 40

    @pytest.mark.parametrize("slack", sorted(SLACKS))
    def test_quick_sweep_shape(self, slack):
        # The reproduction's quick sweep: 25 iterations, up to 8 threads.
        config = ProxyConfig(matrix_size=2**11, threads=8, iterations=25)
        assert_core_matches_oracle(config, slack)

    def test_calibrated_iterations(self):
        config = ProxyConfig(matrix_size=2**13, target_compute_s=0.01)
        core, _ = assert_core_matches_oracle(config, "fixed")
        assert core.iterations > 1

    def test_des_equivalent_counts(self):
        core, _ = assert_core_matches_oracle(
            ProxyConfig(matrix_size=512, threads=3, iterations=7), "fixed"
        )
        sim = core.sim_metrics
        expected = 30 * 7 * 3 + 3 * 3 + 4 + sim["fabric.slack_calls"]
        assert sim["des.events_dispatched"] == expected
        assert sim["des.events_scheduled"] == expected
        assert sim["des.heap_depth"] == 0.0
        assert sim["des.sim_time_s"] == core.loop_runtime_s


class TestOutOfMemory:
    def test_core_raises_like_the_des(self):
        config = ProxyConfig(matrix_size=2**15, threads=4, iterations=5)
        with pytest.raises(OutOfMemoryError) as core:
            run_proxy(config, SlackModel(1e-5))
        with pytest.raises(OutOfMemoryError) as des:
            run_proxy(config, SlackModel(1e-5), fast_forward=False)
        assert str(core.value) == str(des.value)


class TestDispatch:
    CONFIG = ProxyConfig(matrix_size=512, threads=2, iterations=20)

    @pytest.mark.parametrize(
        "slack, reason",
        [
            (SlackModel(1e-5), None),
            (SlackModel(1e-5, jitter_fraction=0.2), "slack-jitter"),
            (PreloadShim(1e-5, coverage=0.6), "slack-model-subclass"),
        ],
    )
    def test_short_or_refused_runs_take_the_core(self, slack, reason):
        # A certifiable run skips its steady state on the core; a
        # refused one runs there in full and says why.
        result = run_proxy(self.CONFIG, slack)
        assert result.core_fallback is None
        assert result.fastforward.certified == (reason is None)
        assert result.fastforward.reason == reason

    def test_too_few_iterations_take_the_core(self):
        config = ProxyConfig(matrix_size=512, iterations=3)
        result = run_proxy(config, SlackModel(1e-5))
        assert result.core_fallback is None
        assert result.fastforward.reason == "too-few-iterations"

    @pytest.mark.parametrize("iterations", [20, 51])
    def test_fast_forward_true_dispatches_like_the_default(self, iterations):
        config = ProxyConfig(matrix_size=512, iterations=iterations)
        on = run_proxy(config, SlackModel(1e-5), fast_forward=True)
        default = run_proxy(config, SlackModel(1e-5))
        assert on.core_fallback == default.core_fallback
        assert on.fastforward == default.fastforward

    def test_long_runs_keep_fast_forward(self):
        # Long runs fast-forward on the core: same dispatch at any
        # length, and the skip leaves O(warm-up) iterations simulated.
        for iterations in (50, 51, 1000):
            config = ProxyConfig(matrix_size=512, iterations=iterations)
            result = run_proxy(config, SlackModel(1e-5))
            assert result.core_fallback is None
            assert result.fastforward.certified
            assert result.fastforward.warmup_iterations < 15

    def test_long_refused_runs_take_the_core(self):
        config = ProxyConfig(matrix_size=512, iterations=200)
        result = run_proxy(config, PreloadShim(1e-5, coverage=0.6))
        assert result.core_fallback is None

    @pytest.mark.parametrize(
        "config, reason",
        [
            (
                ProxyConfig(matrix_size=512, threads=2, iterations=10,
                            phase_barrier=True),
                "phase-barrier",
            ),
            (
                ProxyConfig(matrix_size=512, iterations=10,
                            iteration_spacing_s=1e-6),
                "iteration-spacing",
            ),
            (
                ProxyConfig(matrix_size=512, threads=2, iterations=10,
                            thread_launch_offset_s=1e-6),
                "thread-launch-offset",
            ),
        ],
    )
    def test_des_only_knobs_fall_back(self, config, reason):
        # Also with a slack the core would otherwise take.
        slack = SlackModel(1e-5, jitter_fraction=0.2)
        assert run_proxy(config, slack).core_fallback == reason

    def test_fault_plans(self):
        plan = FaultPlan.from_spec("spike:start=0,duration=10ms,extra=100us")
        faulted = run_proxy(self.CONFIG, SlackModel(1e-5), faults=plan)
        assert faulted.core_fallback == "faults-active"
        empty = run_proxy(self.CONFIG, SlackModel(1e-5), faults=FaultPlan())
        assert empty.core_fallback is None

    def test_disabled(self):
        result = run_proxy(self.CONFIG, SlackModel(1e-5), fast_forward=False)
        assert result.core_fallback == "disabled"


class TestCounters:
    GRID = dict(
        matrix_sizes=(512, 2**15), slack_values_s=(1e-4,), threads=(1, 4),
        iterations=20,
    )

    def _counters(self, options):
        with collecting() as reg:
            run_slack_sweep(**self.GRID, options=options)
        return {
            name: reg.counter(name).value
            for name in (
                "proxycore.runs",
                "proxycore.fallbacks.disabled",
                "proxycore.fallbacks.faults-active",
                "proxy.fastforward.hits",
                "proxy.fastforward.fallbacks",
            )
        }

    def test_core_runs_counted(self):
        # 2^15 x 4 threads is out of memory (baseline and slack point):
        # failed points count in no engine.
        counts = self._counters(SweepOptions(cache=False))
        assert counts["proxycore.runs"] == 6
        assert counts["proxy.fastforward.fallbacks"] == 0
        assert counts["proxy.fastforward.hits"] == 6

    def test_fallbacks_counted(self):
        counts = self._counters(SweepOptions(cache=False, fast_forward=False))
        assert counts["proxycore.fallbacks.disabled"] == 6
        assert counts["proxycore.runs"] == 0
        plan = FaultPlan.from_spec("spike:start=0,duration=10ms,extra=100us")
        counts = self._counters(SweepOptions(cache=False, faults=plan))
        assert counts["proxycore.fallbacks.faults-active"] == 6

    def test_fast_forward_counted(self):
        # fast_forward=True is the default engine: the core, skipping.
        counts = self._counters(SweepOptions(cache=False, fast_forward=True))
        assert counts["proxycore.runs"] == 6
        assert counts["proxy.fastforward.hits"] == 6

    def test_cached_points_not_counted(self, tmp_path):
        options = SweepOptions(cache=PointCache(tmp_path))
        self._counters(options)
        counts = self._counters(options)
        assert counts["proxycore.runs"] == 0


@pytest.fixture(scope="module")
def contexts():
    """Uncached quick contexts: reference DES and default (index cores)."""
    oracle = ExperimentContext(
        quick=True, options=SweepOptions(cache=False, fast_forward=False)
    )
    default = ExperimentContext(quick=True, options=SweepOptions(cache=False))
    return oracle, default


class TestPaperConfigs:
    @pytest.mark.parametrize("experiment", ["table2", "figure3", "validation"])
    def test_rendered_experiment_equals_des(self, contexts, experiment):
        oracle, default = contexts
        assert (
            run_experiment(experiment, default).render()
            == run_experiment(experiment, oracle).render()
        )
