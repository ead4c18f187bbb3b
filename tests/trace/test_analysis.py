"""Unit tests for trace analysis (violin summaries, parallelism) and export."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace import (
    CopyKind,
    EventKind,
    Trace,
    TraceEvent,
    Tracer,
    from_csv,
    from_json,
    kernel_duration_profile,
    launch_parallelism,
    memcpy_size_profile,
    summarize,
    to_csv,
    to_json,
)
from repro.des import Environment
from repro.trace.analysis import _quartiles


def kernel(name, start, end, stream=0):
    return TraceEvent(EventKind.KERNEL, name, start, end, stream=stream)


def memcpy(nbytes, start, end, kind=CopyKind.H2D):
    return TraceEvent(EventKind.MEMCPY, f"memcpy{kind.value}", start, end,
                      nbytes=nbytes, copy_kind=kind)


class TestSummarize:
    def test_quartiles(self):
        s = summarize([1, 2, 3, 4, 5], label="x")
        assert s.median == 3
        assert s.minimum == 1
        assert s.maximum == 5
        assert s.count == 5
        assert s.iqr == s.q3 - s.q1

    def test_degenerate_constant_sample(self):
        s = summarize([2.0, 2.0, 2.0])
        assert s.median == 2.0

    def test_small_sample(self):
        s = summarize([1.0])
        assert s.count == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            summarize([1.0, float("nan")])


#: Samples as the profiles hold them: finite, any sign and scale, with
#: ties (durations repeat) and sizes around the 4-element period of the
#: quartile indices.
SAMPLES = st.lists(
    st.one_of(
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        st.sampled_from([0.0, 1e-6, 2.5e-6, 1.0, 4096.0]),
    ),
    min_size=1,
    max_size=64,
)


def assert_same_bits(got, expected):
    """Equal as float64 bit patterns (NaNs included), except that a zero
    may carry either sign: 0.0 and -0.0 are ties, and a sort and a
    partition may order ties differently. Durations and sizes are never
    -0.0."""
    got = np.asarray(got, dtype=np.float64)
    for g, e in zip(got, expected):
        if not (g == 0.0 and e == 0.0):
            assert g.view(np.int64) == e.view(np.int64), (g, e)


class TestQuartiles:
    """``summarize`` takes its quartiles from one sort instead of
    ``np.percentile``; they must be the same floats."""

    @settings(max_examples=400, deadline=None)
    @given(SAMPLES)
    def test_bit_identical_to_np_percentile(self, values):
        arr = np.asarray(values, dtype=float)
        assert_same_bits(_quartiles(arr), np.percentile(arr, [25, 50, 75]))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 1001, 20_000])
    def test_bit_identical_on_large_samples(self, n):
        rng = np.random.default_rng(n)
        arr = rng.lognormal(-12.0, 2.0, size=n)
        assert_same_bits(_quartiles(arr), np.percentile(arr, [25, 50, 75]))


class TestProfiles:
    def _trace(self):
        t = Trace(name="app")
        for i in range(20):
            t.append(kernel("big", i * 1.0, i * 1.0 + 0.5))
        for i in range(20):
            t.append(kernel("small", i * 1.0 + 0.6, i * 1.0 + 0.61))
        for i in range(10):
            t.append(memcpy(1024 * (i + 1), i * 1.0 + 0.7, i * 1.0 + 0.8))
            t.append(memcpy(512, i * 1.0 + 0.85, i * 1.0 + 0.9, CopyKind.D2H))
        return t

    def test_kernel_profile_top_n_plus_total(self):
        profile = kernel_duration_profile(self._trace(), top_n=1)
        assert profile.labels() == ["big", "Total"]
        assert profile["Total"].count == 40

    def test_kernel_profile_ordering_by_total_time(self):
        profile = kernel_duration_profile(self._trace(), top_n=2)
        assert profile.labels()[0] == "big"

    def test_kernel_profile_empty_rejected(self):
        with pytest.raises(ValueError):
            kernel_duration_profile(Trace())

    def test_missing_label_raises(self):
        profile = kernel_duration_profile(self._trace(), top_n=1)
        with pytest.raises(KeyError):
            profile["nonexistent"]

    def test_memcpy_profile_directions(self):
        profile = memcpy_size_profile(self._trace())
        assert "HtoD" in profile.labels()
        assert "DtoH" in profile.labels()
        assert profile["Total"].count == 20

    def test_memcpy_profile_empty_rejected(self):
        with pytest.raises(ValueError):
            memcpy_size_profile(Trace())


class TestLaunchParallelism:
    def test_serial_trace(self):
        t = Trace()
        t.append(kernel("a", 0.0, 1.0))
        t.append(kernel("b", 1.5, 2.0))
        assert launch_parallelism(t) == 1

    def test_parallel_trace(self):
        t = Trace()
        for s in range(8):
            t.append(kernel(f"k{s}", 0.0, 1.0, stream=s))
        assert launch_parallelism(t) == 8
        # The paper's pessimistic reading halves the apparent queue depth.
        assert launch_parallelism(t, pessimistic=True) == 4

    def test_empty(self):
        assert launch_parallelism(Trace()) == 0


class TestTracer:
    def test_records_when_enabled(self):
        env = Environment()
        tracer = Tracer(env, name="t")
        tracer.record(EventKind.KERNEL, "k", 0.0, 1.0)
        assert len(tracer.trace) == 1

    def test_disabled_records_nothing(self):
        env = Environment()
        tracer = Tracer(env)
        tracer.enabled = False
        assert tracer.record(EventKind.KERNEL, "k", 0.0, 1.0) is None
        assert len(tracer.trace) == 0

    def test_correlation_ids_unique(self):
        env = Environment()
        tracer = Tracer(env)
        ids = {tracer.next_correlation_id() for _ in range(100)}
        assert len(ids) == 100

    def test_interval_context_manager(self):
        env = Environment()
        tracer = Tracer(env)

        def proc(env):
            with tracer.interval(EventKind.API, "call"):
                yield env.timeout(2.5)

        env.process(proc(env))
        env.run()
        evt = tracer.trace[0]
        assert evt.duration == pytest.approx(2.5)


class TestExport:
    def _trace(self):
        t = Trace(name="exp")
        t.append(kernel("k1", 0.0, 1.0))
        t.append(memcpy(4096, 1.0, 2.0))
        t.append(TraceEvent(EventKind.SLACK, "slack:x", 2.0, 2.1,
                            meta={"api": "x"}))
        return t

    def test_json_roundtrip(self, tmp_path):
        path = tmp_path / "trace.json"
        original = self._trace()
        to_json(original, path)
        loaded = from_json(path)
        assert loaded.name == "exp"
        assert len(loaded) == len(original)
        assert list(loaded) == list(original)

    def test_csv_roundtrip(self, tmp_path):
        path = tmp_path / "trace.csv"
        original = self._trace()
        to_csv(original, path)
        loaded = from_csv(path)
        assert len(loaded) == len(original)
        for a, b in zip(loaded, original):
            assert a.name == b.name
            assert a.kind == b.kind
            assert a.nbytes == b.nbytes
            assert a.start == pytest.approx(b.start)
