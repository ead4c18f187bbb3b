"""Columnar/scalar parity: the store must be invisible to analysis.

Hypothesis-style seeded property tests: random event streams (ties,
zero-duration events, mixed kinds, shared names, metas) are recorded
into both the list-backed oracle :class:`ScalarTrace`
(``tests/oracles/trace.py``) and the columnar :class:`Trace`,
and every public behavior — materialized event sequences, filtered
views, vectorized summaries, timeline analysis, JSON round-trips —
must match **bit for bit**.
"""

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace import (
    CopyKind,
    EventKind,
    Trace,
    TraceEvent,
    device_gaps,
    utilization_series,
)
from repro.trace.store import ColumnStore

from ..oracles.trace import (
    ScalarTrace,
    device_gaps_reference,
    events_in_record_order,
    utilization_series_reference,
)

SEEDS = [0, 1, 7, 42, 1234, 987654]

NAMES = ["matmul", "memcpyH2D", "memcpyD2H", "sync", "fft", "reduce"]


def random_events(seed, n=None):
    """A reproducible stream of messy-but-valid trace events."""
    rng = np.random.RandomState(seed)
    n = int(rng.randint(1, 400)) if n is None else n
    events = []
    for _ in range(n):
        kind = EventKind(
            rng.choice([k.value for k in EventKind], p=[0.4, 0.2, 0.2, 0.1, 0.1])
        )
        # Coarse grid of starts => plenty of exact ties for the
        # stable-sort parity; occasional zero-duration events.
        start = float(rng.randint(0, 50)) * 1e-4
        duration = float(rng.choice([0.0, 1e-5, 3e-4, 2e-3]))
        copy_kind = None
        nbytes = 0
        name = str(rng.choice(NAMES))
        meta = {}
        if kind is EventKind.MEMCPY:
            copy_kind = list(CopyKind)[int(rng.randint(0, 3))]
            nbytes = int(rng.randint(1, 1 << 20))
        elif kind is EventKind.KERNEL:
            meta = {"starvation_cost": float(rng.rand()), "n": int(rng.randint(1, 9))}
        events.append(
            TraceEvent(
                kind=kind,
                name=name,
                start=start,
                end=start + duration,
                stream=None if rng.rand() < 0.3 else int(rng.randint(0, 4)),
                nbytes=nbytes,
                copy_kind=copy_kind,
                correlation_id=int(rng.randint(0, 1000)),
                thread=int(rng.randint(0, 8)),
                meta=meta,
            )
        )
    return events


def build_both(events):
    scalar = ScalarTrace(name="t")
    columnar = Trace(name="t")
    for e in events:
        scalar.append(e)
        columnar.append(e)
    return scalar, columnar


class TestMaterializationParity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_sorted_sequence_bit_identical(self, seed):
        events = random_events(seed)
        scalar, columnar = build_both(events)
        assert list(columnar) == list(scalar)
        assert len(columnar) == len(scalar)
        assert columnar[0] == scalar[0]
        assert columnar[len(events) - 1] == scalar[len(events) - 1]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_record_order_preserved(self, seed):
        events = random_events(seed)
        _, columnar = build_both(events)
        assert events_in_record_order(columnar) == events

    def test_iteration_is_cached_until_append(self):
        events = random_events(3, n=20)
        _, columnar = build_both(events)
        first = list(columnar)
        assert list(columnar) == first
        columnar.append(events[0])
        assert len(list(columnar)) == 21


class TestSummaryParity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_scalar_summaries_exact(self, seed):
        events = random_events(seed)
        scalar, columnar = build_both(events)
        assert columnar.start == scalar.start
        assert columnar.end == scalar.end
        assert columnar.span == scalar.span
        assert columnar.total_time() == scalar.total_time()
        assert columnar.busy_time() == scalar.busy_time()
        assert columnar.max_concurrency() == scalar.max_concurrency()
        assert columnar.threads() == scalar.threads()
        assert columnar.runtime_fraction() == scalar.runtime_fraction()
        assert (columnar.durations() == scalar.durations()).all()
        assert (columnar.sizes() == scalar.sizes()).all()
        assert (columnar.starts() == scalar.starts()).all()
        assert (columnar.ends() == scalar.ends()).all()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_view_parity(self, seed):
        events = random_events(seed)
        scalar, columnar = build_both(events)
        assert list(columnar.kernels()) == list(scalar.kernels())
        assert list(columnar.memcpys()) == list(scalar.memcpys())
        for d in CopyKind:
            assert list(columnar.memcpys(d)) == list(scalar.memcpys(d))
        assert columnar.count_kind(EventKind.API) == scalar.count_kind(
            EventKind.API
        )
        assert list(
            columnar.of_kinds(EventKind.KERNEL, EventKind.MEMCPY)
        ) == list(scalar.of_kinds(EventKind.KERNEL, EventKind.MEMCPY))
        cg, sg = columnar.by_name(), scalar.by_name()
        assert list(cg) == list(sg)  # same names, same first-seen order
        for name in sg:
            assert list(cg[name]) == list(sg[name])
            assert cg[name].busy_time() == sg[name].busy_time()
        assert columnar.top_names_by_total_time(
            3
        ) == scalar.top_names_by_total_time(3)

    def test_empty_trace(self):
        columnar = Trace(name="empty")
        assert len(columnar) == 0
        assert columnar.start == 0.0 and columnar.end == 0.0
        assert columnar.total_time() == 0.0
        assert columnar.busy_time() == 0.0
        assert columnar.max_concurrency() == 0
        assert columnar.threads() == []
        assert list(columnar) == []
        assert columnar.by_name() == {}


class TestTimelineParity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_device_gaps_exact(self, seed):
        events = random_events(seed)
        scalar, columnar = build_both(events)
        if len(scalar.of_kinds(EventKind.KERNEL, EventKind.MEMCPY)) == 0:
            pytest.skip("no device activity in this stream")
        for min_gap in (0.0, 1e-5):
            ref = device_gaps_reference(scalar, min_gap)
            for trace in (columnar, scalar):
                got = device_gaps(trace, min_gap)
                assert got.gaps == ref.gaps
                assert got.busy_time == ref.busy_time
                assert got.span == ref.span

    @pytest.mark.parametrize("seed", SEEDS)
    def test_utilization_series_exact(self, seed):
        events = random_events(seed)
        scalar, columnar = build_both(events)
        if len(scalar.of_kinds(EventKind.KERNEL, EventKind.MEMCPY)) == 0:
            pytest.skip("no device activity in this stream")
        for window in (1e-4, 7e-4):
            rc, rb = utilization_series_reference(scalar, window)
            for trace in (columnar, scalar):
                c, b = utilization_series(trace, window)
                assert (c == rc).all()
                assert (b == rb).all()


class TestValidationAndStore:
    def test_record_fast_validates_like_traceevent(self):
        columnar = Trace()
        with pytest.raises(ValueError, match="before it starts"):
            columnar.record_fast(EventKind.KERNEL, "k", 1.0, 0.5)
        with pytest.raises(ValueError, match="nbytes"):
            columnar.record_fast(EventKind.KERNEL, "k", 0.0, 1.0, nbytes=-1)
        with pytest.raises(ValueError, match="copy_kind"):
            columnar.record_fast(EventKind.MEMCPY, "m", 0.0, 1.0, nbytes=4)
        assert len(columnar) == 0

    def test_views_are_read_only(self):
        events = random_events(5, n=10)
        _, columnar = build_both(events)
        view = columnar.kernels()
        with pytest.raises(TypeError, match="filtered trace view"):
            view.record_fast(EventKind.KERNEL, "k", 0.0, 1.0)
        with pytest.raises(TypeError, match="root trace"):
            view.to_doc()

    def test_geometric_growth_accounting(self):
        store = ColumnStore(capacity=4)
        trace = Trace(store=store)
        for i in range(33):
            trace.record_fast(EventKind.API, "call", float(i), float(i))
        stats = store.stats()
        assert stats["events"] == 33
        assert stats["growths"] == 4  # 4 -> 8 -> 16 -> 32 -> 64
        assert store.capacity == 64
        assert stats["interned_names"] == 1
        assert stats["bytes"] == store.nbytes_allocated > 0

    def test_store_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            ColumnStore(capacity=0)

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_json_doc_round_trip_bit_exact(self, seed):
        events = random_events(seed)
        _, columnar = build_both(events)
        doc = json.loads(json.dumps(columnar.to_doc()))
        again = Trace.from_doc(doc)
        assert again.name == columnar.name
        assert list(again) == list(columnar)
        assert events_in_record_order(again) == (
            events_in_record_order(columnar)
        )
        assert again.busy_time() == columnar.busy_time()


class TestBulkAppend:
    """record_batch must be indistinguishable from a record_fast loop."""

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_batch_equals_scalar_loop(self, seed):
        rng = np.random.RandomState(seed)
        n = 200
        names = [str(rng.choice(NAMES)) for _ in range(n)]
        start = rng.randint(0, 50, size=n).astype(np.float64) * 1e-4
        end = start + rng.choice([0.0, 1e-5, 3e-4], size=n)
        stream = rng.randint(0, 4, size=n)
        nbytes = rng.randint(0, 1 << 20, size=n)
        thread = rng.randint(0, 8, size=n)

        looped = Trace(name="t")
        for i in range(n):
            looped.record_fast(
                EventKind.KERNEL, names[i], float(start[i]), float(end[i]),
                stream=int(stream[i]), nbytes=int(nbytes[i]),
                thread=int(thread[i]),
            )
        batched = Trace(name="t")
        batched.record_batch(
            EventKind.KERNEL, names, start, end,
            stream=stream, nbytes=nbytes, thread=thread,
        )
        assert list(batched) == list(looped)
        assert events_in_record_order(batched) == (
            events_in_record_order(looped)
        )
        assert batched.store.stats()["interned_names"] == (
            looped.store.stats()["interned_names"]
        )

    def test_shared_name_and_defaults(self):
        trace = Trace(name="t")
        trace.record_batch(
            EventKind.API, "call", np.array([0.0, 1.0]), np.array([0.5, 2.0])
        )
        events = events_in_record_order(trace)
        assert [e.name for e in events] == ["call", "call"]
        assert all(e.stream is None for e in events)
        assert all(e.nbytes == 0 and e.thread == 0 for e in events)
        assert trace.store.stats()["interned_names"] == 1

    def test_batch_memcpy_needs_copy_kind(self):
        trace = Trace(name="t")
        with pytest.raises(ValueError, match="copy_kind"):
            trace.record_batch(
                EventKind.MEMCPY, "cp", np.array([0.0]), np.array([1.0])
            )
        trace.record_batch(
            EventKind.MEMCPY, "cp", np.array([0.0]), np.array([1.0]),
            nbytes=np.array([64]), copy_kind=CopyKind.H2D,
        )
        assert events_in_record_order(trace)[0].copy_kind is CopyKind.H2D

    def test_batch_validation_reports_first_offender(self):
        trace = Trace(name="t")
        with pytest.raises(ValueError, match="'b' ends"):
            trace.record_batch(
                EventKind.KERNEL, ["a", "b", "c"],
                np.array([0.0, 5.0, 1.0]), np.array([1.0, 4.0, 0.5]),
            )
        with pytest.raises(ValueError, match="align"):
            trace.record_batch(
                EventKind.KERNEL, ["a", "b"],
                np.array([0.0]), np.array([1.0, 2.0]),
            )
        with pytest.raises(ValueError, match="nbytes"):
            trace.record_batch(
                EventKind.KERNEL, "k", np.array([0.0]), np.array([1.0]),
                nbytes=np.array([-1]),
            )

    def test_views_reject_bulk_recording(self):
        trace = Trace(name="t")
        trace.record_batch(
            EventKind.KERNEL, "k", np.array([0.0]), np.array([1.0])
        )
        with pytest.raises(TypeError):
            trace.kernels().record_batch(
                EventKind.KERNEL, "k", np.array([0.0]), np.array([1.0])
            )

    def test_single_grow_for_large_batch(self):
        store = ColumnStore(capacity=4)
        trace = Trace(store=store)
        trace.record_batch(
            EventKind.KERNEL, "k",
            np.arange(1000, dtype=np.float64),
            np.arange(1000, dtype=np.float64) + 0.5,
        )
        assert store.stats()["events"] == 1000
        assert store.stats()["growths"] == 1  # one doubling sweep
        assert store.capacity == 1024


#: Meta values of every type the array encoding distinguishes: ints
#: (beyond int64 too), floats (nan, inf and -0.0 too), strings, and the
#: bools and None that must not pass for numbers.
_META_VALUES = st.one_of(
    st.integers(), st.floats(), st.text(max_size=4), st.booleans(), st.none()
)

_ROWS = st.lists(
    st.tuples(
        st.sampled_from(list(EventKind)),
        st.sampled_from(NAMES),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1e-2),
        st.one_of(st.none(), st.integers(0, 7)),
        st.sampled_from(list(CopyKind)),
        st.integers(0, 1 << 40),
        st.dictionaries(
            st.sampled_from(["cost", "layer", "n", "api", "x"]),
            _META_VALUES,
            max_size=4,
        ),
    ),
    max_size=40,
)


class TestArrayRoundTrip:
    """to_arrays -> np.savez -> np.load -> from_arrays is invisible."""

    @staticmethod
    def _round_trip(store):
        arrays, header = store.to_arrays()
        buffer = io.BytesIO()
        np.savez(buffer, **arrays)
        buffer.seek(0)
        with np.load(buffer, allow_pickle=False) as entry:
            loaded = {name: entry[name] for name in entry.files}
        return ColumnStore.from_arrays(loaded, json.loads(json.dumps(header)))

    @settings(max_examples=150, deadline=None)
    @given(_ROWS)
    def test_to_doc_survives_the_array_round_trip(self, rows):
        trace = Trace(name="t")
        for kind, name, start, duration, stream, copy, nbytes, meta in rows:
            trace.record_fast(
                kind, name, start, start + duration, stream=stream,
                nbytes=nbytes,
                copy_kind=copy if kind is EventKind.MEMCPY else None,
                meta=meta,
            )
        before = trace.store.to_doc()
        after = self._round_trip(trace.store).to_doc()
        # repr tells int from float, -0.0 from 0.0 and keeps key order.
        assert repr(after) == repr(before)

    def test_empty_store(self):
        again = self._round_trip(ColumnStore())
        assert again.n == 0 and again.to_doc() == ColumnStore().to_doc()

    def test_root_trace_round_trip_keeps_its_name(self):
        _, columnar = build_both(random_events(3))
        arrays, header = columnar.to_arrays()
        again = Trace.from_arrays(arrays, header)
        assert again.name == columnar.name
        assert events_in_record_order(again) == (
            events_in_record_order(columnar)
        )
        with pytest.raises(TypeError, match="root trace"):
            columnar.kernels().to_arrays()

    def test_misaligned_meta_columns_are_rejected(self):
        _, columnar = build_both(random_events(3))
        arrays, header = columnar.store.to_arrays()
        short = dict(arrays, meta_0=arrays["meta_0"][:-1])
        with pytest.raises(ValueError, match="meta column"):
            ColumnStore.from_arrays(short, header)
        with pytest.raises(ValueError, match="does not hold"):
            ColumnStore.from_arrays(dict(arrays, end=arrays["end"][:1]), header)
