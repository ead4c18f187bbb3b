"""Unit tests for trace events and the Trace container."""

import pytest

from repro.trace import CopyKind, EventKind, Trace, TraceEvent


def kernel(name, start, end, thread=0, stream=0):
    return TraceEvent(EventKind.KERNEL, name, start, end, thread=thread,
                      stream=stream)


def memcpy(nbytes, start, end, kind=CopyKind.H2D):
    return TraceEvent(EventKind.MEMCPY, f"memcpy{kind.value}", start, end,
                      nbytes=nbytes, copy_kind=kind)


class TestTraceEvent:
    def test_duration(self):
        e = kernel("k", 1.0, 3.5)
        assert e.duration == 2.5

    def test_end_before_start_rejected(self):
        with pytest.raises(ValueError):
            kernel("k", 5.0, 1.0)

    def test_memcpy_requires_direction(self):
        with pytest.raises(ValueError):
            TraceEvent(EventKind.MEMCPY, "m", 0.0, 1.0, nbytes=10)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            TraceEvent(EventKind.KERNEL, "k", 0.0, 1.0, nbytes=-1)

    def test_overlaps(self):
        a = kernel("a", 0.0, 2.0)
        b = kernel("b", 1.0, 3.0)
        c = kernel("c", 2.0, 4.0)
        assert a.overlaps(b)
        assert not a.overlaps(c)  # touching, not overlapping

    def test_dict_roundtrip(self):
        e = memcpy(1024, 0.5, 1.5, CopyKind.D2H)
        e2 = TraceEvent.from_dict(e.to_dict())
        assert e2 == e


class TestTrace:
    def _sample(self):
        t = Trace(name="sample")
        t.append(kernel("gemm", 0.0, 1.0))
        t.append(memcpy(100, 1.0, 2.0))
        t.append(kernel("gemm", 2.0, 4.0))
        t.append(memcpy(200, 4.0, 5.0, CopyKind.D2H))
        t.append(kernel("reduce", 5.0, 5.5))
        return t

    def test_len_and_iteration_sorted(self):
        t = Trace()
        t.append(kernel("b", 5.0, 6.0))
        t.append(kernel("a", 0.0, 1.0))
        assert len(t) == 2
        assert [e.name for e in t] == ["a", "b"]
        assert t[0].name == "a"

    def test_kernels_and_memcpys_filters(self):
        t = self._sample()
        assert len(t.kernels()) == 3
        assert len(t.memcpys()) == 2
        assert len(t.memcpys(CopyKind.H2D)) == 1
        assert len(t.memcpys(CopyKind.D2H)) == 1

    def test_by_name_grouping(self):
        t = self._sample()
        groups = t.kernels().by_name()
        assert set(groups) == {"gemm", "reduce"}
        assert len(groups["gemm"]) == 2

    def test_span(self):
        t = self._sample()
        assert t.start == 0.0
        assert t.end == 5.5
        assert t.span == 5.5

    def test_empty_trace(self):
        t = Trace()
        assert t.span == 0.0
        assert t.total_time() == 0.0
        assert t.busy_time() == 0.0
        assert t.max_concurrency() == 0

    def test_durations_and_sizes(self):
        t = self._sample()
        assert t.kernels().durations().sum() == pytest.approx(3.5)
        assert t.memcpys().sizes().sum() == 300

    def test_busy_time_merges_overlap(self):
        t = Trace()
        t.append(kernel("a", 0.0, 2.0))
        t.append(kernel("b", 1.0, 3.0))  # overlaps a
        t.append(kernel("c", 5.0, 6.0))  # gap then isolated
        assert t.total_time() == pytest.approx(5.0)
        assert t.busy_time() == pytest.approx(4.0)

    def test_runtime_fraction(self):
        t = self._sample()
        # kernels busy 3.5 of span 5.5
        assert t.kernels().runtime_fraction(t.span) == pytest.approx(3.5 / 5.5)
        # with an explicit total runtime
        assert t.kernels().runtime_fraction(10.0) == pytest.approx(0.35)
        assert Trace().runtime_fraction(10.0) == 0.0

    def test_top_names_by_total_time(self):
        t = self._sample()
        top = t.kernels().top_names_by_total_time(1)
        assert top == ["gemm"]  # 3.0 s total vs reduce's 0.5 s

    def test_max_concurrency(self):
        t = Trace()
        t.append(kernel("a", 0.0, 4.0, stream=0))
        t.append(kernel("b", 1.0, 3.0, stream=1))
        t.append(kernel("c", 2.0, 5.0, stream=2))
        assert t.max_concurrency() == 3

    def test_max_concurrency_touching_intervals(self):
        t = Trace()
        t.append(kernel("a", 0.0, 1.0))
        t.append(kernel("b", 1.0, 2.0))
        assert t.max_concurrency() == 1

    def test_threads(self):
        t = Trace()
        t.append(kernel("a", 0.0, 1.0, thread=3))
        t.append(kernel("b", 1.0, 2.0, thread=1))
        assert t.threads() == [1, 3]

    def test_kind_and_name_views(self):
        t = self._sample()
        copies = t.of_kinds(EventKind.MEMCPY)
        assert [e.nbytes for e in copies] == [100, 200]
        both = t.of_kinds(EventKind.KERNEL, EventKind.MEMCPY)
        assert len(both) == 5 and len(t.of_kinds(EventKind.API)) == 0
        gemm = t.by_name()["gemm"]
        assert [e.start for e in gemm] == [0.0, 2.0]
        assert gemm.total_time() == 3.0
