"""Publishing columnar-store accounting into the metrics registry."""

from repro.obs import collecting, get_registry, publish_trace_store
from repro.trace import EventKind, Trace


def make_trace(n=10):
    trace = Trace(name="t")
    for i in range(n):
        trace.record_fast(EventKind.KERNEL, "k", i * 1e-3, i * 1e-3 + 1e-4)
    return trace


def test_counters_accumulate_and_peak_is_high_water():
    small, big = make_trace(4), make_trace(64)
    with collecting() as reg:
        publish_trace_store(big)
        peak_after_big = reg.gauge("trace.store.peak_bytes").value
        publish_trace_store(small)
        assert reg.counter("trace.store.events").value == 68
        assert (
            reg.counter("trace.store.bytes").value
            == small.store.stats()["bytes"] + big.store.stats()["bytes"]
        )
        # The gauge keeps the largest single footprint, not the last.
        assert reg.gauge("trace.store.peak_bytes").value == peak_after_big
        assert peak_after_big == big.store.stats()["bytes"]


def test_noop_when_metrics_disabled():
    # Default state: the null registry — must not raise or record.
    assert not get_registry().enabled
    publish_trace_store(make_trace(3))


def test_explicit_registry_wins():
    with collecting() as outer:
        inner_trace = make_trace(5)
        with collecting() as inner:
            publish_trace_store(inner_trace, registry=inner)
        assert inner.counter("trace.store.events").value == 5
        assert "trace.store.events" not in outer.names()
