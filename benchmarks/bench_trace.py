"""Benchmark: the columnar trace store and vectorized model pipeline.

Three legs, all asserting bit-exact parity with the scalar reference
implementations in ``tests/oracles/`` before reporting a speedup:

* **record** — event recording throughput, columnar ``Tracer`` path
  vs. appending ``TraceEvent`` objects to the list-backed
  ``ScalarTrace`` (``tests/oracles/trace.py``).
* **analysis** — the Figure 4/5 trace-analysis functions (duration
  profile, memcpy profile, gaps, utilization) on a real traced LAMMPS
  profile, columnar vs. a ``ScalarTrace`` copy of the same events
  (gaps and utilization through the oracle's loop forms).
* **table4** — the full bin → Equation 3 → Equation 2 slack-grid
  prediction for both applications, vectorized ``predict_sweep`` on
  columnar traces vs. ``predict_sweep_reference`` (``tests/oracles/model.py``)
  on ``ScalarTrace`` copies. This is the Table IV path and must show
  at least a 5x speedup.
* **profilecache** — put/get of the quick LAMMPS and CosmoFlow
  profiles through :class:`repro.apps.AppProfileCache` (one ``.npz``
  per entry), after asserting the loaded profiles' canonical
  ``_profile_doc`` equals the originals'. Records put/get ms and entry
  bytes next to the same profiles' canonical JSON document (the former
  on-disk format); no floor.

Results land in ``BENCH_trace.json`` at the repo root, next to
``BENCH_sweep.json`` (see docs/performance.md for methodology).
"""

import dataclasses
import json
import os
import platform
import time
from pathlib import Path

import pytest

from repro.apps import AppProfileCache
from repro.apps.profilecache import _profile_doc
from repro.model import CDIProfiler
from repro.proxy import PAPER_SLACK_VALUES_S
from repro.trace import (
    EventKind,
    Trace,
    TraceEvent,
    Tracer,
    device_gaps,
    kernel_duration_profile,
    memcpy_size_profile,
    utilization_series,
)
from repro.des import Environment
from tests.oracles.model import predict_sweep_reference
from tests.oracles.trace import (
    ScalarTrace,
    device_gaps_reference,
    utilization_series_reference,
)

#: Where the perf artifact lands (repo root, next to BENCH_sweep.json).
TRACE_ARTIFACT = Path(__file__).resolve().parents[1] / "BENCH_trace.json"

#: Minimum acceptable vectorized-vs-scalar speedup on the table4 path.
TABLE4_SPEEDUP_FLOOR = 5.0

#: Sections accumulated by the tests and flushed at module teardown.
_SECTIONS = {}


@pytest.fixture(scope="module", autouse=True)
def _write_artifact():
    yield
    if not _SECTIONS:
        return
    doc = {
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }
    doc.update(_SECTIONS)
    TRACE_ARTIFACT.write_text(json.dumps(doc, indent=1, sort_keys=True))


def _best_of(fn, repeats=3):
    """Best wall time of ``repeats`` runs (and the last return value)."""
    best = float("inf")
    value = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - t0)
    return best, value


def _scalar_copy(profile):
    """The same profile with its trace as a list-backed ``ScalarTrace``."""
    return dataclasses.replace(
        profile,
        trace=ScalarTrace(list(profile.trace), name=profile.trace.name),
    )


def test_bench_record_throughput():
    n = 50_000

    def record_columnar():
        tracer = Tracer(Environment(), name="bench")
        for i in range(n):
            tracer.record(
                EventKind.KERNEL, "k%d" % (i % 7), i * 1e-6, i * 1e-6 + 5e-7,
                stream=i % 4, thread=i % 8,
            )
        return tracer.trace

    def record_scalar():
        trace = ScalarTrace(name="bench")
        for i in range(n):
            trace.append(
                TraceEvent(
                    kind=EventKind.KERNEL, name="k%d" % (i % 7),
                    start=i * 1e-6, end=i * 1e-6 + 5e-7,
                    stream=i % 4, thread=i % 8,
                )
            )
        return trace

    col_s, columnar = _best_of(record_columnar)
    sca_s, scalar = _best_of(record_scalar)
    # The compatibility view must materialize the identical sequence.
    assert list(columnar) == list(scalar)
    _SECTIONS["record"] = {
        "events": n,
        "columnar_s": col_s,
        "scalar_s": sca_s,
        "columnar_events_per_sec": n / col_s,
        "scalar_events_per_sec": n / sca_s,
        "speedup": sca_s / col_s,
        "store": columnar.store.stats(),
    }


def test_bench_trace_analysis(ctx):
    profile = ctx.lammps_profile()
    scalar = _scalar_copy(profile)
    window = profile.runtime_s / 64

    def analyze(trace):
        return (
            kernel_duration_profile(trace, title="bench"),
            memcpy_size_profile(trace, title="bench"),
            trace.kernels().busy_time(),
            trace.memcpys().busy_time(),
            device_gaps(trace),
        )

    col_s, col_res = _best_of(lambda: analyze(profile.trace))
    sca_s, sca_res = _best_of(
        lambda: (
            kernel_duration_profile(scalar.trace, title="bench"),
            memcpy_size_profile(scalar.trace, title="bench"),
            scalar.trace.kernels().busy_time(),
            scalar.trace.memcpys().busy_time(),
            device_gaps_reference(scalar.trace),
        )
    )
    assert col_res == sca_res
    cu = utilization_series(profile.trace, window)
    su = utilization_series_reference(scalar.trace, window)
    assert (cu[0] == su[0]).all() and (cu[1] == su[1]).all()
    _SECTIONS["analysis"] = {
        "events": len(profile.trace),
        "columnar_s": col_s,
        "scalar_s": sca_s,
        "speedup": sca_s / col_s,
    }


def test_bench_table4_pipeline(ctx):
    profiler = CDIProfiler(ctx.surface())
    profiles = ctx.profiles()
    scalars = [_scalar_copy(p) for p in profiles]

    vec_s, vec_out = _best_of(
        lambda: [
            profiler.predict_sweep(p, PAPER_SLACK_VALUES_S) for p in profiles
        ]
    )
    ref_s, ref_out = _best_of(
        lambda: [
            predict_sweep_reference(profiler, p, PAPER_SLACK_VALUES_S)
            for p in scalars
        ]
    )
    # Bit-exact parity: every SlackPrediction field, every slack, both
    # apps — the vectorized pipeline is a pure reimplementation.
    for vec, ref in zip(vec_out, ref_out):
        assert vec == ref
    speedup = ref_s / vec_s
    _SECTIONS["table4"] = {
        "slack_values": len(PAPER_SLACK_VALUES_S),
        "apps": [p.name for p in profiles],
        "events": [len(p.trace) for p in profiles],
        "vectorized_s": vec_s,
        "scalar_reference_s": ref_s,
        "speedup": speedup,
        "speedup_floor": TABLE4_SPEEDUP_FLOOR,
    }
    assert speedup >= TABLE4_SPEEDUP_FLOOR, (
        f"table4 pipeline speedup {speedup:.1f}x below the "
        f"{TABLE4_SPEEDUP_FLOOR:.0f}x floor"
    )


def test_bench_profilecache(ctx, tmp_path):
    profiles = {name: ctx.app_profile(name) for name in ("lammps", "cosmoflow")}
    configs = {name: ctx.app_config(name) for name in profiles}
    cache = AppProfileCache(tmp_path / "profiles")
    # Parity first: every loaded profile is the stored one.
    for name, profile in profiles.items():
        cache.put(name, configs[name], profile)
        loaded = cache.get(name, configs[name])
        assert json.dumps(_profile_doc(loaded)) == json.dumps(
            _profile_doc(profile)
        )

    put_s, _ = _best_of(
        lambda: [cache.put(n, configs[n], p) for n, p in profiles.items()], 5
    )
    get_s, _ = _best_of(
        lambda: [cache.get(n, configs[n]) for n in profiles], 5
    )
    docs = {n: json.dumps(_profile_doc(p)) for n, p in profiles.items()}
    json_put_s, _ = _best_of(
        lambda: [json.dumps(_profile_doc(p)) for p in profiles.values()], 5
    )
    json_get_s, _ = _best_of(
        lambda: [
            Trace.from_doc(json.loads(d)["trace"])
            for d in docs.values()
        ],
        5,
    )
    _SECTIONS["profilecache"] = {
        "apps": list(profiles),
        "events": [len(p.trace) for p in profiles.values()],
        "put_ms": put_s * 1e3,
        "get_ms": get_s * 1e3,
        "entry_bytes": {
            n: cache.path_for(n, configs[n]).stat().st_size for n in profiles
        },
        "json_reference": {
            "encode_ms": json_put_s * 1e3,
            "decode_ms": json_get_s * 1e3,
            "doc_bytes": {n: len(d) for n, d in docs.items()},
        },
    }
