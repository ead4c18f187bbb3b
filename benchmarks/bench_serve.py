"""Benchmark: penalty serving — parity first, then throughput.

Four legs, mirroring the serving layer's contract
(:mod:`repro.serve`, docs/serving.md):

* **parity** — the surrogate must agree with
  :class:`~repro.proxy.SlackResponseSurface` *exactly* (and report
  bound 0) at every measured grid point before any speedup or
  throughput number is recorded. No parity, no benchmark.
* **warm path** — single-process prediction throughput, measured
  three ways: the raw vectorized
  :meth:`~repro.serve.SurrogateModel.evaluate`, the micro-batching
  :class:`~repro.serve.PenaltyService` with array-batch clients
  (:meth:`~repro.serve.PenaltyService.predict_batch`), and the
  per-request future path. The service floors are ``WARM_FLOOR``
  (100k predictions/s) on the first two; the per-request path is
  recorded without a floor (it measures asyncio future overhead, not
  the evaluation engine).
* **closed loop** — ``CLOSED_CLIENTS`` client coroutines, each
  awaiting :meth:`~repro.serve.PenaltyService.predict` before sending
  its next query, the way schedulers call the service. Every answer
  is checked against the raw ``evaluate`` before the per-request
  latency (median, p99) and rate are recorded; no floor.
* **cold path** — one out-of-domain query falls back to a real DES
  measurement, refines the surrogate online, and the same query is
  then answered warm.

Results land in ``BENCH_serve.json`` at the repo root, next to
``BENCH_sweep.json`` and friends.
"""

import asyncio
import json
import os
import platform
import time
from pathlib import Path

import numpy as np
import pytest

from repro.proxy import SlackResponseSurface, SweepOptions, run_slack_sweep
from repro.serve import (
    ColdPathConfig,
    PenaltyService,
    SurrogateModel,
    assert_parity,
)

#: Where the perf artifact lands (repo root, next to BENCH_sweep.json).
SERVE_ARTIFACT = Path(__file__).resolve().parents[1] / "BENCH_serve.json"

#: Minimum warm-path predictions/s — the serving layer's whole point.
WARM_FLOOR = 100_000

#: Fitting grid: three sizes x three thread counts x nine slacks.
SIZES = (2**9, 2**11, 2**13)
THREADS = (1, 2, 4)
SLACKS = tuple(np.logspace(-6, -3, 9))

#: Warm-path query count (in-domain, mixed series).
N_QUERIES = 200_000

#: Concurrent closed-loop clients (one outstanding query each).
CLOSED_CLIENTS = 64

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
        "warm_floor_per_s": WARM_FLOOR,
    }
    doc.update(_SECTIONS)
    SERVE_ARTIFACT.write_text(json.dumps(doc, indent=1, sort_keys=True))


@pytest.fixture(scope="module")
def fitted():
    """One sweep, its surface, and the surrogate fitted over it."""
    sweep = run_slack_sweep(
        matrix_sizes=SIZES,
        slack_values_s=list(SLACKS),
        threads=THREADS,
        iterations=25,
    )
    surface = SlackResponseSurface(sweep)
    model = SurrogateModel.fit(sweep)
    return sweep, surface, model


@pytest.fixture(scope="module")
def queries():
    """Deterministic in-domain query batch across all series."""
    rng = np.random.default_rng(42)
    sizes = rng.choice(SIZES, N_QUERIES)
    threads = rng.choice(THREADS, N_QUERIES)
    slacks = 10 ** rng.uniform(-6, -3, N_QUERIES)
    return sizes, threads, slacks


def test_bench_serve_parity(fitted):
    """Surrogate == surface at every measured point. Runs first."""
    _, surface, model = fitted
    checked = assert_parity(model, surface)
    assert checked >= len(SIZES) * len(THREADS) * len(SLACKS)
    # Interpolated (off-grid) queries match the surface's own rule too.
    rng = np.random.default_rng(7)
    for _ in range(200):
        size = int(rng.choice(SIZES))
        thr = int(rng.choice(THREADS))
        slack = float(10 ** rng.uniform(-6.5, -3.0))
        expected = surface.penalty(size, slack, thr)
        got = model.predict(size, slack, thr)
        assert got.penalty == pytest.approx(expected, abs=1e-12)
        assert got.bound >= 0.0
    _SECTIONS["parity"] = {"measured_points_checked": checked}


def test_bench_serve_warm_throughput(fitted, queries):
    """Raw and service warm-path throughput against the 100k/s floor."""
    assert "parity" in _SECTIONS, "parity must pass before throughput"
    _, _, model = fitted
    sizes, threads, slacks = queries

    # Leg 1: the raw vectorized evaluation engine.
    t0 = time.perf_counter()
    pen, bound, reason = model.evaluate(sizes, threads, slacks)
    raw_s = time.perf_counter() - t0
    assert (reason == 0).all() and np.isfinite(pen).all()
    raw_rate = N_QUERIES / raw_s

    # Leg 2: through the service, array-batch clients (8 concurrent).
    async def _batched():
        async with PenaltyService(surrogate=model) as svc:
            chunk = 5000

            async def client(lo, hi):
                for c in range(lo, hi, chunk):
                    p, _ = await svc.predict_batch(
                        sizes[c:c + chunk],
                        slacks[c:c + chunk],
                        threads[c:c + chunk],
                    )
                    assert len(p) == min(chunk, hi - c)

            per = N_QUERIES // 8
            t0 = time.perf_counter()
            await asyncio.gather(
                *(client(i * per, (i + 1) * per) for i in range(8))
            )
            return time.perf_counter() - t0, svc.stats()

    service_s, svc_stats = asyncio.run(_batched())
    service_rate = N_QUERIES / service_s

    # Leg 3: per-request futures (asyncio overhead, recorded, no floor).
    n_single = 20_000

    async def _singles():
        async with PenaltyService(
            surrogate=model, max_queue=n_single
        ) as svc:
            t0 = time.perf_counter()
            for c in range(0, n_single, 2000):
                await asyncio.gather(
                    *(
                        svc.predict(
                            int(sizes[i]), float(slacks[i]), int(threads[i])
                        )
                        for i in range(c, c + 2000)
                    )
                )
            return time.perf_counter() - t0

    single_rate = n_single / asyncio.run(_singles())

    _SECTIONS["warm"] = {
        "queries": N_QUERIES,
        "raw_eval_per_s": raw_rate,
        "service_batched_per_s": service_rate,
        "service_batches": svc_stats["batches"],
        "per_request_per_s": single_rate,
    }
    assert raw_rate >= WARM_FLOOR, (
        f"raw evaluate {raw_rate:,.0f}/s below the {WARM_FLOOR:,}/s floor"
    )
    assert service_rate >= WARM_FLOOR, (
        f"batched service {service_rate:,.0f}/s below the "
        f"{WARM_FLOOR:,}/s floor"
    )


def test_bench_serve_closed_loop(fitted, queries):
    """64 clients each awaiting their answer: per-request latency."""
    assert "parity" in _SECTIONS, "parity must pass before timing"
    _, _, model = fitted
    sizes, threads, slacks = queries
    expected, _, reason = model.evaluate(sizes, threads, slacks)
    assert (reason == 0).all()
    triples = list(zip(sizes.tolist(), slacks.tolist(), threads.tolist()))
    n = len(triples)
    answers = [0.0] * n
    latency = [0.0] * n

    async def _closed():
        async with PenaltyService(surrogate=model) as svc:
            predict = svc.predict

            async def client(first):
                for i in range(first, n, CLOSED_CLIENTS):
                    size, slack, thr = triples[i]
                    t0 = time.perf_counter()
                    answers[i] = (await predict(size, slack, thr)).penalty
                    latency[i] = time.perf_counter() - t0

            t0 = time.perf_counter()
            await asyncio.gather(
                *(client(c) for c in range(CLOSED_CLIENTS))
            )
            return time.perf_counter() - t0, svc.stats()

    wall, stats = asyncio.run(_closed())
    assert answers == expected.tolist(), "service answers differ"
    lat_us = np.asarray(latency) * 1e6
    _SECTIONS["closed_loop"] = {
        "clients": CLOSED_CLIENTS,
        "queries": n,
        "per_s": n / wall,
        "latency_median_us": float(np.median(lat_us)),
        "latency_p99_us": float(np.percentile(lat_us, 99)),
        "batches": stats["batches"],
        "batch_size_mean": stats["requests"] / stats["batches"],
    }


def test_bench_serve_cold_path(fitted):
    """A refused query measures for real, then serves warm."""
    _, _, model = fitted
    cold_size = 2**10  # not on the fitting grid -> unknown-series
    cold = ColdPathConfig(
        iterations=5,
        target_compute_s=2.0,
        options=SweepOptions(workers=1, cache=False),
    )

    async def _run():
        async with PenaltyService(surrogate=model, cold_path=cold) as svc:
            t0 = time.perf_counter()
            first = await svc.predict(cold_size, 1e-4, 1)
            cold_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            again = await svc.predict(cold_size, 1e-4, 1)
            warm_s = time.perf_counter() - t0
            return first, cold_s, again, warm_s, svc.stats()

    first, cold_s, again, warm_s, stats = asyncio.run(_run())
    assert first.penalty == again.penalty  # refined region serves warm
    assert stats["cold_misses"] == 1
    assert stats["observed_points"] >= 1
    assert warm_s < cold_s  # warm answer skips the DES entirely
    _SECTIONS["cold"] = {
        "cold_query_s": cold_s,
        "warm_requery_s": warm_s,
        "measured_points": stats["cold_measured_points"],
    }
