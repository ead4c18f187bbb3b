"""Benchmark: the parallel sweep execution engine itself.

Measures the same compact grid sequentially and through the process
pool, records both timings (plus the parallel/sequential ratio) into
the BENCH_sweep.json perf artifact, and asserts the engine's core
contract: parallel output is exactly equal to sequential output. The
DES-pool leg does the same on heavy reference-DES work: one dense
inline run vs. a three-worker process pool, with bit-parity asserted
*before* any timing is recorded.

On single-core runners the pool degenerates gracefully — every parity
assertion still holds, and the perf legs record a structured
``{"skipped": ...}`` instead of a meaningless (or null) speedup.
"""

import os

from repro.obs import collecting
from repro.proxy import SweepOptions, run_slack_sweep

#: Compact but non-trivial grid: 3 sizes x 2 thread counts x 3 slacks
#: (+ baselines) = 24 proxy runs per mode.
GRID = dict(
    matrix_sizes=(512, 2048, 8192),
    slack_values_s=(1e-6, 1e-4, 1e-2),
    threads=(1, 2),
    iterations=15,
)


def test_bench_sweep_engine(benchmark, bench_extra):
    sequential = run_slack_sweep(**GRID)

    workers = os.cpu_count() or 1
    if workers == 1:
        # Single-core runner: a pool leg would only measure dispatch
        # overhead. Re-run the inline path for the parity check and
        # record a structured skip instead of null speedups (a null
        # is indistinguishable from "the leg never ran").
        parallel = benchmark.pedantic(
            lambda: run_slack_sweep(**GRID),
            rounds=1,
            iterations=1,
        )
        assert parallel.points == sequential.points
        assert parallel.skipped == sequential.skipped
        bench_extra["sweep_engine"] = {
            "sequential": sequential.timing.to_doc(),
            "parallel": {"skipped": "single-cpu"},
            "wall_speedup": {"skipped": "single-cpu"},
        }
        return

    parallel = benchmark.pedantic(
        lambda: run_slack_sweep(**GRID, options=SweepOptions(workers=workers)),
        rounds=1,
        iterations=1,
    )

    # The engine's contract: fan-out must not change a single bit.
    assert parallel.points == sequential.points
    assert parallel.skipped == sequential.skipped

    wall_speedup = (
        sequential.timing.wall_s / parallel.timing.wall_s
        if parallel.timing.wall_s > 0
        else float("inf")
    )
    bench_extra["sweep_engine"] = {
        "sequential": sequential.timing.to_doc(),
        "parallel": parallel.timing.to_doc(),
        "wall_speedup": wall_speedup,
    }


#: DES-pool-leg grid: a single matrix size keeps every point's cost
#: uniform, so the pool's even chunks of points are even chunks of
#: work. At iterations=1075 each of the 24 points is a real
#: reference-DES run (fast-forward off: the leg measures the fan-out of
#: DES work, not of extrapolation), so three workers carry several
#: seconds each and the pool's start-up is noise.
DES_POOL_GRID = dict(
    matrix_sizes=(2048,),
    slack_values_s=(1e-6, 1e-5, 1e-4, 1e-3, 1e-2),
    threads=(1, 2, 4, 8),
    iterations=1075,
)

#: Pool workers in the DES-pool leg (the acceptance floor below is
#: stated at this count).
DES_POOL_WORKERS = 3


def test_bench_des_pool_sweep(benchmark, bench_extra):
    opts = SweepOptions(workers=1, cache=None, fast_forward=False)
    dense = run_slack_sweep(**DES_POOL_GRID, options=opts)

    pooled = benchmark.pedantic(
        lambda: run_slack_sweep(
            **DES_POOL_GRID, options=opts.replace(workers=DES_POOL_WORKERS)
        ),
        rounds=1,
        iterations=1,
    )

    # Bit-parity FIRST: a timing number for a wrong result is worse
    # than no number.
    assert pooled.points == dense.points
    assert pooled.skipped == dense.skipped

    leg = {
        "workers": DES_POOL_WORKERS,
        "dense": dense.timing.to_doc(),
        "pool": pooled.timing.to_doc(),
        "parity": True,
    }
    cpus = os.cpu_count() or 1
    if cpus > 2:
        wall_speedup = dense.timing.wall_s / pooled.timing.wall_s
        leg["wall_speedup"] = wall_speedup
        bench_extra["des_pool"] = leg
        assert wall_speedup >= 1.7, (
            f"DES pool speedup {wall_speedup:.2f}x below the 1.7x floor "
            f"at {DES_POOL_WORKERS} workers on {cpus} cores"
        )
    else:
        # Too few cores for three workers: they share the cores and
        # the "speedup" would measure the scheduler, not the pool.
        leg["wall_speedup"] = {"skipped": f"{cpus}-cpu"}
        bench_extra["des_pool"] = leg


#: Reduced paper grid for the fast-forward benchmark. Auto-calibrated
#: iteration counts (the paper's regime: 1000 iterations at 2^9) are
#: where fast-forward pays off — the quick 25-iteration grids above
#: deliberately keep the full simulations cheap.
FF_GRID = dict(
    matrix_sizes=(512, 8192),
    slack_values_s=(1e-5, 1e-3),
    threads=(1, 4),
    iterations=None,
)


def test_bench_fastforward(benchmark, bench_extra):
    full = run_slack_sweep(**FF_GRID, options=SweepOptions(fast_forward=False))

    with collecting() as reg:
        fast = benchmark.pedantic(
            lambda: run_slack_sweep(
                **FF_GRID, options=SweepOptions(fast_forward=True)
            ),
            rounds=1,
            iterations=1,
        )

    # The engine's contract: every SweepPoint field bit-identical.
    assert fast.points == full.points
    assert fast.skipped == full.skipped
    # The floor below measures the steady-state skip, not a silent
    # fallback: every point of the fast sweep was certified and skipped.
    assert fast.timing.measured == fast.timing.grid_points
    assert reg.counter("proxy.fastforward.hits").value == fast.timing.measured
    assert reg.counter("proxy.fastforward.fallbacks").value == 0

    speedup = (
        full.timing.wall_s / fast.timing.wall_s
        if fast.timing.wall_s > 0
        else float("inf")
    )
    bench_extra["fastforward"] = {
        "grid_points": fast.timing.grid_points,
        "full_wall_s": full.timing.wall_s,
        "fastforward_wall_s": fast.timing.wall_s,
        "speedup": speedup,
        "full_points_per_sec": full.timing.points_per_sec,
        "fastforward_points_per_sec": fast.timing.points_per_sec,
    }
    assert speedup >= 10.0, (
        f"fast-forward speedup {speedup:.1f}x below the 10x floor"
    )
