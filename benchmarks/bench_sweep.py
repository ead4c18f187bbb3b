"""Benchmark: the parallel sweep execution engine itself.

Measures the same compact grid sequentially and through the process
pool, records both timings (plus the parallel/sequential ratio) into
the BENCH_sweep.json perf artifact, and asserts the engine's core
contract: parallel output is exactly equal to sequential output. The
sharded leg does the same for the multi-host scale-out path: one
dense run vs. three local shard-worker subprocesses merged back
together, with bit-parity asserted *before* any timing is recorded.

On single-core runners the pool and the shard fan-out degenerate
gracefully — every parity assertion still holds, and the perf legs
record a structured ``{"skipped": "single-cpu"}`` instead of a
meaningless (or null) speedup.
"""

import os

from repro.obs import collecting
from repro.parallel import GridSpec, ShardCoordinator
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


#: Sharded-leg grid: a single matrix size keeps every point's cost
#: uniform, so the deterministic hash partition (which balances point
#: *counts*) also balances *work*. iterations=1075 is chosen so the
#: 24 tasks split exactly 8/8/8 across 3 shards (the partition is a
#: pure function of the task content — identical on every host) and
#: so each shard carries several seconds of real compute, amortizing
#: the ~1s subprocess startup. Fast-forward is off: the leg must
#: measure the fan-out of real DES work, not of extrapolation.
SHARD_GRID = GridSpec(
    matrix_sizes=(2048,),
    slack_values_s=(1e-6, 1e-5, 1e-4, 1e-3, 1e-2),
    threads=(1, 2, 4, 8),
    iterations=1075,
)

#: Local shard workers in the sharded leg (the acceptance floor below
#: is stated at this count).
SHARD_WORKERS = 3


def test_bench_sharded_sweep(benchmark, bench_extra):
    opts = SweepOptions(workers=1, cache=None, fast_forward=False)
    dense = run_slack_sweep(
        matrix_sizes=SHARD_GRID.matrix_sizes,
        slack_values_s=SHARD_GRID.slack_values_s,
        threads=SHARD_GRID.threads,
        iterations=SHARD_GRID.iterations,
        options=opts,
    )

    coordinator = ShardCoordinator(SHARD_GRID, SHARD_WORKERS, options=opts)
    merged = benchmark.pedantic(coordinator.run, rounds=1, iterations=1)

    # Bit-parity FIRST: a timing number for a wrong result is worse
    # than no number. Points, skips, surface — all byte-identical.
    assert merged.points == dense.points
    assert merged.skipped == dense.skipped

    m = merged.merge
    leg = {
        "shard_workers": SHARD_WORKERS,
        "grid_points": m.grid_points,
        "dense_wall_s": dense.timing.wall_s,
        "coordinator_wall_s": m.coordinator_wall_s,
        "shard_wall_s": [s["wall_s"] for s in m.shards],
        "shard_points": [int(s["tasks"]) for s in m.shards],
        "subprocess_wall_s": [
            m.subprocess_wall_s[i] for i in sorted(m.subprocess_wall_s)
        ],
        "merge_wall_s": m.merge_wall_s,
        "merge_overhead": m.merge_overhead,
        "parity": True,
    }

    # Merge must be noise, not a tax — regardless of core count.
    assert m.merge_overhead is not None and m.merge_overhead < 0.05, (
        f"merge overhead {m.merge_overhead:.1%} exceeds the 5% budget"
    )

    cpus = os.cpu_count() or 1
    if cpus > 2:
        wall_speedup = dense.timing.wall_s / m.coordinator_wall_s
        leg["wall_speedup"] = wall_speedup
        bench_extra["sharded"] = leg
        assert wall_speedup >= 1.7, (
            f"sharded speedup {wall_speedup:.2f}x below the 1.7x floor "
            f"at {SHARD_WORKERS} shard workers on {cpus} cores"
        )
    else:
        # Too few cores to fan out: the workers serialize and the
        # "speedup" would measure nothing but subprocess startup.
        leg["wall_speedup"] = {"skipped": "single-cpu"}
        bench_extra["sharded"] = leg


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
