"""Benchmark: the vectorized fleet engine vs. the generator DES.

The fleet engine (:mod:`repro.cdi.fleet`) replaces the per-job
generator processes of ``simulate_traditional``/``simulate_cdi`` with
an index-based event core over numpy job-state columns. Its contract
is *parity before speedup*: per-job *bit*-parity (wait / start / end,
cores-grant time, trapped core- and GPU-seconds) is asserted on the
full benchmark stream for both scheduling modes **before** any timing
is reported. Three legs:

* ``traditional`` — 100k-job stream, whole-node scheduling, fleet
  engine vs. the scalar reference twin;
* ``cdi`` — the same stream against the two-pool CDI discipline
  (the harder case: two-stage admission, hold-and-wait accounting);
* ``scale`` — a million-job stream through the fleet engine alone
  (the generator DES at that scale is minutes, which is the point),
  reported as jobs/sec;
* ``rowscale`` — one week of a three-tenant stream (~150k jobs) on a
  2560-node row-scale cluster, where no job waits: a prefix is checked
  bit-for-bit against the reference DES, then both modes must admit at
  least 99% of the jobs through the uncontended-chunk certificate.

Both 64-node engine legs must clear a 20x speedup floor; the row-scale
leg's guard is the certified share, which is deterministic, not a
timing. Results land in ``BENCH_fleet.json`` at the repo root, next to
``BENCH_sweep.json`` (see docs/performance.md for methodology).
"""

import dataclasses
import json
import os
import platform
import time
from pathlib import Path

import numpy as np
import pytest

from repro.cdi import (
    ClusterSpec,
    FleetConfig,
    FleetJobs,
    TenantSpec,
    assert_fleet_parity,
    generate_fleet_jobs,
    run_fleet,
    simulate_cdi,
    simulate_traditional,
    synthetic_job_mix,
)

#: Where the perf artifact lands (repo root, next to BENCH_sweep.json).
FLEET_ARTIFACT = Path(__file__).resolve().parents[1] / "BENCH_fleet.json"

#: Minimum acceptable fleet-vs-generator-DES speedup (both modes).
FLEET_SPEEDUP_FLOOR = 20.0

#: Benchmark stream: >= 100k jobs on a pool-scale machine.
BENCH_JOBS = 100_000
SCALE_JOBS = 1_000_000
BENCH_CLUSTER = ClusterSpec(nodes=64)

#: Row-scale leg: a week of three tenants on 2560 nodes, well below
#: saturation in both disciplines. (name, jobs/s, CPU-heavy share,
#: GPU-heavy share.)
ROWSCALE_CLUSTER = ClusterSpec(nodes=2560)
ROWSCALE_TENANTS = (
    ("batch", 0.13, 0.10, 0.05),
    ("hpc", 0.07, 0.10, 0.05),
    ("ml", 0.05, 0.05, 0.10),
)
ROWSCALE_PARITY_JOBS = 3000
#: Minimum share of row-scale jobs admitted by the certificate.
ROWSCALE_CERTIFIED_FLOOR = 0.99

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
    FLEET_ARTIFACT.write_text(json.dumps(doc, indent=1, sort_keys=True))


@pytest.fixture(scope="module")
def stream():
    """The shared 100k-job stream (columnar + SimJob views)."""
    sim_jobs = synthetic_job_mix(
        BENCH_JOBS,
        rng=np.random.default_rng(7),
        mean_interarrival_s=20.0,
        cluster=BENCH_CLUSTER,
    )
    return FleetJobs.from_sim_jobs(sim_jobs), sim_jobs


def _best_of(fn, repeats=3):
    """Best wall time of ``repeats`` runs (and the last return value)."""
    best = float("inf")
    value = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - t0)
    return best, value


def _bench_mode(mode, stream):
    jobs, sim_jobs = stream
    reference = simulate_cdi if mode == "cdi" else simulate_traditional

    # Parity before speedup: every per-job metric bit-identical.
    t0 = time.perf_counter()
    assert_fleet_parity(jobs, BENCH_CLUSTER, mode)
    parity_s = time.perf_counter() - t0

    fleet_s, result = _best_of(lambda: run_fleet(jobs, BENCH_CLUSTER, mode))
    ref_s, _ = _best_of(lambda: reference(sim_jobs, BENCH_CLUSTER), repeats=1)
    speedup = ref_s / fleet_s
    _SECTIONS[mode] = {
        "jobs": len(jobs),
        "nodes": BENCH_CLUSTER.nodes,
        "parity": "bit-exact per-job (wait/start/end, cores grant, "
                  "trapped core/gpu seconds)",
        "parity_check_s": parity_s,
        "fleet_s": fleet_s,
        "generator_des_s": ref_s,
        "fleet_jobs_per_sec": len(jobs) / fleet_s,
        "speedup": speedup,
        "speedup_floor": FLEET_SPEEDUP_FLOOR,
        "mean_wait_s": result.mean_wait_s,
        "core_utilization": result.core_utilization,
        "certified_jobs": result.certified_jobs,
        "handoffs": result.handoffs,
    }
    assert speedup >= FLEET_SPEEDUP_FLOOR, (
        f"{mode} fleet speedup {speedup:.1f}x below the "
        f"{FLEET_SPEEDUP_FLOOR:.0f}x floor"
    )


def test_bench_fleet_traditional(stream):
    _bench_mode("traditional", stream)


def test_bench_fleet_cdi(stream):
    _bench_mode("cdi", stream)


def test_bench_fleet_scale():
    sim_jobs = synthetic_job_mix(
        SCALE_JOBS,
        rng=np.random.default_rng(11),
        mean_interarrival_s=2.0,
        cluster=BENCH_CLUSTER,
    )
    jobs = FleetJobs.from_sim_jobs(sim_jobs)
    fleet_s, result = _best_of(
        lambda: run_fleet(jobs, BENCH_CLUSTER, "cdi"), repeats=1
    )
    _SECTIONS["scale"] = {
        "jobs": len(jobs),
        "nodes": BENCH_CLUSTER.nodes,
        "fleet_s": fleet_s,
        "fleet_jobs_per_sec": len(jobs) / fleet_s,
        "makespan_days": result.makespan_s / 86400.0,
    }
    # Sanity, not speed: the run completed and every job was placed.
    assert float(result.wait_s.min()) >= 0.0


def test_bench_fleet_rowscale():
    config = FleetConfig(
        cluster=ROWSCALE_CLUSTER,
        tenants=tuple(
            TenantSpec(name, rate, cpu_heavy_share=cpu, gpu_heavy_share=gpu)
            for name, rate, cpu, gpu in ROWSCALE_TENANTS
        ),
        horizon_s=7 * 24 * 3600.0,
        seed=1,
    )
    jobs = generate_fleet_jobs(config)
    prefix = generate_fleet_jobs(
        dataclasses.replace(config, max_jobs=ROWSCALE_PARITY_JOBS)
    )
    section = {"jobs": len(jobs), "nodes": ROWSCALE_CLUSTER.nodes,
               "parity_prefix_jobs": len(prefix),
               "certified_floor": ROWSCALE_CERTIFIED_FLOOR}
    for mode in ("traditional", "cdi"):
        # Parity before speedup, then the certified share.
        assert_fleet_parity(prefix, ROWSCALE_CLUSTER, mode)
        fleet_s, result = _best_of(
            lambda: run_fleet(jobs, ROWSCALE_CLUSTER, mode)
        )
        share = result.certified_jobs / len(jobs)
        section[mode] = {
            "fleet_s": fleet_s,
            "fleet_jobs_per_sec": len(jobs) / fleet_s,
            "certified_jobs": result.certified_jobs,
            "certified_share": share,
            "handoffs": result.handoffs,
            "mean_wait_s": result.mean_wait_s,
        }
        assert share >= ROWSCALE_CERTIFIED_FLOOR, (
            f"{mode}: only {share:.1%} of row-scale jobs certified"
        )
    _SECTIONS["rowscale"] = section
