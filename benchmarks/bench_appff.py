"""Benchmark: application fast-forward and adaptive sweep refinement.

Three legs, each asserting correctness before reporting a speedup:

* **lammps** / **cosmoflow** — the paper-scale jitter-free profiling
  runs, full simulation vs. steady-state fast-forward
  (:mod:`repro.des.fastforward`). Parity is asserted event-by-event
  over the whole trace before the speedup is recorded; the floor is
  5x (typical measured: tens of x, see docs/performance.md).
* **adaptive** — the adaptive slack sweep
  (:func:`repro.model.adaptive_slack_sweep`) against the dense sweep
  of the same 33-point grid: measured points must be bit-identical,
  predicted penalties within 0.1 pp of the dense ground truth, and the
  measured fraction at most 40% of the dense grid.

Results land in ``BENCH_appff.json`` at the repo root, next to
``BENCH_sweep.json`` and ``BENCH_trace.json``.
"""

import json
import os
import platform
import time
from pathlib import Path

import numpy as np
import pytest

from repro.apps import (
    CosmoFlowProfileConfig,
    LammpsProfileConfig,
    profile_cosmoflow,
    profile_lammps,
)
from repro.apps.lammps import LJParams
from repro.model import adaptive_slack_sweep
from repro.proxy import run_slack_sweep

#: Where the perf artifact lands (repo root, next to BENCH_trace.json).
APPFF_ARTIFACT = Path(__file__).resolve().parents[1] / "BENCH_appff.json"

#: Minimum acceptable fast-forward speedup per application.
APPFF_SPEEDUP_FLOOR = 5.0

#: Adaptive acceptance: measured share of the dense grid / penalty tol.
ADAPTIVE_FRACTION_CEILING = 0.40
ADAPTIVE_TOL = 1e-3

#: Paper-scale jitter-free configs (jittered runs are ineligible by
#: design; the benchmark measures the eligible regime).
LAMMPS_CONFIG = LammpsProfileConfig(
    params=LJParams(box_size=120, steps=5000), jitter=0.0
)
COSMOFLOW_CONFIG = CosmoFlowProfileConfig(jitter=0.0)

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
    APPFF_ARTIFACT.write_text(json.dumps(doc, indent=1, sort_keys=True))


def _best_of(fn, repeats=3):
    """Best wall time of ``repeats`` runs (and the last return value)."""
    best = float("inf")
    value = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - t0)
    return best, value


def _bench_app(name, profiler, config):
    full_s, full = _best_of(
        lambda: profiler(config, fast_forward=False), repeats=2
    )
    fast_s, fast = _best_of(
        lambda: profiler(config, fast_forward=True), repeats=3
    )
    # Parity before speedup: the fast-forwarded profile must be the
    # full profile, bit for bit — runtime, derived rate, every event.
    assert fast.fastforward is not None and fast.fastforward.certified
    assert fast.runtime_s == full.runtime_s
    assert fast.cuda_calls_per_second == full.cuda_calls_per_second
    assert len(fast.trace) == len(full.trace)
    assert list(fast.trace) == list(full.trace)
    speedup = full_s / fast_s
    _SECTIONS[name] = {
        "events": len(full.trace),
        "full_s": full_s,
        "fast_s": fast_s,
        "speedup": speedup,
        "speedup_floor": APPFF_SPEEDUP_FLOOR,
        "warmup_iterations": fast.fastforward.warmup_iterations,
        "skipped_iterations": fast.fastforward.skipped_iterations,
        "events_skipped": fast.fastforward.events_skipped,
    }
    assert speedup >= APPFF_SPEEDUP_FLOOR, (
        f"{name} fast-forward speedup {speedup:.1f}x below the "
        f"{APPFF_SPEEDUP_FLOOR:.0f}x floor"
    )


def test_bench_lammps_fastforward():
    _bench_app("lammps", profile_lammps, LAMMPS_CONFIG)


def test_bench_cosmoflow_fastforward():
    _bench_app("cosmoflow", profile_cosmoflow, COSMOFLOW_CONFIG)


def test_bench_adaptive_sweep():
    sizes = (2**9, 2**11, 2**13, 2**15)
    threads = (1, 2, 4, 8)
    grid = list(np.logspace(-6, -2, 33))

    dense_s, dense = _best_of(
        lambda: run_slack_sweep(
            matrix_sizes=sizes, slack_values_s=grid, threads=threads,
            iterations=40,
        ),
        repeats=1,
    )
    adaptive_s, res = _best_of(
        lambda: adaptive_slack_sweep(
            sizes, grid, threads=threads, iterations=40, tol=ADAPTIVE_TOL
        ),
        repeats=1,
    )
    # Correctness before economy: measured points bit-identical, every
    # predicted penalty within the certification tolerance of the
    # dense ground truth.
    for p in res.measured.points:
        assert p == dense.get(p.matrix_size, p.threads, p.slack_s)
    worst = 0.0
    for p in res.dense.points:
        if res.bounds[(p.matrix_size, p.threads, p.slack_s)] == 0.0:
            continue
        q = dense.get(p.matrix_size, p.threads, p.slack_s)
        worst = max(worst, abs(max(0.0, p.penalty) - max(0.0, q.penalty)))
    _SECTIONS["adaptive"] = {
        "grid_points_dense": res.dense_grid_points,
        "grid_points_measured": res.measured_grid_points,
        "measured_fraction": res.measured_fraction,
        "fraction_ceiling": ADAPTIVE_FRACTION_CEILING,
        "seed_points": res.seed_points,
        "refined_points": res.refined_points,
        "predicted_points": res.predicted_points,
        "tol": ADAPTIVE_TOL,
        # Largest midpoint error that certified an interval (the bound
        # predicted points carry) and largest that was refined away.
        "max_certified": res.max_certified_error,
        "max_rejected": res.max_rejected_error,
        "worst_predicted_deviation": worst,
        "dense_s": dense_s,
        "adaptive_s": adaptive_s,
        "speedup": dense_s / adaptive_s,
    }
    assert res.max_certified_error <= ADAPTIVE_TOL, (
        f"an interval certified at {res.max_certified_error:.2e}, above "
        f"the {ADAPTIVE_TOL:g} tolerance"
    )
    assert worst <= ADAPTIVE_TOL, (
        f"predicted penalties deviate {worst:.2e} from the dense "
        f"sweep, above the {ADAPTIVE_TOL:g} tolerance"
    )
    assert res.measured_fraction <= ADAPTIVE_FRACTION_CEILING, (
        f"adaptive sweep measured {res.measured_fraction:.0%} of the "
        f"dense grid, above the {ADAPTIVE_FRACTION_CEILING:.0%} ceiling"
    )
