"""Benchmark: adaptive sweep refinement.

The **adaptive** leg runs the adaptive slack sweep
(:func:`repro.model.adaptive_slack_sweep`) against the dense sweep of
the same 33-point grid, asserting correctness before reporting a
speedup: measured points must be bit-identical, predicted penalties
within 0.1 pp of the dense ground truth, and the measured fraction at
most 40% of the dense grid.

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

from repro.model import adaptive_slack_sweep
from repro.proxy import SweepOptions, run_slack_sweep

#: Where the perf artifact lands (repo root, next to BENCH_trace.json).
APPFF_ARTIFACT = Path(__file__).resolve().parents[1] / "BENCH_appff.json"

#: Adaptive acceptance: measured share of the dense grid / penalty tol.
ADAPTIVE_FRACTION_CEILING = 0.40
ADAPTIVE_TOL = 1e-3

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
            sizes, grid, threads=threads, iterations=40,
            options=SweepOptions(adaptive=True, tol=ADAPTIVE_TOL),
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
