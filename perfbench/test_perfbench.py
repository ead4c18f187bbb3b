"""Tests of the benchmark harness itself.

They are not part of the package's test suite; run them from the
repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q

The traced-run tests start the real benchmark (about 20 s per
workload) and check that every span fires where layers.EXPECTED says
it must, stays silent where it says it must, and that the repository's
``.cache/`` and ``BENCH_*.json`` are left untouched.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
from spans import SpanRecorder, cprofile_crosscheck  # noqa: E402
from workloads import WORKLOAD_NAMES  # noqa: E402


def _bench_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_match_benchmark_json():
    doc = _bench_json()
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == (
        run.END_TO_END_UNITS
    )
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(
        layers.PER_LAYER
    )


def test_experiment_ids_follow_the_registry():
    from repro.experiments import experiment_ids

    assert tuple(experiment_ids()) == layers.EXPERIMENT_IDS


@pytest.fixture(scope="module")
def installed():
    """Wrappers installed once in this process (they are transparent)."""
    rec = SpanRecorder()
    layers.install(rec)
    return rec


def test_every_binding_site_is_patched(installed):
    from repro.apps import registry
    from repro.cdi import placement
    from repro.experiments import extensions, table2

    for module in (table2, extensions):
        assert hasattr(module.run_proxy, "__wrapped__"), module.__name__
    assert installed.sites["repro.proxy.matmul.run_proxy"] >= 3
    for name, policy in placement.PLACEMENT_POLICIES.items():
        assert hasattr(policy, "__wrapped__"), name
    for app in ("lammps", "cosmoflow"):
        assert hasattr(registry.get_app(app).profiler, "__wrapped__"), app
    # Every wrapped target exists in at least one place.
    assert all(count >= 1 for count in installed.sites.values())


def test_span_self_time_excludes_children():
    rec = SpanRecorder()

    def inner():
        return sum(range(20000))

    rec._register("t.inner", inner)
    wrapped_inner = rec._wrap(inner, "t.inner", "inner", None)

    def outer():
        return wrapped_inner() + wrapped_inner()

    rec._register("t.outer", outer)
    rec._wrap(outer, "t.outer", "outer", None)()
    outer_span, inner_span = rec.spans["outer"], rec.spans["inner"]
    assert inner_span.calls == 2 and outer_span.calls == 1
    assert outer_span.self_s == pytest.approx(
        outer_span.total_s - inner_span.total_s, abs=1e-9
    )
    assert rec.total_self_s() == pytest.approx(outer_span.total_s, abs=1e-9)


def test_coverage_flags_silent_and_unexpected_spans():
    raw = {f"{name}.calls": 1 for name in layers.EXPECTED["serve-closed"]["fire"]}
    assert layers.coverage_problems("serve-closed", raw) == []
    del raw["serve.evaluate.calls"]
    raw["proxy.sweep.calls"] = 3
    problems = layers.coverage_problems("serve-closed", raw)
    assert any("serve.evaluate: no calls" in p for p in problems)
    assert any("proxy.sweep: 3 calls" in p for p in problems)


def test_cprofile_crosscheck_reports_disagreement():
    rec = SpanRecorder()
    rec._register("m.f", test_cprofile_crosscheck_reports_disagreement)
    rec.targets["m.f"].calls = 10
    rec.targets["m.f"].total_s = 1.0
    key = rec.code_keys["m.f"]

    class Stats:
        stats = {key: (10, 10, 0.5, 0.98, {})}

    worst, problems = cprofile_crosscheck(
        rec, Stats(), rel_tol=0.05, per_call_s=0.0
    )
    assert problems == [] and worst == pytest.approx(0.02 / 0.98)
    Stats.stats = {key: (10, 10, 0.5, 0.5, {})}
    worst, problems = cprofile_crosscheck(
        rec, Stats(), rel_tol=0.05, per_call_s=0.0
    )
    assert len(problems) == 1 and worst == pytest.approx(1.0)


def test_fleet_checks_find_a_wrong_week():
    import numpy as np
    from repro.cdi import (
        ClusterSpec,
        FleetConfig,
        FleetTopology,
        generate_fleet_jobs,
        run_fleet,
    )

    import fleetcheck

    class Surface:
        def penalty(self, matrix_size, slack_s, threads):
            return 1e3 * slack_s

    cluster = ClusterSpec(nodes=8)
    jobs = generate_fleet_jobs(
        FleetConfig(cluster=cluster, horizon_s=2 * 24 * 3600.0, seed=5)
    )
    topology = FleetTopology.uniform(4, cluster.total_gpus // 4)
    trad = run_fleet(jobs, cluster, "traditional")
    cdi = run_fleet(jobs, cluster, "cdi", topology=topology)
    cdi.penalty = np.where(jobs.gpus > 0, 1e3 * cdi.slack_s, np.nan)
    assert trad.mean_wait_s > 0  # the small cluster queues
    checks = (
        lambda: fleetcheck.schedule_problems(trad),
        lambda: fleetcheck.schedule_problems(cdi),
        lambda: fleetcheck.placement_problems(cdi, topology),
        lambda: fleetcheck.penalty_problems(cdi, Surface(), 2048, 1),
    )
    for check in checks:
        bad, problems = check()
        assert problems == [] and not bad.any()

    gpu_job = int(np.flatnonzero(jobs.gpus > 0)[0])
    first_waiting = int(np.flatnonzero(trad.wait_s > 0)[0])
    trad.start_s[first_waiting] += 3600.0  # held back past its turn
    cdi.start_s[gpu_job] = cdi.cores_start_s[gpu_job] - 1.0
    rack, count = cdi.rack_of_gpus[gpu_job][0]
    cdi.rack_of_gpus[gpu_job] = [((rack + 1) % topology.racks, count)]
    cdi.penalty[gpu_job] *= 1.01
    for check in checks:
        bad, problems = check()
        assert bad.any() and problems


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cmd = _bench_json()["command"]
    proc = subprocess.run(
        cmd + ["--workload", "fleet-week", "--seed", "1", "--seconds", "1",
               "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_run_is_correct_and_leaves_the_repo_alone(workload):
    before = run.repo_fingerprint(ROOT)
    proc = subprocess.run(
        _bench_json()["command"]
        + ["--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    # ``correct`` is false when a span fired where none was expected,
    # stayed silent where calls were expected, or disagreed with cProfile.
    assert result["correct"], proc.stderr[-3000:]
    assert result["failed"] == 0
    names = [name for name, _unit in layers.PER_LAYER]
    assert list(result["metrics"]) == names
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if workload == "reproduce-warm":
        assert metrics["proxy.sweep.points"] == 0
        assert metrics["apps.profile.lammps.self_s"] == 0
        assert metrics["apps.profile.cosmoflow.self_s"] == 0
    if workload == "reproduce-cold":
        assert metrics["proxy.sweep.points"] > 0
        assert metrics["des.events_dispatched"] > 0
    assert run.repo_fingerprint(ROOT) == before
