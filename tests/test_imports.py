"""Start-up imports only what the command uses.

``scipy.stats``, ``scipy.interpolate`` and ``networkx`` cost over a
second of import time together, and no default command needs them.
The package ``__init__``s and ``repro.api`` resolve their names lazily,
so each entry point loads only the modules it runs; the allowlists
below pin those sets. Each check runs in a fresh interpreter and
inspects ``sys.modules``, so it does not depend on the speed of the
machine.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

HEAVY = ("scipy", "scipy.stats", "scipy.interpolate", "networkx")

ENTRY_POINTS = {
    "cli-list": 'from repro.cli import main; main(["list"])',
    "experiment-context": (
        "from repro.experiments import ExperimentContext\n"
        "ExperimentContext(quick=True, workers=1)"
    ),
}


def _probe(code, cwd, cache=None):
    """Run ``code`` in a fresh interpreter; its last stdout line as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    if cache is not None:
        env["REPRO_CACHE_DIR"] = str(cache)
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("code", ENTRY_POINTS.values(), ids=ENTRY_POINTS)
def test_no_heavy_module_at_start_up(code, tmp_path):
    probe = (
        f"{code}\nimport json, sys\n"
        f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))"
    )
    assert _probe(probe, tmp_path) == []


# -- the modules each entry point loads -------------------------------------
#
# Names are relative to ``repro.``. Package ``__init__``s are left out:
# they are lazy tables, loaded with any module below them.

#: The cached proxy surface a context serves, and the metrics layer.
SURFACE = {
    "_lazy",
    "experiments.context",
    "obs.metrics",
    "obs.publish",
    "obs.report",
    "proxy.options",
    "proxy.quantize",
    "proxy.response",
    "proxy.sweep",
}
#: The serving surrogate and the micro-batching service.
SERVING = {"model.surrogate", "serve.service", "serve.surrogate"}
#: The simulator the app models run on: index core, DES, device,
#: hardware and trace models.
SIMULATOR = {
    "des.core",
    "des.errors",
    "des.monitor",
    "des.resources",
    "des.timebase",
    "gpusim.engines",
    "gpusim.flatcore",
    "gpusim.interception",
    "gpusim.kernels",
    "gpusim.runtime",
    "gpusim.stream",
    "hw.memory",
    "hw.specs",
    "network.slack",
    "proxy.calibration",
    "proxy.core",
    "trace.events",
    "trace.store",
    "trace.tracer",
}
#: The app registry, the four models it registers (CPU-only brings its
#: CDI scheduler) and the profile cache.
APPS = {
    "apps.base",
    "apps.cosmoflow.layers",
    "apps.cosmoflow.model",
    "apps.cosmoflow.training",
    "apps.cpuonly",
    "apps.inference.arrivals",
    "apps.inference.batcher",
    "apps.inference.llm",
    "apps.inference.serving",
    "apps.lammps.gpu_offload",
    "apps.lammps.lj",
    "apps.lammps.scaling",
    "apps.profilecache",
    "apps.registry",
    "cdi.composer",
    "cdi.resources",
    "cdi.scheduler",
    "hw.pcie",
}
#: Equations 2-3: binning a profile and predicting its penalty.
MODEL = {"model.binning", "model.equations", "model.predictor"}
#: The 23 experiments, the sweep that builds their surface, and what
#: only the experiments use.
EXPERIMENTS = {
    "apps.lammps.weak_scaling",
    "cdi.power",
    "cdi.simulation",
    "cdi.utilization",
    "experiments.cosmoflow_cpu",
    "experiments.discussion",
    "experiments.extensions",
    "experiments.figure1",
    "experiments.figure2",
    "experiments.figure3",
    "experiments.figure4",
    "experiments.figure5",
    "experiments.omp_scaling",
    "experiments.report",
    "experiments.runner",
    "experiments.table1",
    "experiments.table2",
    "experiments.table3",
    "experiments.table4",
    "experiments.validation",
    "faults.runtime",
    "gpusim.multigpu",
    "gpusim.preload",
    "gpusim.remoting",
    "model.sensitivity",
    "model.validation",
    "network.congestion",
    "network.fabric",
    "parallel.executor",
    "parallel.point",
    "parallel.pointcache",
    "proxy.matmul",
    "trace.analysis",
}

#: Entry point -> (code, the modules it may load).
MODULE_SETS = {
    # Listing the experiments imports the runner, which loads them all.
    "cli-list": (
        'from repro.cli import main; main(["list"])',
        {"cli"} | SURFACE | SIMULATOR | APPS | MODEL | EXPERIMENTS,
    ),
    # perfbench's serve-closed set-up: no app model, no sweep, no DES.
    "serve-setup": (
        "from repro.experiments import ExperimentContext\n"
        "from repro.serve import (\n"
        "    PenaltyService, ServiceOverloadedError, SurrogateDomainError,\n"
        ")\n"
        "ExperimentContext(quick=True, workers=1).surrogate()",
        SURFACE | SERVING,
    ),
    # One app profile, binned and predicted; the trace export for
    # --trace-out. No experiment, no proxy run.
    "profile-lammps": (
        "from repro.cli import main\n"
        'main(["profile", "lammps", "--slack", "1e-4"])',
        {"cli", "trace.export"} | SURFACE | SIMULATOR | APPS | MODEL,
    ),
    "quick-all": (
        'from repro.cli import main; main(["all", "--workers", "1"])',
        {"cli"} | SURFACE | SIMULATOR | APPS | MODEL | EXPERIMENTS,
    ),
}

_LOADED = (
    "\nimport json, sys\n"
    "print(json.dumps(sorted(\n"
    "    name[len('repro.'):] for name, mod in list(sys.modules.items())\n"
    "    if name.startswith('repro.') and not hasattr(mod, '__path__')\n"
    ")))"
)

#: The reproduce workloads' set-up (perfbench/workloads.py), then one
#: quick ``all`` pass: the repro modules first imported by the pass, and
#: whether the pass loaded ``numpy.ma``.
_PASS = """
import json, sys
from repro.experiments import ExperimentContext, experiment_ids, run_experiment
ctx = ExperimentContext(quick=True, workers=1)
before = set(sys.modules)
for eid in experiment_ids():
    run_experiment(eid, ctx).render()
print(json.dumps({
    "first_imported": sorted(
        m for m in set(sys.modules) - before
        if m == "repro" or m.startswith("repro.")
    ),
    "numpy.ma": "numpy.ma" in sys.modules,
}))
"""


@pytest.fixture(scope="module")
def cold_pass(tmp_path_factory):
    """One quick ``all`` pass on an empty cache, which it fills."""
    cache = tmp_path_factory.mktemp("cache")
    return cache, _probe(_PASS, cache, cache)


@pytest.mark.parametrize("entry", MODULE_SETS)
def test_entry_point_module_set(entry, cold_pass, tmp_path):
    code, allowed = MODULE_SETS[entry]
    loaded = set(_probe(code + _LOADED, tmp_path, cold_pass[0]))
    assert sorted(loaded - allowed) == [], "loaded, not on the allowlist"
    assert sorted(allowed - loaded) == [], "on the allowlist, not loaded"


def test_cold_pass_imports_nothing(cold_pass):
    """Lazy loading moves no import cost into the timed pass: the
    set-up loads every module the pass runs."""
    assert cold_pass[1] == {"first_imported": [], "numpy.ma": False}


def test_warm_pass_imports_nothing(cold_pass):
    cache, _ = cold_pass
    assert _probe(_PASS, cache, cache) == {
        "first_imported": [],
        "numpy.ma": False,
    }
