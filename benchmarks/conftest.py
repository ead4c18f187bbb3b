"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one paper artifact and prints the same
rows/series the paper reports (run pytest with ``-s`` to see them).
The shared :class:`ExperimentContext` reuses the disk-cached proxy
surface, so the first run of the suite pays the sweep cost once.

The session also emits a machine-readable perf artifact,
``BENCH_sweep.json`` at the repo root: wall time per benchmark, the
sweep engine's grid-points/sec and worker count, and whatever extra
stats individual benchmarks record through the ``bench_extra`` fixture
(e.g. the DES kernel's events/sec). Comparing that file across PRs is
how the perf trajectory of the reproduction stays measurable.
"""

import json
import os
import platform
import time
from pathlib import Path

import pytest

from repro.experiments import ExperimentContext

#: Where the perf artifact lands (repo root, next to README.md).
BENCH_ARTIFACT = Path(__file__).resolve().parents[1] / "BENCH_sweep.json"

#: Session context, exposed for the artifact writer.
_SESSION_CTX = None

#: nodeid -> call duration of every passed benchmark this session.
_DURATIONS = {}


def pytest_addoption(parser):
    parser.addoption(
        "--full-repro",
        action="store_true",
        default=False,
        help="use the paper's full run lengths (slow) instead of quick mode",
    )
    parser.addoption(
        "--bench-workers",
        type=int,
        default=0,
        help="worker processes for the shared context's sweep "
             "(0 = all CPU cores)",
    )


def pytest_configure(config):
    config._bench_extra = {}


@pytest.fixture(scope="session")
def ctx(request):
    global _SESSION_CTX
    workers = request.config.getoption("--bench-workers") or os.cpu_count() or 1
    _SESSION_CTX = ExperimentContext(
        quick=not request.config.getoption("--full-repro"),
        workers=workers,
    )
    return _SESSION_CTX


@pytest.fixture(scope="session")
def bench_extra(request):
    """Free-form dict merged into the BENCH_sweep.json artifact."""
    return request.config._bench_extra


@pytest.fixture(scope="session")
def print_result():
    def _print(result):
        print()
        print(result.render())

    return _print


def pytest_runtest_logreport(report):
    if report.when == "call" and report.passed:
        _DURATIONS[report.nodeid] = report.duration


def pytest_sessionfinish(session, exitstatus):
    if not _DURATIONS:
        return
    ctx = _SESSION_CTX
    if ctx is None and not session.config._bench_extra:
        # Standalone benchmarks (bench_appff, …) write their own
        # artifacts; don't clobber BENCH_sweep.json with a partial doc.
        return
    doc = {
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "workers": ctx.options.workers if ctx is not None else None,
        "experiments": {
            _experiment_name(nodeid): round(duration, 4)
            for nodeid, duration in sorted(_DURATIONS.items())
        },
        # Never null: a structured reason is distinguishable from
        # "the writer crashed before filling the field".
        "sweep": (
            ctx.sweep_timing.to_doc()
            if ctx is not None and ctx.sweep_timing is not None
            else {"skipped": "fully-cached"}  # surface came from disk
            if ctx is not None
            else {"skipped": "no-shared-context"}
        ),
    }
    doc.update(session.config._bench_extra)
    BENCH_ARTIFACT.write_text(json.dumps(doc, indent=1, sort_keys=True))


def _experiment_name(nodeid):
    """'benchmarks/bench_figure3.py::test_bench_figure3' -> 'figure3'."""
    test = nodeid.rsplit("::", 1)[-1]
    return test.removeprefix("test_bench_").removeprefix("test_")
