"""The stable ``repro.api`` facade, and the removal of its expired shims."""

import warnings

import pytest

import repro
import repro.api as api


# -- facade ------------------------------------------------------------------

def test_every_documented_name_resolves():
    missing = [name for name in api.__all__ if not hasattr(api, name)]
    assert not missing


def test_facade_matches_package_surface():
    """Everything the top-level package exports is also on the facade
    (the facade may export more, e.g. the paper grid constants)."""
    assert set(repro.__all__) <= set(api.__all__)


def test_quickstart_imports():
    from repro.api import (  # noqa: F401
        ExperimentContext,
        MetricsRegistry,
        PointCache,
        RunReport,
        SweepExecutor,
        collecting,
        run_all,
        run_experiment,
        run_proxy,
        run_slack_sweep,
    )


def test_serving_layer_is_on_the_facade():
    """The documented front door: serving names lead ``__all__``."""
    from repro.api import (  # noqa: F401
        ColdPathConfig,
        PenaltyService,
        Prediction,
        ServiceOverloadedError,
        SurrogateDomainError,
        SurrogateModel,
        SweepOptions,
        predict_penalty,
    )

    assert api.__all__.index("SurrogateModel") < api.__all__.index(
        "run_slack_sweep"
    )


def test_no_deprecation_warning_on_import():
    """Importing the supported surface never warns (the CI leg runs the
    whole suite under ``-W error::DeprecationWarning``; this is the
    fast, pinpointed version)."""
    import importlib

    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        importlib.reload(api)


# -- keyword-only execution knobs --------------------------------------------

def test_run_slack_sweep_workers_is_keyword_only():
    from repro.api import run_slack_sweep

    with pytest.raises(TypeError):
        run_slack_sweep([256], [1e-5], [1], 3, 30.0, 2)  # workers positional


def test_run_all_workers_is_keyword_only():
    from repro.api import run_all

    with pytest.raises(TypeError):
        run_all(None, 2)  # workers positional


def test_context_knobs_are_keyword_only():
    from repro.api import ExperimentContext

    with pytest.raises(TypeError):
        ExperimentContext(True, None)  # cache_dir positional


# -- removed spellings fail ---------------------------------------------------

def test_context_use_cache_kwarg_is_a_type_error():
    from repro.api import ExperimentContext

    with pytest.raises(TypeError, match="use_cache"):
        ExperimentContext(use_cache=False)


def test_context_canonical_cache_kwarg_is_silent():
    from repro.api import ExperimentContext, PointCache, SweepOptions

    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        ctx = ExperimentContext(options=SweepOptions(cache=False))
        assert ctx.point_cache() is None
        store = PointCache.__new__(PointCache)  # no disk touch needed
        ctx2 = ExperimentContext(options=SweepOptions(cache=store))
        assert ctx2.point_cache() is store


def test_context_rejects_options_with_workers():
    from repro.api import ExperimentContext, SweepOptions

    with pytest.raises(TypeError):
        ExperimentContext(options=SweepOptions(), workers=2)


def test_shard_workers_knobs_are_a_type_error():
    from repro.api import ColdPathConfig, ExperimentContext

    with pytest.raises(TypeError, match="shard_workers"):
        ExperimentContext(shard_workers=2)
    with pytest.raises(TypeError, match="shard_workers"):
        ColdPathConfig(shard_workers=2)


def test_adaptive_slack_sweep_tol_kwarg_is_a_type_error():
    from repro.model import adaptive_slack_sweep

    with pytest.raises(TypeError, match="tol"):
        adaptive_slack_sweep((512,), (1e-4,), tol=1e-3)


@pytest.mark.parametrize(
    "module, name",
    [
        ("repro.parallel", "ExecutorStats"),
        ("repro.gpusim", "MarkerOp"),
        ("repro.gpusim", "make_remoting_runtime"),
        ("repro.trace", "ColumnarTrace"),
        ("repro.api", "ColumnarTrace"),
        ("repro.trace", "device_gaps_reference"),
        ("repro.trace", "utilization_series_reference"),
    ],
)
def test_removed_names_are_gone(module, name):
    import importlib

    with pytest.raises(AttributeError):
        getattr(importlib.import_module(module), name)


def test_sweep_module_shims_are_gone():
    import repro.proxy.sweep as sweep_mod

    for name in ("OutOfMemoryError", "SlackModel"):
        with pytest.raises(AttributeError):
            getattr(sweep_mod, name)


def test_sweep_module_unknown_attribute_still_raises():
    import repro.proxy.sweep as sweep_mod

    with pytest.raises(AttributeError):
        sweep_mod.does_not_exist


def test_proxy_fastforward_module_is_gone():
    import importlib

    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.proxy.fastforward")


@pytest.mark.parametrize(
    "module",
    [
        "repro.des.fastforward",
        "repro.trace.epochs",
        "repro.gpusim.cuda_event",
        "repro.trace.container",
    ],
)
def test_des_fastforward_modules_are_gone(module):
    import importlib

    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module)


def test_trace_has_no_generic_filter():
    from repro.trace import Trace

    assert not hasattr(Trace, "filter")


@pytest.mark.parametrize("name", ["extend", "events_in_record_order"])
def test_trace_uncalled_methods_are_gone(name):
    """No product code called them; the record-order read is a test
    oracle now (``tests/oracles/trace.py``)."""
    from repro.trace import Trace

    assert not hasattr(Trace, name)


# -- the lazy surface ---------------------------------------------------------

_RESOLVE = """
import importlib, json, pathlib, sys
import repro

root = pathlib.Path(repro.__file__).parent
surfaces = ["repro", "repro.api"] + sorted(
    "repro." + ".".join(p.parent.relative_to(root).parts)
    for p in root.rglob("__init__.py") if p.parent != root
)
report = {}
for name in surfaces:
    module = importlib.import_module(name)
    listed = set(dir(module))
    try:
        getattr(module, "no_such_name")
        unknown = None
    except AttributeError as exc:
        unknown = str(exc)
    report[name] = {
        "unresolved": [n for n in module.__all__ if not hasattr(module, n)],
        "unlisted": [n for n in module.__all__ if n not in listed],
        "unknown": unknown,
    }
print(json.dumps(report))
"""


def test_every_lazy_name_resolves_in_a_fresh_interpreter(tmp_path):
    """Every name of ``repro``, ``repro.api`` and each subpackage's
    ``__all__`` resolves and is in ``dir()``; an unknown name is an
    ``AttributeError`` naming the module. Fresh, so no earlier import
    resolved anything first; DeprecationWarnings are errors."""
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning", "-c", _RESOLVE],
        cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=300, check=True,
    )
    report = json.loads(out.stdout.splitlines()[-1])
    assert len(report) == 19  # repro, repro.api and 17 subpackages
    for name, found in report.items():
        assert found["unresolved"] == [], name
        assert found["unlisted"] == [], name
        assert found["unknown"] == (
            f"module {name!r} has no attribute 'no_such_name'"
        )


def test_surrogate_alias_is_gone():
    with pytest.raises(AttributeError):
        api.Surrogate


def test_facade_unknown_attribute_still_raises():
    with pytest.raises(AttributeError):
        api.does_not_exist


def test_legacy_positional_sweep_grid_is_a_type_error():
    from repro.api import run_slack_sweep

    with pytest.raises(TypeError):
        run_slack_sweep([256], [1e-5], iterations=3, target_compute_s=2.0)


def test_run_slack_sweep_per_knob_keyword_is_a_type_error():
    from repro.api import run_slack_sweep

    with pytest.raises(TypeError, match="workers"):
        run_slack_sweep(workers=2)
