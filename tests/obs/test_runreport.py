"""RunReport: collection, serialization, golden schema, rendering."""

import json
from pathlib import Path

import pytest

from repro.obs import (
    RUN_REPORT_SCHEMA_VERSION,
    MetricsRegistry,
    RunReport,
    collecting,
)

GOLDEN = Path(__file__).parent / "golden_runreport.json"

#: The stable document contract: top-level keys and histogram-doc keys.
TOP_LEVEL_KEYS = {
    "schema", "kind", "generated_at", "python", "repro_version",
    "meta", "metrics",
}
HISTOGRAM_KEYS = {"count", "sum", "mean", "min", "p50", "p90", "p99", "max"}


def _sample_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("des.events_dispatched").inc(418)
    reg.gauge("executor.workers").set(4)
    h = reg.histogram("executor.point_wall_s")
    for v in (0.001, 0.002, 0.004):
        h.observe(v)
    return reg


def test_collect_snapshot():
    report = RunReport.collect(
        _sample_registry(), kind="sweep", meta={"iterations": 25}
    )
    assert report.kind == "sweep"
    assert report.meta == {"iterations": 25}
    assert report.sections() == ["des", "executor"]
    assert report.value("des.events_dispatched") == 418
    assert report.value("executor.point_wall_s")["count"] == 3
    with pytest.raises(KeyError):
        report.value("des.nope")
    # Provenance is stamped.
    assert report.generated_at.endswith("Z")
    assert report.python and report.repro_version


def test_json_roundtrip(tmp_path):
    report = RunReport.collect(_sample_registry(), kind="sweep")
    path = report.to_json(tmp_path / "report.json")
    loaded = RunReport.from_json(path)
    assert loaded == report
    assert loaded.to_doc() == report.to_doc()


def test_schema_mismatch_rejected():
    doc = RunReport.collect(_sample_registry()).to_doc()
    doc["schema"] = RUN_REPORT_SCHEMA_VERSION + 1
    with pytest.raises(ValueError):
        RunReport.from_doc(doc)


# -- golden file -------------------------------------------------------------

def test_golden_file_loads_and_roundtrips_byte_identical():
    """The checked-in golden document is stable under load -> dump."""
    text = GOLDEN.read_text()
    report = RunReport.from_json(GOLDEN)
    assert (
        json.dumps(report.to_doc(), indent=1, sort_keys=True) + "\n" == text
    )
    assert report.kind == "sweep"
    assert report.value("des.events_scheduled") == 418.0


def _assert_conforms(doc: dict) -> None:
    """The structural schema every RunReport document must satisfy."""
    assert set(doc) == TOP_LEVEL_KEYS
    assert doc["schema"] == RUN_REPORT_SCHEMA_VERSION
    assert isinstance(doc["kind"], str)
    assert isinstance(doc["meta"], dict)
    assert isinstance(doc["metrics"], dict)
    for section, values in doc["metrics"].items():
        assert isinstance(section, str)
        assert isinstance(values, dict)
        for metric, value in values.items():
            assert isinstance(metric, str)
            if isinstance(value, dict):  # histogram summary
                if value.get("count", 0) == 0:
                    assert set(value) == {"count", "sum"}
                else:
                    assert set(value) == HISTOGRAM_KEYS
            else:
                assert isinstance(value, (int, float))


def test_golden_schema():
    _assert_conforms(json.loads(GOLDEN.read_text()))


def test_live_sweep_report_matches_golden_schema(tmp_path):
    """A freshly collected sweep report obeys the same schema as the
    golden file and covers the DES, fabric, and cache layers."""
    from repro.parallel import PointCache
    from repro.proxy import SweepOptions, run_slack_sweep

    with collecting():
        result = run_slack_sweep(
            matrix_sizes=[256], slack_values_s=[1e-5], threads=[1],
            iterations=3,
            options=SweepOptions(cache=PointCache(tmp_path / "points")),
        )
    assert result.report is not None
    doc = result.report.to_doc()
    _assert_conforms(doc)
    for section in ("des", "gpu", "fabric", "cache", "executor", "sweep"):
        assert section in doc["metrics"], section


def test_render_smoke():
    report = RunReport.collect(
        _sample_registry(), kind="sweep", meta={"iterations": 25}
    )
    text = report.render()
    assert "RunReport kind=sweep" in text
    assert "meta: iterations = 25" in text
    assert "[des]" in text and "[executor]" in text
    assert "events_dispatched" in text
