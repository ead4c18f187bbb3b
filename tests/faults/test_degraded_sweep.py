"""Degraded-mode sweeps: intensity scaling, telemetry, golden report.

``golden_degraded_runreport.json`` pins the deterministic projection
of a degraded sweep's :class:`~repro.obs.RunReport` — the ``meta``
context, the full ``faults.*`` section, and every sweep point — byte
for byte. Wall-clock sections (``executor.*`` timings, ``des`` heap
stats riding on histograms) are machine-dependent and deliberately
excluded; everything in the golden file is covered by the determinism
contract, so a mismatch means the fault layer's *behavior* changed,
not that the test ran on a slower machine.

Regenerate after an intentional behavior change with::

    PYTHONPATH=src python tests/faults/test_degraded_sweep.py
"""

import json
from pathlib import Path

import pytest

from repro.faults import FaultPlan, run_degraded_sweep
from repro.obs import collecting
from repro.proxy import SweepOptions, run_slack_sweep

GOLDEN = Path(__file__).parent / "golden_degraded_runreport.json"

PLAN = FaultPlan.from_spec(
    "seed=42;loss:rate=1%;flap:start=5ms,down=2ms;"
    "spike:start=0,duration=10ms,extra=100us"
)

GRID = dict(
    matrix_sizes=(512,),
    slack_values_s=(1e-4,),
    threads=(1, 2),
    iterations=10,
)


def _degraded_report():
    """One deterministic degraded sweep, metrics on."""
    with collecting():
        sweep = run_slack_sweep(**GRID, options=SweepOptions(faults=PLAN))
    return sweep


def _projection(sweep):
    """The deterministic slice of a degraded sweep's RunReport."""
    report = sweep.report
    return {
        "kind": report.kind,
        "meta": report.meta,
        "faults": report.metrics["faults"],
        "points": [
            [
                p.matrix_size,
                p.threads,
                p.slack_s,
                p.loop_runtime_s,
                p.corrected_runtime_s,
                p.baseline_runtime_s,
            ]
            for p in sweep.points
        ],
        "skipped": [list(s) for s in sweep.skipped],
    }


class TestGoldenReport:
    def test_degraded_report_matches_golden_bit_for_bit(self):
        got = json.dumps(
            _projection(_degraded_report()), indent=1, sort_keys=True
        ) + "\n"
        assert GOLDEN.exists(), (
            f"golden file missing — regenerate with: "
            f"PYTHONPATH=src python {Path(__file__).name}"
        )
        assert got == GOLDEN.read_text()

    def test_report_carries_fault_telemetry(self):
        sweep = _degraded_report()
        faults = sweep.report.metrics["faults"]
        assert faults["injected"] > 0
        assert faults["downtime_s"] > 0
        assert faults["extra_delay_s"] >= faults["downtime_s"]
        assert sweep.report.meta["faults"] == PLAN.to_doc()

    def test_healthy_report_has_no_faults_section(self):
        with collecting():
            sweep = run_slack_sweep(**GRID)
        assert "faults" not in sweep.report.metrics
        assert sweep.report.meta["faults"] is None


class TestDegradedSweep:
    def _result(self, intensities=(0.0, 1.0)):
        return run_degraded_sweep(PLAN, intensities, **GRID)

    def test_intensity_zero_is_the_healthy_sweep(self):
        result = self._result()
        healthy = run_slack_sweep(**GRID)
        assert result.sweep_at(0.0).points == healthy.points

    def test_intensity_one_is_the_plan_as_written(self):
        result = self._result()
        degraded = run_slack_sweep(**GRID, options=SweepOptions(faults=PLAN))
        assert result.sweep_at(1.0).points == degraded.points

    def test_repeated_runs_bit_identical(self):
        a, b = self._result(), self._result()
        for x in a.intensities:
            assert a.sweep_at(x).points == b.sweep_at(x).points

    def test_sweep_at_unknown_intensity_raises(self):
        with pytest.raises(KeyError):
            self._result().sweep_at(0.25)

    def test_penalty_surface_shape(self):
        surface = self._result().penalty_surface(512, 2)
        assert set(surface) == {0.0, 1.0}
        for row in surface.values():
            assert set(row) == {1e-4}
            assert all(p >= 0.0 for p in row.values())

    def test_degraded_runtimes_at_least_healthy(self):
        # Downtime, retries and spikes only ever add simulated time.
        # (The *normalized* penalty may move either way — the faults
        # inflate the degraded baseline too — but absolute runtimes
        # are monotone in fault intensity.)
        result = self._result()
        for healthy, degraded in zip(
            result.sweep_at(0.0).points, result.sweep_at(1.0).points
        ):
            assert degraded.loop_runtime_s >= healthy.loop_runtime_s
            assert degraded.baseline_runtime_s >= healthy.baseline_runtime_s

    def test_faults_totals_per_intensity(self):
        with collecting():
            result = self._result()
        totals = result.faults_totals()
        # The healthy baseline publishes no faults section at all; the
        # shared registry means intensity 1.0 sees the section.
        assert totals[0.0] == {}
        assert totals[1.0]["faults.injected"] > 0

    def test_empty_intensities_rejected(self):
        with pytest.raises(ValueError):
            run_degraded_sweep(PLAN, ())

    def test_negative_intensity_rejected(self):
        with pytest.raises(ValueError):
            run_degraded_sweep(PLAN, (-1.0,))

    def test_invalid_plan_rejected_up_front(self):
        from repro.faults.plan import LinkFlap

        bad = FaultPlan(
            events=(
                LinkFlap(start_s=0.0, down_s=2e-3),
                LinkFlap(start_s=1e-3, down_s=1e-3),
            )
        )
        with pytest.raises(ValueError, match="overlapping"):
            run_degraded_sweep(bad, (1.0,), **GRID)

    def test_empty_plan_in_options_is_the_healthy_fabric(self):
        result = run_degraded_sweep(
            PLAN, (0.0,), **GRID, options=SweepOptions(faults=FaultPlan())
        )
        assert result.sweep_at(0.0).points == run_slack_sweep(**GRID).points


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(
            _projection(_degraded_report()), indent=1, sort_keys=True
        ) + "\n"
    )
    print(f"wrote {GOLDEN}")
