"""Tests for the prose-claim extension experiments."""

import pytest

from repro.experiments import ExperimentContext, run_experiment


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext(quick=True)


class TestCollectives:
    def test_tight_coupling_wins_at_every_world_size(self, ctx):
        result = run_experiment("ext_collectives", ctx)
        s = result.series[0]
        packed = s.lines["chassis-backplane"]
        split = s.lines["cross-chassis"]
        assert all(p < q for p, q in zip(packed, split))

    def test_nvlink_fastest(self, ctx):
        result = run_experiment("ext_collectives", ctx)
        s = result.series[0]
        assert all(
            n < c
            for n, c in zip(s.lines["nvlink3"], s.lines["chassis-backplane"])
        )

    def test_packed_vs_split_gap_meaningful(self, ctx):
        result = run_experiment("ext_collectives", ctx)
        factor = float(result.notes[0].split("(")[1].split("x")[0])
        assert factor > 2.0


class TestCongestion:
    def test_tolerance_headroom_large(self, ctx):
        result = run_experiment("ext_congestion", ctx)
        table = result.tables[0]
        # Every swept utilization point stays within tolerance.
        assert all(row[2] for row in table.rows)
        # The limit utilization is extreme (> 95%).
        limit = float(table.notes[0].split("beyond ")[1].split("%")[0])
        assert limit > 95.0

    def test_slack_grows_with_load(self, ctx):
        result = run_experiment("ext_congestion", ctx)
        slacks = result.tables[0].column("slack [us]")
        assert all(b > a for a, b in zip(slacks, slacks[1:]))


class TestPreload:
    def test_shortfall_tracks_coverage(self, ctx):
        result = run_experiment("ext_preload", ctx)
        table = result.tables[0]
        coverages = table.column("coverage")
        shortfalls = table.column("shortfall [%]")
        # Lower coverage -> larger shortfall.
        pairs = sorted(zip(coverages, shortfalls))
        assert all(
            s2 <= s1 for (_, s1), (_, s2) in zip(pairs, pairs[1:])
        )
        # Full coverage -> zero shortfall.
        assert dict(zip(coverages, shortfalls))[1] == 0


class TestPower:
    def test_cdi_saves_power(self, ctx):
        result = run_experiment("ext_power", ctx)
        table = result.tables[0]
        powers = dict(zip(table.column("scheduler"),
                          table.column("idle power [W]")))
        assert powers["CDI"] == 0
        assert powers["traditional"] > 100


class TestRemoting:
    def test_remoting_overhead_exceeds_cdi(self, ctx):
        result = run_experiment("ext_remoting", ctx)
        for row in result.tables[0].rows:
            cdi, remoting = row[4], row[5]
            assert remoting > 10 * max(cdi, 0.01)


class TestSensitivity:
    def test_ramp_fraction_proportional(self, ctx):
        result = run_experiment("ext_sensitivity", ctx)
        ramp = result.tables[0]
        penalties = ramp.column("penalty [%]")
        # Doubling the fraction roughly doubles the penalty.
        assert penalties[1] == pytest.approx(2 * penalties[0], rel=0.1)
        assert penalties[2] == pytest.approx(2 * penalties[1], rel=0.1)

    def test_cap_anchor_boundary(self, ctx):
        result = run_experiment("ext_sensitivity", ctx)
        cap = result.tables[1]
        holds = dict(zip(cap.column("cap [ms]"), cap.column("anchor holds")))
        assert holds[25.0] is True
        assert holds[125.0] is False


class TestGraphs:
    def test_mitigation_factor_about_five(self, ctx):
        result = run_experiment("ext_graphs", ctx)
        factors = result.tables[0].column("mitigation factor")
        # One call instead of five: ~5x less slack exposure.
        assert all(4.0 < f < 7.0 for f in factors)

    def test_baselines_simulated_once(self, ctx, monkeypatch):
        # Two slack-free baselines plus per-call and graph runs at each
        # of the three slack values.
        from repro.gpusim.flatcore import FlatDevice

        built = []
        run = FlatDevice.run

        def counting_run(self, *args, **kwargs):
            built.append(1)
            return run(self, *args, **kwargs)

        monkeypatch.setattr(FlatDevice, "run", counting_run)
        run_experiment("ext_graphs", ctx)
        assert len(built) == 8


class TestThroughput:
    def test_cdi_wins_on_every_metric(self, ctx):
        result = run_experiment("ext_throughput", ctx)
        rows = {r[0]: r for r in result.tables[0].rows}
        trad, cdi = rows["traditional"], rows["CDI"]
        assert cdi[1] < trad[1]  # makespan
        assert cdi[2] < trad[2]  # mean wait
        assert cdi[4] > trad[4]  # GPU utilization
        assert cdi[5] == 0.0  # trapped GPU-hours


class TestWeakScaling:
    def test_cdi_advantage_at_every_scale(self, ctx):
        result = run_experiment("ext_weak_scaling", ctx)
        advantages = result.tables[0].column("CDI advantage")
        assert all(a > 1.0 for a in advantages)

    def test_fabric_slack_stays_in_microseconds(self, ctx):
        result = run_experiment("ext_weak_scaling", ctx)
        slacks = result.tables[0].column("fabric slack [us]")
        assert all(s < 100 for s in slacks)


class TestResilience:
    def test_redundant_chassis_survive_tor_failure(self, ctx):
        result = run_experiment("ext_resilience", ctx)
        rows = {r[0]: r for r in result.tables[0].rows}
        assert rows["none"][1] == 2
        assert rows["chassis rack's ToR (tor:0)"][1] == 1
        assert rows["one chassis (chassis:0)"][1] == 1

    def test_row_switch_is_spof_for_cross_rack_host(self, ctx):
        result = run_experiment("ext_resilience", ctx)
        rows = {r[0]: r for r in result.tables[0].rows}
        assert rows["the row switch (row:0)"][1] == 0

    def test_surviving_paths_stay_in_tolerance(self, ctx):
        result = run_experiment("ext_resilience", ctx)
        for row in result.tables[0].rows:
            if row[1] > 0:
                assert row[3] is True
