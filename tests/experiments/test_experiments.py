"""Integration tests: every paper artifact reproduces its shape.

These run the actual experiment pipeline (quick configuration). The
proxy response surface is cached on disk after the first run, so the
first invocation on a fresh checkout takes a couple of minutes and
subsequent runs are fast.
"""

import pytest

from repro.experiments import (
    ExperimentContext,
    experiment_ids,
    run_experiment,
)


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext(quick=True)


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        ids = experiment_ids()
        # 13 paper artifacts + 10 prose-claim extensions.
        assert len(ids) == 23
        for required in ("table1", "table2", "table3", "table4",
                         "figure1", "figure2", "figure3", "figure4",
                         "figure5", "validation", "discussion",
                         "ext_collectives", "ext_congestion",
                         "ext_preload", "ext_power"):
            assert required in ids

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            run_experiment("nope")


class TestTable1:
    def test_runtimes_within_tolerance_of_paper(self, ctx):
        result = run_experiment("table1", ctx)
        deltas = result.tables[0].column("Delta %")
        assert all(abs(d) < 7 for d in deltas)

    def test_atom_counts_cubic(self, ctx):
        result = run_experiment("table1", ctx)
        atoms = result.tables[0].column("Total Atoms")
        assert atoms == [32000, 864000, 2048000, 4000000, 6912000]


class TestFigure2:
    def test_shape_anchors(self, ctx):
        result = run_experiment("figure2", ctx)
        s = result.series[0]
        box20 = s.lines["Box Size 20"]
        box120 = s.lines["Box Size 120"]
        # box 20 monotonically degrades; box 120 improves massively.
        assert all(b > a for a, b in zip(box20, box20[1:]))
        assert box120[-1] == pytest.approx(0.444, abs=0.03)
        # box 60 at 8 procs (x index 3).
        assert s.lines["Box Size 60"][3] == pytest.approx(0.828, abs=0.02)


class TestOmpScaling:
    def test_headline_rows(self, ctx):
        result = run_experiment("omp_scaling", ctx)
        measured = result.tables[0].column("measured")
        # -52.3% at 6 threads and -76.4% aggregate, within a few points.
        assert abs(float(measured[0].split("%")[0]) - 52.3) < 4
        assert abs(float(measured[1].split("%")[0]) - 76.4) < 4
        # box 200: 48 cores beat 24 (positive improvement).
        assert float(measured[2].split("%")[0]) > 0

    def test_thread_curves_monotone_for_large_boxes(self, ctx):
        result = run_experiment("omp_scaling", ctx)
        line = result.series[0].lines["Box Size 120"]
        assert all(b < a for a, b in zip(line, line[1:]))


class TestCosmoflowCpu:
    def test_flat_scaling(self, ctx):
        result = run_experiment("cosmoflow_cpu", ctx)
        ys = result.series[0].lines["CosmoFlow"]
        # Degrades below 2 cores, flat at and above.
        assert ys[0] > 1.0
        assert all(y == pytest.approx(1.0) for y in ys[1:])


class TestTable2:
    def test_iteration_bounds(self, ctx):
        result = run_experiment("table2", ctx)
        iters = result.tables[0].column("Iterations (N)")
        assert iters[0] == 1000  # 2^9 at the ceiling
        assert 5 <= iters[-1] <= 20  # 2^15 near the floor

    def test_matrix_mib_column(self, ctx):
        result = run_experiment("table2", ctx)
        assert result.tables[0].column("Matrix [MiB]") == [1, 16, 256, 4096]

    def test_kernel_times_monotone(self, ctx):
        result = run_experiment("table2", ctx)
        times = result.tables[0].column("Kernel Runtime [s]")
        assert all(b > a for a, b in zip(times, times[1:]))


class TestFigure3:
    @pytest.fixture(scope="class")
    def result(self, ctx):
        return run_experiment("figure3", ctx)

    def test_four_panels(self, result):
        assert len(result.series) == 4

    def test_no_2_15_above_two_threads(self, result):
        assert 2.0**15 in result.series[0].x
        assert 2.0**15 in result.series[1].x
        assert 2.0**15 not in result.series[2].x
        assert 2.0**15 not in result.series[3].x

    def test_larger_kernels_more_resilient(self, result):
        panel1 = result.series[0]
        line = panel1.lines["slack 10000 us"]
        assert all(b <= a for a, b in zip(line, line[1:]))
        assert line[0] > 10  # 2^9 devastated at 10 ms

    def test_threads_raise_tolerance(self, result):
        at_10ms_512 = [s.lines["slack 10000 us"][0] for s in result.series]
        assert all(b <= a for a, b in zip(at_10ms_512, at_10ms_512[1:]))

    def test_2_13_about_10pct_at_10ms(self, result):
        panel1 = result.series[0]
        idx = panel1.x.index(2.0**13)
        assert panel1.lines["slack 10000 us"][idx] == pytest.approx(1.09, abs=0.03)

    def test_values_never_below_one(self, result):
        for panel in result.series:
            for ys in panel.lines.values():
                assert all(y >= 1.0 for y in ys)


class TestFigure4:
    def test_both_apps_with_total_violin(self, ctx):
        result = run_experiment("figure4", ctx)
        assert len(result.tables) == 2
        for table in result.tables:
            assert table.column("kernel")[-1] == "Total"

    def test_cosmoflow_top5_share_near_half(self, ctx):
        result = run_experiment("figure4", ctx)
        cosmo = result.tables[1]
        note = cosmo.notes[0]
        share = float(note.split("cover ")[1].split("%")[0])
        assert 40 < share < 65  # paper: 49.9%


class TestFigure5:
    def test_directions_and_total(self, ctx):
        result = run_experiment("figure5", ctx)
        for table in result.tables:
            labels = table.column("direction")
            assert "Total" in labels


class TestTable3:
    def test_bin_shapes(self, ctx):
        result = run_experiment("table3", ctx)
        table = result.tables[0]
        rows = {row[0]: row for row in table.rows}
        lam = rows["lammps"]
        # LAMMPS: bulk in the <=16 and <=256 bins, nothing above 256.
        assert lam[2] > 10 * lam[1]
        assert lam[3] > 10 * lam[1]
        assert lam[4] == 0 and lam[5] == 0
        cosmo = rows["cosmoflow"]
        # CosmoFlow: small copies dominate by count; large prefetch
        # transfers populate the <=4096 bin.
        assert cosmo[1] > cosmo[2] and cosmo[1] > cosmo[3]
        assert cosmo[4] > 0
        assert cosmo[5] == 0

    def test_means_near_paper(self, ctx):
        result = run_experiment("table3", ctx)
        table = result.tables[0]
        rows = {row[0]: row for row in table.rows}
        assert rows["lammps"][6] == pytest.approx(16.85, rel=0.25)
        assert rows["cosmoflow"][6] == pytest.approx(34.4, rel=0.35)


class TestTable4:
    @pytest.fixture(scope="class")
    def result(self, ctx):
        return run_experiment("table4", ctx)

    def test_headline_under_one_percent_at_100us(self, result):
        assert any("REPRODUCED" in n for n in result.notes)
        table = result.tables[0]
        for row in table.rows:
            if row[1] == 100.0:
                assert row[3] < 1.0  # upper bound percent

    def test_lower_never_exceeds_upper(self, result):
        for row in result.tables[0].rows:
            assert row[2] <= row[3] + 1e-9

    def test_penalties_grow_with_slack(self, result):
        table = result.tables[0]
        for app in ("lammps", "cosmoflow"):
            uppers = [row[3] for row in table.rows if row[0] == app]
            assert all(b >= a for a, b in zip(uppers, uppers[1:]))


class TestValidation:
    def test_lower_bound_quality(self, ctx):
        result = run_experiment("validation", ctx)
        table = result.tables[0]
        for row in table.rows:
            actual, lower = row[2], row[3]
            tol = max(0.005, 0.06 * actual)
            assert abs(lower - actual) <= tol

    def test_jitter_increases_pessimism(self, ctx):
        result = run_experiment("validation", ctx)
        jt = result.tables[1]
        for row in jt.rows:
            assert row[4] >= row[3]  # jittered upper >= exact upper

    def test_each_distinct_run_simulated_once(self, ctx, monkeypatch):
        # 3 zero-slack baselines + 6 slack runs for the main table, and
        # one baseline + one slack run per row of the jitter table.
        from repro.model import validation

        calls = []
        real = validation.run_proxy

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        ctx.surface()
        monkeypatch.setattr(validation, "run_proxy", counting)
        run_experiment("validation", ctx)
        assert len(calls) <= 13


class TestFigure1:
    def test_slack_grows_with_scale(self, ctx):
        result = run_experiment("figure1", ctx)
        slacks = result.tables[0].column("slack [us]")
        assert slacks[0] == 0  # traditional
        assert all(b > a for a, b in zip(slacks, slacks[1:]))

    def test_all_scales_far_below_100us(self, ctx):
        result = run_experiment("figure1", ctx)
        slacks = result.tables[0].column("slack [us]")
        assert max(slacks) < 100


class TestDiscussion:
    def test_cdi_ratios(self, ctx):
        result = run_experiment("discussion", ctx)
        table = result.tables[0]
        cdi_rows = [r for r in table.rows if r[0] == "CDI"]
        ratios = {r[1]: r[4] for r in cdi_rows}
        assert ratios["lammps"] == pytest.approx(19.2)
        assert ratios["cosmoflow"] == pytest.approx(4.8)
        assert all(r[5] == 0 for r in cdi_rows)  # nothing trapped
