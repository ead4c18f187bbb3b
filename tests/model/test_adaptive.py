"""Error-bounded adaptive sweep refinement vs the dense ground truth."""

import numpy as np
import pytest

from repro.model import DEFAULT_TOL, adaptive_slack_sweep
from repro.model.adaptive import _interp_penalty
from repro.obs import collecting
from repro.proxy import SlackResponseSurface, SweepOptions, run_slack_sweep

SIZES = (2**11, 2**13)
THREADS = (1, 2)
UNIFORM_GRID = list(np.logspace(-6, -2, 17))


def _worst_predicted_deviation(res, dense):
    """Max |predicted - dense| clamped penalty over predicted points."""
    worst = 0.0
    for p in res.dense.points:
        if res.bounds[(p.matrix_size, p.threads, p.slack_s)] == 0.0:
            continue
        q = dense.get(p.matrix_size, p.threads, p.slack_s)
        worst = max(
            worst, abs(max(0.0, p.penalty) - max(0.0, q.penalty))
        )
    return worst


class TestParity:
    def test_measured_points_bit_identical_to_dense(self):
        dense = run_slack_sweep(
            matrix_sizes=SIZES, slack_values_s=UNIFORM_GRID,
            threads=THREADS, iterations=25,
        )
        res = adaptive_slack_sweep(
            SIZES, UNIFORM_GRID, threads=THREADS, iterations=25
        )
        assert res.measured.points  # sanity: something was measured
        for p in res.measured.points:
            assert p == dense.get(p.matrix_size, p.threads, p.slack_s)

    def test_predicted_within_tol_on_uniform_grid(self):
        dense = run_slack_sweep(
            matrix_sizes=SIZES, slack_values_s=UNIFORM_GRID,
            threads=THREADS, iterations=25,
        )
        res = adaptive_slack_sweep(
            SIZES, UNIFORM_GRID, threads=THREADS, iterations=25,
            options=SweepOptions(adaptive=True, tol=1e-3),
        )
        assert res.predicted_points > 0
        assert _worst_predicted_deviation(res, dense) <= 1e-3

    @pytest.mark.parametrize("seed", [0, 3, 7, 9])
    def test_predicted_within_tol_on_seeded_random_grids(self, seed):
        # Random log-uniform grids; single-thread series (the smooth
        # regime the certification bound covers — see the module
        # docstring on multi-thread beat effects at tiny iteration
        # counts).
        rng = np.random.default_rng(seed)
        grid = sorted(10 ** rng.uniform(-6, -2, 21))
        dense = run_slack_sweep(
            matrix_sizes=SIZES, slack_values_s=grid, threads=(1,), iterations=25
        )
        res = adaptive_slack_sweep(
            SIZES, grid, threads=(1,), iterations=25,
            options=SweepOptions(adaptive=True, tol=1e-3),
        )
        assert res.predicted_points > 0
        assert _worst_predicted_deviation(res, dense) <= 1e-3

    def test_dense_result_covers_full_grid_with_bounds(self):
        res = adaptive_slack_sweep(
            SIZES, UNIFORM_GRID, threads=THREADS, iterations=25
        )
        n = len(UNIFORM_GRID)
        assert len(res.dense.points) == len(SIZES) * len(THREADS) * n
        for p in res.dense.points:
            key = (p.matrix_size, p.threads, p.slack_s)
            assert key in res.bounds
            assert res.error_bound(*key) >= 0.0
        # Measured points carry an exact-zero bound (predicted points
        # in flat zero-penalty regions can too, so >= not ==).
        for p in res.measured.points:
            assert res.error_bound(p.matrix_size, p.threads, p.slack_s) == 0.0
        zero_bounds = sum(1 for b in res.bounds.values() if b == 0.0)
        assert zero_bounds >= len(res.measured.points)
        assert res.max_error >= 0.0

    def test_surface_reproduces_predictions(self):
        # Feeding the dense result to the response surface returns the
        # adaptive predictions exactly: the synthesized points inverted
        # the same clamped log-linear interpolation the surface applies.
        res = adaptive_slack_sweep(
            SIZES, UNIFORM_GRID, threads=(1,), iterations=25
        )
        surface = SlackResponseSurface(res.dense)
        for p in res.dense.points:
            assert surface.penalty(
                p.matrix_size, p.slack_s, p.threads
            ) == pytest.approx(max(0.0, p.penalty), abs=1e-12)


class TestEconomy:
    def test_measures_at_most_40_percent_of_dense_grid(self):
        # The acceptance grid: the paper's sizes and threads on a
        # 33-point slack grid. The adaptive sweep must resolve it from
        # at most 40% of the dense points.
        res = adaptive_slack_sweep(
            (2**9, 2**11, 2**13, 2**15),
            list(np.logspace(-6, -2, 33)),
            threads=(1, 2, 4, 8),
            iterations=40,
        )
        assert res.measured_fraction <= 0.40
        assert res.predicted_points > res.refined_points
        # OOM series (2^15 above 2 threads) are skipped like the dense
        # sweep skips them.
        skipped_keys = {(n, t) for n, t, _ in res.dense.skipped}
        assert (2**15, 4) in skipped_keys and (2**15, 8) in skipped_keys

    def test_point_cache_shared_with_dense_sweeps(self, tmp_path):
        from repro.parallel import PointCache

        cache = PointCache(tmp_path / "points")
        res = adaptive_slack_sweep(
            (2**11,), UNIFORM_GRID, threads=(1,), iterations=25,
            options=SweepOptions(cache=cache),
        )
        assert res.measured.timing.cached == 0
        # A dense sweep over the same grid reuses every adaptive point.
        dense = run_slack_sweep(
            matrix_sizes=(2**11,), slack_values_s=UNIFORM_GRID,
            threads=(1,), iterations=25, options=SweepOptions(cache=cache),
        )
        assert dense.timing.cached == res.measured_grid_points
        for p in res.measured.points:
            assert p == dense.get(p.matrix_size, p.threads, p.slack_s)


class TestWiring:
    def test_run_slack_sweep_adaptive_returns_dense_view(self):
        res = adaptive_slack_sweep(
            (2**11,), UNIFORM_GRID, threads=(1,), iterations=25
        )
        via_sweep = run_slack_sweep(
            matrix_sizes=(2**11,), slack_values_s=UNIFORM_GRID,
            threads=(1,), iterations=25, options=SweepOptions(adaptive=True),
        )
        assert via_sweep.points == res.dense.points

    def test_options_tol_reaches_the_sweep(self):
        grid = list(np.logspace(-6, -2, 9))
        default = adaptive_slack_sweep(
            (2**11,), grid, iterations=25,
            options=SweepOptions(adaptive=True),
        )
        loose = adaptive_slack_sweep(
            (2**11,), grid, iterations=25,
            options=SweepOptions(adaptive=True, tol=0.5),
        )
        assert default.tol == DEFAULT_TOL
        assert loose.tol == 0.5
        assert loose.measured_grid_points < default.measured_grid_points

    def test_tol_requires_adaptive(self):
        with pytest.raises(ValueError, match="adaptive"):
            run_slack_sweep(
                matrix_sizes=(2**11,), slack_values_s=[1e-5, 1e-4],
                iterations=25, options=SweepOptions(tol=1e-3),
            )

    def test_invalid_inputs(self):
        with pytest.raises(ValueError, match="positive"):
            adaptive_slack_sweep(
                (2**11,), [1e-5], iterations=25,
                options=SweepOptions(adaptive=True, tol=0.0),
            )
        with pytest.raises(ValueError, match="non-empty"):
            adaptive_slack_sweep((2**11,), [], iterations=25)
        with pytest.raises(ValueError, match="positive slack"):
            adaptive_slack_sweep((2**11,), [0.0, 1e-5], iterations=25)

    def test_metrics_published(self):
        with collecting() as reg:
            res = adaptive_slack_sweep(
                (2**11,), UNIFORM_GRID, threads=(1,), iterations=25
            )
        assert reg.counter("sweep.adaptive.seed_points").value == (
            res.seed_points
        )
        assert reg.counter("sweep.adaptive.refined_points").value == (
            res.refined_points
        )
        assert reg.counter("sweep.adaptive.skipped_points").value == (
            res.predicted_points
        )
        assert reg.counter("sweep.runs").value == 1
        assert res.dense.report is not None
        assert res.dense.report.meta["adaptive"] is True
        assert res.dense.report.meta["tol"] == DEFAULT_TOL

    def test_interp_endpoints_exact(self):
        assert _interp_penalty(1e-5, 0.1, 1e-3, 0.3, 1e-5) == 0.1
        assert _interp_penalty(1e-5, 0.1, 1e-3, 0.3, 1e-3) == 0.3
        mid = _interp_penalty(1e-5, 0.1, 1e-3, 0.3, 1e-4)
        assert mid == pytest.approx(0.2)
