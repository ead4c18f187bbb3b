"""The serving surrogate: parity, bounds, and the refusing domain."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model import (
    BOUND_SAFETY_FACTOR,
    TrainingSeries,
    crossval_bounds,
    extract_training_series,
    interp_penalty,
)
from repro.serve import (
    REFUSAL_REASONS,
    SurrogateDomainError,
    SurrogateModel,
    assert_parity,
)

from .conftest import SIZES, SLACKS, THREADS, make_sweep, penalty_law


# -- training extraction ------------------------------------------------------

def test_extract_training_series_from_all_sources(sweep, surface):
    """Sweep, surface, and raw point list all train identically."""
    by_sweep = extract_training_series(sweep)
    by_surface = extract_training_series(surface)
    by_points = extract_training_series(list(sweep.points))
    assert len(by_sweep) == len(SIZES) * len(THREADS)
    for a, b, c in zip(by_sweep, by_surface, by_points):
        assert (a.matrix_size, a.threads) == (b.matrix_size, b.threads)
        np.testing.assert_array_equal(a.slacks, b.slacks)
        np.testing.assert_array_equal(a.penalties, c.penalties)
        assert a.viable


def test_training_series_sorted_and_positive(sweep):
    for ts in extract_training_series(sweep):
        assert (np.diff(ts.slacks) > 0).all()
        assert (ts.slacks > 0).all()
        assert (ts.penalties >= 0).all()
        assert len(ts.interval_bounds) == len(ts.slacks) - 1


def test_crossval_bounds_zero_for_exactly_loglinear_data():
    """Data that *is* log-linear cross-validates to (near-)zero bounds."""
    slacks = np.logspace(-6, -3, 9)
    x = np.log(slacks)
    penalties = 3.0 + 2.0 * (x - x[0])
    bounds = crossval_bounds(slacks, penalties)
    assert bounds.shape == (8,)
    assert (bounds < 1e-9).all()


def test_crossval_bounds_cover_interior_curvature():
    """Convex data: every interior LOO deviation fits its own bound."""
    slacks = np.logspace(-6, -3, 9)
    penalties = 50.0 * (slacks / 1e-3) ** 0.8
    bounds = crossval_bounds(slacks, penalties)
    for j in range(1, 8):
        loo = interp_penalty(
            slacks[j - 1], penalties[j - 1],
            slacks[j + 1], penalties[j + 1],
            slacks[j],
        )
        dev = abs(loo - penalties[j])
        assert dev <= max(bounds[j - 1], bounds[j])


def test_short_series_bounds_are_infinite():
    slacks = np.array([1e-5, 1e-4])
    bounds = crossval_bounds(slacks, np.array([1.0, 2.0]))
    assert np.isinf(bounds).all()


# -- parity with the surface --------------------------------------------------

def test_parity_at_every_measured_point(model, surface):
    checked = assert_parity(model, surface)
    assert checked == len(SIZES) * len(THREADS) * len(SLACKS)


def test_interior_predictions_match_surface_rule(model, surface):
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.choice(SIZES))
        t = int(rng.choice(THREADS))
        s = float(10 ** rng.uniform(-6.5, -3.0))
        assert model.predict(n, s, t).penalty == pytest.approx(
            surface.penalty(n, s, t), abs=1e-12
        )


def test_zero_slack_is_free(model):
    got = model.predict(512, 0.0, 1)
    assert got.penalty == 0.0 and got.bound == 0.0


def test_below_grid_ramp_matches_surface(model, surface):
    s = float(SLACKS[0]) / 7.0
    assert model.predict(512, s, 1).penalty == pytest.approx(
        surface.penalty(512, s, 1), abs=1e-15
    )


def test_quantization_snap_hits_measured_point(model):
    """A query within the shared tolerance answers exactly, bound 0."""
    s = float(SLACKS[3])
    got = model.predict(512, s * (1 + 5e-10), 1)
    assert got.penalty == penalty_law(512, 1, s)
    assert got.bound == 0.0


# -- the refusing domain ------------------------------------------------------

@pytest.mark.parametrize(
    "query, reason",
    [
        ((4096, 1, 1e-4), "unknown-series"),
        ((512, 3, 1e-4), "unknown-series"),
        ((512, 1, -1e-6), "negative-slack"),
        ((512, 1, float(SLACKS[-1]) * 10), "above-grid"),
    ],
)
def test_refusals_raise_typed_with_reason(model, query, reason):
    n, t, s = query
    with pytest.raises(SurrogateDomainError) as exc:
        model.predict(n, s, t)
    assert exc.value.reason == reason
    assert exc.value.reason in REFUSAL_REASONS
    assert exc.value.query == (n, t, s)


def test_degenerate_series_refuses():
    sweep = make_sweep(sizes=(512,), threads=(1,), slacks=(1e-4,))
    one_point = SurrogateModel.fit(sweep)
    with pytest.raises(SurrogateDomainError) as exc:
        one_point.predict(512, 1e-4, 1)
    assert exc.value.reason == "degenerate-series"


def test_evaluate_refuses_without_raising(model):
    pen, bound, reason = model.evaluate(
        [512, 4096, 512], [1, 1, 1], [1e-4, 1e-4, -1.0]
    )
    assert reason.tolist() == [0, 1, 3]
    assert np.isfinite(pen[0]) and np.isfinite(bound[0])
    assert np.isnan(pen[1:]).all() and np.isnan(bound[1:]).all()
    assert model.reason_name(1) == "unknown-series"
    assert model.reason_name(0) is None


def test_refusals_are_tallied(sweep):
    fresh = SurrogateModel.fit(sweep)
    for _ in range(3):
        with pytest.raises(SurrogateDomainError):
            fresh.predict(4096, 1e-4, 1)
    assert fresh.refusals["unknown-series"] == 3


def test_domain_is_machine_readable(model):
    dom = model.domain()
    assert dom["method"] == "loglinear"
    assert dom["refusal_reasons"] == list(REFUSAL_REASONS)
    assert len(dom["series"]) == len(SIZES) * len(THREADS)
    for entry in dom["series"]:
        assert entry["points"] == len(SLACKS)
        assert entry["slack_min_s"] == pytest.approx(float(SLACKS[0]))
        assert entry["slack_max_s"] == pytest.approx(float(SLACKS[-1]))
        assert entry["worst_bound"] >= 0.0


# -- online refinement --------------------------------------------------------

def test_observe_makes_a_region_warm(sweep):
    fresh = SurrogateModel.fit(sweep)
    with pytest.raises(SurrogateDomainError):
        fresh.predict(1024, 1e-4, 1)
    fresh.observe(1024, 1, 5e-5, 1.0)
    fresh.observe(1024, 1, 1e-4, 2.0)
    got = fresh.predict(1024, 1e-4, 1)
    assert got.penalty == 2.0
    assert fresh.observed_points == 2
    assert fresh.series_points(1024, 1) == 2


def test_observe_ignores_nonpositive_slack(sweep):
    fresh = SurrogateModel.fit(sweep)
    fresh.observe(1024, 1, 0.0, 1.0)
    fresh.observe(1024, 1, -1e-5, 1.0)
    assert fresh.observed_points == 0


# -- pchip method -------------------------------------------------------------

def test_pchip_keeps_measured_point_parity(sweep, surface):
    pchip = SurrogateModel.fit(sweep, method="pchip")
    assert assert_parity(pchip, surface) == len(SIZES) * len(THREADS) * len(
        SLACKS
    )


def test_pchip_interior_is_monotone_between_points(sweep):
    pchip = SurrogateModel.fit(sweep, method="pchip")
    s = np.ascontiguousarray(np.geomspace(SLACKS[0], SLACKS[-1], 200))
    pen, _, reason = pchip.evaluate(
        np.full(len(s), 512), np.ones(len(s), dtype=int), s
    )
    assert (reason == 0).all()
    assert (np.diff(pen) >= -1e-12).all()


def test_unknown_method_rejected(sweep):
    with pytest.raises(ValueError, match="method"):
        SurrogateModel.fit(sweep, method="spline")


# -- property tests -----------------------------------------------------------

class TestHeldOutWithinBound:
    """A held-out in-domain measurement falls within the reported bound.

    The bound is a cross-validated sampling estimate (windowed LOO
    deviation x safety), not a proof — these properties pin it on
    smooth monotone penalty laws of the shape the DES produces.
    """

    @settings(max_examples=40, deadline=None)
    @given(
        scale=st.floats(min_value=0.1, max_value=50.0),
        exponent=st.floats(min_value=0.6, max_value=1.4),
        drop=st.integers(min_value=2, max_value=6),
    )
    def test_power_law(self, scale, exponent, drop):
        slacks = np.logspace(-6, -3, 9)
        law = lambda s: scale * (s / 1e-3) ** exponent
        kept = [s for j, s in enumerate(slacks) if j != drop]
        series = TrainingSeries(
            matrix_size=512,
            threads=1,
            slacks=np.array(kept),
            penalties=np.array([law(s) for s in kept]),
            interval_bounds=crossval_bounds(
                np.array(kept), np.array([law(s) for s in kept])
            ),
        )
        surrogate = SurrogateModel(series=[series])
        held_out = float(slacks[drop])
        got = surrogate.predict(512, held_out, 1)
        assert abs(got.penalty - law(held_out)) <= got.bound

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_synthetic_surface_series(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.choice(SIZES))
        t = int(rng.choice(THREADS))
        drop = int(rng.integers(1, len(SLACKS) - 1))
        kept_slacks = tuple(
            s for j, s in enumerate(SLACKS) if j != drop
        )
        sweep = make_sweep(sizes=(n,), threads=(t,), slacks=kept_slacks)
        surrogate = SurrogateModel.fit(sweep)
        held_out = float(SLACKS[drop])
        got = surrogate.predict(n, held_out, t)
        assert abs(got.penalty - penalty_law(n, t, held_out)) <= got.bound


class TestOutOfDomainAlwaysRefuses:
    @settings(max_examples=30, deadline=None)
    @given(
        size=st.integers(min_value=1, max_value=100_000),
        threads=st.integers(min_value=1, max_value=64),
        slack=st.floats(
            min_value=1e-9, max_value=1.0, allow_nan=False
        ),
    )
    def test_unknown_series_or_above_grid(self, model, size, threads, slack):
        in_series = size in SIZES and threads in THREADS
        above = slack > float(SLACKS[-1]) * (1 + 1e-6)
        if in_series and not above:
            return  # in-domain; covered by the parity tests
        with pytest.raises(SurrogateDomainError) as exc:
            model.predict(size, slack, threads)
        expected = "above-grid" if in_series else "unknown-series"
        assert exc.value.reason == expected

    @settings(max_examples=20, deadline=None)
    @given(slack=st.floats(min_value=-1.0, max_value=-1e-12))
    def test_negative_slack(self, model, slack):
        with pytest.raises(SurrogateDomainError) as exc:
            model.predict(512, slack, 1)
        assert exc.value.reason == "negative-slack"


def test_bound_safety_factor_exported():
    assert BOUND_SAFETY_FACTOR == 2.0
