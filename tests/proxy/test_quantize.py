"""The shared slack quantization rule and its boundary regression.

One bug class this pins down: ``SweepResult.get`` and
``SlackResponseSurface`` historically rounded slack keys differently,
so a slack that round-tripped through one could miss in the other.
Both now share :mod:`repro.proxy.quantize`, as does surrogate
training extraction — a near-miss query must resolve identically
everywhere.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.proxy import (
    SlackResponseSurface,
    SweepOptions,
    dedupe_slacks,
    run_slack_sweep,
    same_slack,
    slack_bucket,
    slack_tolerance,
    snap_slack,
)
from repro.serve import SurrogateModel

slacks = st.floats(min_value=1e-9, max_value=1e-1, allow_nan=False)


# -- the quantization helpers -------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(s=slacks)
def test_bucket_is_stable_within_tolerance(s):
    tol = slack_tolerance(s)
    assert same_slack(s, s + tol / 2)
    assert same_slack(s, s - tol / 2)
    assert slack_bucket(s) == slack_bucket(snap_slack(s + tol / 2, [s]))


@settings(max_examples=50, deadline=None)
@given(s=slacks)
def test_distinct_slacks_stay_distinct(s):
    assert not same_slack(s, s * 1.01)
    assert snap_slack(s * 1.01, [s]) is None


def test_snap_prefers_the_measured_grid_value():
    grid = [1e-5, 1e-4, 1e-3]
    assert snap_slack(1e-4 * (1 + 5e-10), grid) == 1e-4
    assert snap_slack(2e-4, grid) is None


def test_dedupe_collapses_within_tolerance():
    kept = dedupe_slacks([1e-4, 1e-4 * (1 + 5e-10), 2e-4])
    assert kept == [1e-4, 2e-4]


# -- boundary regression: one rule everywhere ---------------------------------

@pytest.fixture(scope="module")
def tiny_sweep():
    return run_slack_sweep(
        matrix_sizes=[256], slack_values_s=[1e-5, 1e-4], threads=[1],
        iterations=3, target_compute_s=2.0,
        options=SweepOptions(cache=False),
    )


def test_near_miss_resolves_identically_everywhere(tiny_sweep):
    """result.get, the surface, and the surrogate agree on near-misses."""
    surface = SlackResponseSurface(tiny_sweep)
    surrogate = SurrogateModel.fit(tiny_sweep)
    for probe in (1e-4, 1e-4 * (1 + 5e-10), 1e-4 * (1 - 5e-10)):
        point = tiny_sweep.get(256, 1, probe)
        assert point is not None
        expected = max(0.0, point.penalty)
        assert surface.penalty(256, probe, 1) == expected
        got = surrogate.predict(256, probe, 1)
        assert got.penalty == expected
        assert got.bound == 0.0


def test_beyond_tolerance_misses_everywhere(tiny_sweep):
    probe = 1e-4 * 0.99  # interior, far outside the snap tolerance
    with pytest.raises(KeyError):
        tiny_sweep.get(256, 1, probe)
    surface = SlackResponseSurface(tiny_sweep)
    # The surface interpolates (that is its job), but it must not
    # return either measured endpoint verbatim.
    interpolated = surface.penalty(256, probe, 1)
    assert interpolated != surface.penalty(256, 1e-4, 1)
    assert interpolated != surface.penalty(256, 1e-5, 1)


def test_surface_construction_dedupes_near_duplicate_points(tiny_sweep):
    """Jittered duplicates of a measured slack collapse to one column."""
    import dataclasses

    from repro.proxy import SweepResult

    points = list(tiny_sweep.points)
    result = SweepResult()
    for p in points:
        result.add(p)
    for p in points:
        result.add(
            dataclasses.replace(p, slack_s=p.slack_s * (1 + 5e-10))
        )
    surface = SlackResponseSurface(result)
    assert len(list(surface.iter_points())) == len(points)
