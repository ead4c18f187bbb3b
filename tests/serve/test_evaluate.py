"""The single-pass batch ``evaluate`` against its stage-by-stage oracle.

:func:`tests.oracles.surrogate.masked_evaluate` decides each row stage
by stage on boolean-mask subsets; the product computes every row in
one straight-line pass. They must agree bit for bit on penalties,
bounds, reasons and refusal tallies, under both interpolation methods,
for any mix of answered and refused rows, and however the rows are
split into calls or row blocks.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.serve.surrogate as surrogate_module
from repro.model import (
    TrainingSeries,
    crossval_bounds,
    extract_training_series,
)
from repro.serve import REFUSAL_REASONS, SurrogateDomainError, SurrogateModel

from ..oracles.surrogate import masked_evaluate
from .conftest import SIZES, SLACKS, THREADS, make_sweep

#: A one-point series next to the fitted grid: always degenerate.
DEGENERATE = (4096, 1)

#: A series whose first points sit inside the 1e-12 s absolute floor
#: of the snap tolerance, so one query can be within tolerance of two
#: measured neighbours (the lower one must win) and a tolerance
#: boundary can be hit exactly.
TINY = (512, 4)
TINY_SLACKS = (1.000287562209372e-12, 1.7e-12, 2.5e-12, 1e-9, 1e-6)
#: ``abs(TINY_SLACKS[0] - s) == 1e-12 + 1e-9 * abs(s)`` holds exactly
#: in float64 for this ``s``: the snap tolerance is inclusive.
TINY_BOUNDARY = 2.8756220908444614e-16

METHODS = ["loglinear", "pchip"]


def build_model(method):
    series = extract_training_series(make_sweep())
    series.append(
        TrainingSeries(
            matrix_size=DEGENERATE[0],
            threads=DEGENERATE[1],
            slacks=np.array([1e-4]),
            penalties=np.array([1.0]),
            interval_bounds=np.array([]),
        )
    )
    slacks = np.array(TINY_SLACKS)
    penalties = np.array([0.5, 0.75, 1.0, 4.0, 9.0])
    series.append(
        TrainingSeries(
            matrix_size=TINY[0],
            threads=TINY[1],
            slacks=slacks,
            penalties=penalties,
            interval_bounds=crossval_bounds(slacks, penalties),
        )
    )
    return SurrogateModel(series=series, method=method)


MODELS = {method: build_model(method) for method in METHODS}

S_MIN, S_MAX = float(SLACKS[0]), float(SLACKS[-1])
known = st.tuples(st.sampled_from(SIZES), st.sampled_from(THREADS))
unknown = st.one_of(
    st.tuples(st.sampled_from([1024, 8192]), st.sampled_from(THREADS)),
    st.tuples(st.sampled_from(SIZES), st.sampled_from([3, 7])),
    # Outside the packable range: must not alias a fitted series.
    st.tuples(
        st.sampled_from([0, -512, (1 << 48) | 512]),
        st.sampled_from([1, 2]),
    ),
    st.tuples(
        st.sampled_from(SIZES),
        st.sampled_from([0, -1, 1 << 16, (512 << 16) | 1, (2048 << 16) | 2]),
    ),
)
on_grid = st.sampled_from([float(s) for s in SLACKS])
slack_kinds = st.one_of(
    on_grid,
    st.tuples(on_grid, st.sampled_from([1 + 1e-10, 1 - 1e-10])).map(
        lambda p: p[0] * p[1]
    ),
    st.floats(min_value=-6.0, max_value=-3.0).map(lambda x: 10.0**x),
    st.floats(min_value=1e-6, max_value=1.0 - 1e-6).map(lambda u: S_MIN * u),
    st.floats(min_value=1e-6, max_value=10.0).map(lambda u: S_MAX * (1 + u)),
    st.floats(min_value=-9.0, max_value=0.0).map(lambda x: -(10.0**x)),
    st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf]),
)
tiny_slacks = st.one_of(
    slack_kinds,
    st.sampled_from(TINY_SLACKS + (TINY_BOUNDARY,)),
    st.floats(min_value=-21.0, max_value=-11.0).map(lambda x: 10.0**x),
)
rows = st.one_of(
    st.tuples(known, slack_kinds),
    st.tuples(st.just(TINY), tiny_slacks),
    st.tuples(st.just(DEGENERATE), slack_kinds),
    st.tuples(unknown, slack_kinds),
).map(lambda r: (r[0][0], r[0][1], r[1]))
batches = st.lists(rows, min_size=1, max_size=300)


def columns(batch):
    n, t, s = zip(*batch)
    return list(n), list(t), list(s)


def assert_same(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b, equal_nan=True)


@pytest.mark.parametrize("method", METHODS)
@settings(max_examples=150, deadline=None)
@given(batch=batches)
def test_evaluate_matches_masked_oracle(method, batch):
    model = MODELS[method]
    n, t, s = columns(batch)
    before = dict(model.refusals)
    got = model.evaluate(n, t, s)
    tally = {r: model.refusals[r] - before[r] for r in REFUSAL_REASONS}
    *want, want_tally = masked_evaluate(model, n, t, s)
    assert_same(got, want)
    assert tally == want_tally


@pytest.mark.parametrize("method", METHODS)
@settings(max_examples=60, deadline=None)
@given(
    batch=batches,
    block=st.integers(min_value=1, max_value=40),
    cuts=st.lists(st.integers(min_value=0, max_value=300), max_size=6),
)
def test_one_call_equals_concatenated_chunks(method, batch, block, cuts):
    """Chunk edges and row-block edges fall anywhere, independently."""
    model = MODELS[method]
    n, t, s = columns(batch)
    edges = sorted({0, len(batch), *(c for c in cuts if c < len(batch))})
    with mock.patch.object(surrogate_module, "_ROW_BLOCK", block):
        whole = model.evaluate(n, t, s)
        parts = [
            model.evaluate(n[a:b], t[a:b], s[a:b])
            for a, b in zip(edges, edges[1:])
        ]
    joined = [np.concatenate(col) for col in zip(*parts)]
    assert_same(whole, joined)
    *want, _ = masked_evaluate(model, n, t, s)
    assert_same(whole, want)


@pytest.mark.parametrize("method", METHODS)
def test_row_blocks_at_the_real_block_size(method):
    model = MODELS[method]
    block = surrogate_module._ROW_BLOCK
    m = 2 * block + 5
    rng = np.random.default_rng(11)
    n = rng.choice([512, 2048, 1024], m)
    t = rng.choice([1, 2], m)
    s = 10.0 ** rng.uniform(-7, -2, m)
    s[rng.choice(m, 50, replace=False)] = np.nan
    before = dict(model.refusals)
    whole = model.evaluate(n, t, s)
    tally = {r: model.refusals[r] - before[r] for r in REFUSAL_REASONS}
    *want, want_tally = masked_evaluate(model, n, t, s)
    assert_same(whole, want)
    assert tally == want_tally
    edges = [0, block - 3, block + 3, 2 * block + 1, m]
    parts = [
        model.evaluate(n[a:b], t[a:b], s[a:b])
        for a, b in zip(edges, edges[1:])
    ]
    assert_same(whole, [np.concatenate(col) for col in zip(*parts)])


def test_snap_tolerance_is_inclusive_and_lower_neighbour_wins():
    model = MODELS["loglinear"]
    first = TINY_SLACKS[0]
    s = TINY_BOUNDARY
    assert abs(first - s) == 1e-12 + 1e-9 * abs(s)
    # 1.3e-12 lies within tolerance of both 1.0e-12 and 1.7e-12.
    pen, bound, reason = model.evaluate([512, 512], [4, 4], [s, 1.3e-12])
    assert reason.tolist() == [0, 0]
    assert pen.tolist() == [0.5, 0.5]
    assert bound.tolist() == [0.0, 0.0]


def test_empty_batch_and_empty_model():
    model = MODELS["loglinear"]
    pen, bound, reason = model.evaluate([], [], [])
    assert pen.shape == bound.shape == reason.shape == (0,)
    empty = SurrogateModel(series=[])
    pen, bound, reason = empty.evaluate([512, 512], [1, 1], [1e-4, np.nan])
    assert reason.tolist() == [1, 5]
    assert np.isnan(pen).all() and np.isnan(bound).all()
    assert empty.refusals["unknown-series"] == 1
    assert empty.refusals["non-finite-slack"] == 1
    # A series with no points is no series: series_points reads 0.
    no_points = TrainingSeries(
        matrix_size=512,
        threads=1,
        slacks=np.array([]),
        penalties=np.array([]),
        interval_bounds=np.array([]),
    )
    hollow = SurrogateModel(series=[no_points])
    assert hollow.series_keys == [] and hollow.series_points(512, 1) == 0
    assert hollow.evaluate([512], [1], [1e-4])[2].tolist() == [1]


# -- non-finite slack ---------------------------------------------------------

@pytest.mark.parametrize("slack", [np.nan, np.inf, -np.inf])
def test_non_finite_slack_is_refused(slack):
    model = SurrogateModel.fit(make_sweep())
    code = REFUSAL_REASONS.index("non-finite-slack") + 1
    pen, bound, reason = model.evaluate([512, 1024], [1, 1], [slack, slack])
    # Before the series is even looked up: the cold path must never
    # see a slack it cannot measure.
    assert reason.tolist() == [code, code]
    assert np.isnan(pen).all() and np.isnan(bound).all()
    assert model.refusals["non-finite-slack"] == 2
    with pytest.raises(SurrogateDomainError) as exc:
        model.predict(512, slack, 1)
    assert exc.value.reason == "non-finite-slack"


# -- packed-key range ---------------------------------------------------------

@pytest.mark.parametrize(
    "size, threads",
    [
        (512, (512 << 16) | 1),
        (512, 1 << 16),
        (512, 0),
        (512, -1),
        (0, 1),
        (-512, 1),
        ((1 << 48) | 512, 1),
    ],
)
def test_out_of_range_series_is_unknown(size, threads):
    model = SurrogateModel.fit(make_sweep())
    pen, bound, reason = model.evaluate([size], [threads], [1e-4])
    assert reason.tolist() == [1]
    assert np.isnan(pen[0]) and np.isnan(bound[0])
    with pytest.raises(SurrogateDomainError) as exc:
        model.predict(size, 1e-4, threads)
    assert exc.value.reason == "unknown-series"
    assert model.series_points(size, threads) == 0


@pytest.mark.parametrize("size, threads", [(512, (512 << 16) | 1), (0, 1)])
def test_observe_refuses_out_of_range_series(size, threads):
    model = SurrogateModel.fit(make_sweep())
    with pytest.raises(SurrogateDomainError) as exc:
        model.observe(size, threads, 1e-4, 1.0)
    assert exc.value.reason == "unknown-series"
    assert model.observed_points == 0
    assert model.series_keys == SurrogateModel.fit(make_sweep()).series_keys


def test_observe_ignores_non_finite_slack():
    model = SurrogateModel.fit(make_sweep())
    for slack in (np.nan, np.inf):
        model.observe(1024, 1, slack, 1.0)
    assert model.observed_points == 0
    assert model.series_points(1024, 1) == 0


def test_constructor_rejects_out_of_range_series():
    bad = TrainingSeries(
        matrix_size=512,
        threads=1 << 16,
        slacks=np.array([1e-4]),
        penalties=np.array([1.0]),
        interval_bounds=np.array([]),
    )
    with pytest.raises(ValueError, match="outside"):
        SurrogateModel(series=[bad])
