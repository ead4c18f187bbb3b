"""The self-validation jitter, drawn as whole columns, equals its loop.

``repro.model.validation._proxy_profile`` perturbs a proxy baseline's
trace with one log-normal factor per event. It draws them in one call
and scales the ``end`` and ``nbytes`` columns at once; the oracle
(``tests/oracles/trace.py::jittered_reference``) draws them one event
at a time and appends each perturbed event. Both must give the same
trace: the same events and the same store, column for column.
"""

import numpy as np
import pytest

from repro.model.validation import _proxy_profile
from repro.network import SlackModel
from repro.proxy import ProxyConfig, run_proxy
from repro.trace.store import COLUMNS

from ..oracles.trace import jittered_reference


@pytest.fixture(scope="module", params=[1, 2], ids=["1thread", "2threads"])
def baseline(request):
    config = ProxyConfig(matrix_size=512, threads=request.param, iterations=12)
    return config, run_proxy(config, SlackModel.none())


@pytest.mark.parametrize("jitter", [0.05, 0.15, 0.5])
@pytest.mark.parametrize("seed", [0, 7, 42])
def test_columnar_jitter_equals_the_event_loop(baseline, seed, jitter):
    config, result = baseline
    profile = _proxy_profile(config, result, jitter, seed=seed)
    expected = jittered_reference(result.trace, jitter, seed)
    assert list(profile.trace) == list(expected)
    got, want = profile.trace.store, expected.store
    assert got.n == want.n > 0
    for col in COLUMNS:
        a, b = getattr(got, col)[: got.n], getattr(want, col)[: want.n]
        assert a.dtype == b.dtype, col
        assert np.array_equal(a, b), col
    assert got.names == want.names
    assert got.metas == want.metas
    assert profile.trace.name == expected.name

