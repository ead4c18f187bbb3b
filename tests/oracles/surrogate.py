"""Reference for :meth:`repro.serve.SurrogateModel.evaluate`.

:func:`masked_evaluate` is the stage-by-stage form of the surrogate's
batch prediction: each stage (refusals, zero slack, above-grid, the
quantization snap, the below-grid ramp, interior interpolation and
the PCHIP overwrite) works on the boolean-mask subset of rows still
undecided after the stages before it. It reads the model's packed
arrays, so it evaluates exactly the data the product does.

The product computes every row in one straight-line pass and picks
each row's answer at the end; the two must agree bit for bit,
including the refusal tallies. The domain rules are the product's:
non-finite slack is refused before anything else, and a
``(matrix_size, threads)`` pair outside the packable range is an
unknown series.
"""

from typing import Dict, Tuple

import numpy as np

from repro.serve import REFUSAL_REASONS

_OK = 0
_UNKNOWN_SERIES = 1
_DEGENERATE_SERIES = 2
_NEGATIVE_SLACK = 3
_ABOVE_GRID = 4
_NON_FINITE_SLACK = 5

_THREAD_BITS = 16


def masked_evaluate(
    model, matrix_sizes, threads, slacks
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Dict[str, int]]:
    """``(penalties, bounds, reasons, tally)`` for one batch.

    ``tally`` maps each reason name to the number of rows refused
    with it; the model's own :attr:`refusals` are left untouched.
    """
    n = np.asarray(matrix_sizes, dtype=np.int64)
    t = np.asarray(threads, dtype=np.int64)
    s = np.asarray(slacks, dtype=np.float64)
    m = n.shape[0]
    pen = np.full(m, np.nan)
    bound = np.full(m, np.nan)
    reason = np.zeros(m, dtype=np.int64)
    if m:
        _evaluate_into(model, n, t, s, pen, bound, reason)
    tally = {
        name: int((reason == code).sum())
        for code, name in enumerate(REFUSAL_REASONS, start=1)
    }
    return pen, bound, reason, tally


def _evaluate_into(model, n, t, s, pen, bound, reason) -> None:
    m = n.shape[0]
    in_range = (n >= 1) & (n < (1 << (63 - _THREAD_BITS)))
    in_range &= (t >= 1) & (t < (1 << _THREAD_BITS))
    q_keys = (n << _THREAD_BITS) | t
    if len(model._keys):
        sidx = np.searchsorted(model._keys, q_keys)
        sidx = np.minimum(sidx, len(model._keys) - 1)
        known = (model._keys[sidx] == q_keys) & in_range
    else:
        sidx = np.zeros(m, dtype=np.int64)
        known = np.zeros(m, dtype=bool)
    reason[~known] = _UNKNOWN_SERIES

    degenerate = known & (model._counts[sidx] < 2)
    reason[degenerate] = _DEGENERATE_SERIES
    negative = (reason == _OK) & (s < 0)
    reason[negative] = _NEGATIVE_SLACK
    reason[~np.isfinite(s)] = _NON_FINITE_SLACK

    live = reason == _OK
    zero = live & (s == 0)
    pen[zero] = 0.0
    bound[zero] = 0.0
    live &= ~zero
    if not live.any():
        return

    off = model._offsets[sidx]
    cnt = model._counts[sidx]
    last = off + cnt - 1
    s_min = np.where(live, model._slacks[np.where(live, off, 0)], 1.0)
    s_max = np.where(live, model._slacks[np.where(live, last, 0)], 1.0)
    tol = 1e-12 + 1e-9 * np.abs(s)

    above = live & (s > s_max + tol)
    reason[above] = _ABOVE_GRID
    live &= ~above
    if not live.any():
        return

    safe_s = np.where(live, np.maximum(s, 1e-300), 1.0)
    q = np.log(safe_s) - model._log_min + sidx * model._span
    pos = np.searchsorted(model._shifted, q)
    top = max(0, len(model._slacks) - 1)

    snapped = np.zeros(m, dtype=bool)
    for nb in (pos - 1, pos):
        g = np.clip(nb, 0, top)
        in_series = (g >= off) & (g <= last)
        hit = (
            live
            & ~snapped
            & in_series
            & (np.abs(model._slacks[g] - s) <= tol)
        )
        pen[hit] = model._pen[g[hit]]
        bound[hit] = 0.0
        snapped |= hit
    live &= ~snapped

    below = live & (s < s_min)
    if below.any():
        o = off[below]
        pen[below] = model._pen[o] * s[below] / model._slacks[o]
        bound[below] = model._ibound[o]
        live &= ~below

    if live.any():
        hi = np.clip(pos, 0, top)
        lo = np.clip(pos - 1, 0, top)
        t_frac = (q[live] - model._shifted[lo[live]]) / (
            model._shifted[hi[live]] - model._shifted[lo[live]]
        )
        pen[live] = model._pen[lo[live]] + t_frac * (
            model._pen[hi[live]] - model._pen[lo[live]]
        )
        bound[live] = model._ibound[lo[live]]
        for idx, fitted in model._pchips.items():
            sel = live & (sidx == idx)
            if sel.any():
                values = fitted(np.log(s[sel]))
                ok = ~np.isnan(values)
                target = np.flatnonzero(sel)[ok]
                pen[target] = np.maximum(0.0, values[ok])
