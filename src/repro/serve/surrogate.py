"""The serving surrogate: vectorized penalty prediction with bounds.

:class:`SurrogateModel` answers the question the DES proxy answers —
what slack penalty does a ``(matrix_size, threads)`` workload pay at a
given slack? — in microseconds instead of seconds, by interpolating
cached sweep measurements with the surface's own log-linear rule and
attaching the cross-validated error bound of the region the query
fell in (:mod:`repro.model.surrogate`).

Two properties make it a *serving* component rather than a lookup
table:

* **Vectorized batches.** All series live in one packed coordinate
  system (per-series shifted log-slack grids), so a batch of queries
  across arbitrary series resolves with a single ``searchsorted`` and
  a handful of numpy gathers — no per-request Python. This is what
  the micro-batching :class:`~repro.serve.PenaltyService` rides to
  its throughput target.
* **A refusing domain.** The surrogate knows what it was fit on and
  declines everything else with a typed
  :class:`SurrogateDomainError` whose ``reason`` is recorded:
  unknown ``(matrix_size, threads)`` series, series too short to
  interpolate, negative or non-finite slack, slack beyond the measured
  grid. A refused unknown, short or above-grid query is the signal for
  the service's cold path to measure the real point and
  :meth:`~SurrogateModel.observe` it back in.

Parity contract: at measured grid points (up to the shared slack
quantization tolerance) predictions equal
:meth:`repro.proxy.SlackResponseSurface.penalty` exactly, with bound
0. :func:`assert_parity` checks this; the serving benchmark runs it
before reporting any speedup.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..model.surrogate import (
    BOUND_SAFETY_FACTOR,
    SURROGATE_METHODS,
    TrainingSeries,
    crossval_bounds,
    extract_training_series,
)
from ..proxy.quantize import slack_bucket
from ..proxy.response import SlackResponseSurface
from ..proxy.sweep import SweepPoint, SweepResult

__all__ = [
    "REFUSAL_REASONS",
    "Prediction",
    "SurrogateDomainError",
    "SurrogateModel",
    "assert_parity",
]

#: Reason codes a :class:`SurrogateDomainError` can carry. The
#: vectorized path reports them as ``index + 1`` (0 = answered).
#: ``non-finite-slack`` (NaN or ±inf) and ``negative-slack`` are caller
#: errors the service's cold path never measures.
REFUSAL_REASONS = (
    "unknown-series",
    "degenerate-series",
    "negative-slack",
    "above-grid",
    "non-finite-slack",
)

_OK = 0
_UNKNOWN_SERIES = 1
_DEGENERATE_SERIES = 2
_NEGATIVE_SLACK = 3
_ABOVE_GRID = 4
_NON_FINITE_SLACK = 5
_REASON_NAMES = dict(enumerate(REFUSAL_REASONS, start=1))

# Threads share the packed int64 series key with the matrix size: a
# series is representable when 1 <= threads < 2**16 and
# 1 <= matrix_size < 2**47. Anything else is an unknown series.
_THREAD_BITS = 16
_THREAD_MASK = (1 << _THREAD_BITS) - 1
_MAX_SIZE = 1 << (63 - _THREAD_BITS)

#: Rows :meth:`SurrogateModel.evaluate` computes per pass. Larger
#: inputs are walked block by block, so its temporaries stay a few
#: hundred kB however many rows a caller sends.
_ROW_BLOCK = 4096


class SurrogateDomainError(LookupError):
    """A query the surrogate refuses to answer, and why.

    ``reason`` is one of :data:`REFUSAL_REASONS`; ``query`` is the
    ``(matrix_size, threads, slack_s)`` triple that was refused. The
    service's cold path catches exactly this error to decide a real
    DES measurement is warranted.
    """

    def __init__(
        self,
        reason: str,
        message: str,
        query: Tuple[int, int, float],
    ) -> None:
        super().__init__(message)
        self.reason = reason
        self.query = query


class Prediction(Tuple[float, float]):
    """A ``(penalty, bound)`` pair with named access."""

    __slots__ = ()

    def __new__(cls, penalty: float, bound: float) -> "Prediction":
        return super().__new__(cls, (penalty, bound))

    @property
    def penalty(self) -> float:
        return self[0]

    @property
    def bound(self) -> float:
        return self[1]


def _pack_key(matrix_size: int, threads: int) -> int:
    return (int(matrix_size) << _THREAD_BITS) | int(threads)


def _series_in_range(matrix_size: int, threads: int) -> bool:
    """Whether ``(matrix_size, threads)`` can name a series at all."""
    return 1 <= threads <= _THREAD_MASK and 1 <= matrix_size < _MAX_SIZE


class SurrogateModel:
    """Bounded-error penalty surrogate over cached sweep points.

    Keyword-only construction from already-extracted training series;
    most callers use :meth:`fit` on a sweep, a surface, or raw points.

    ``method`` selects the interpolation rule: ``"loglinear"`` (the
    surface's own rule, exact parity at measured points — default) or
    ``"pchip"`` (monotone shape-preserving cubic in log-slack, scipy).
    """

    def __init__(
        self,
        *,
        series: Iterable[TrainingSeries],
        method: str = "loglinear",
        safety: float = BOUND_SAFETY_FACTOR,
    ) -> None:
        if method not in SURROGATE_METHODS:
            raise ValueError(
                f"method must be one of {SURROGATE_METHODS}, got {method!r}"
            )
        self.method = method
        self.safety = safety
        #: Refusal counts by reason code, across predict/evaluate.
        self.refusals: Dict[str, int] = {r: 0 for r in REFUSAL_REASONS}
        #: Points folded in through :meth:`observe` (online refinement).
        self.observed_points = 0
        # Mutable training store: (size, threads) -> bucket -> (s, pen).
        self._points: Dict[Tuple[int, int], Dict[str, Tuple[float, float]]] = {}
        for ts in series:
            if not _series_in_range(ts.matrix_size, ts.threads):
                raise ValueError(
                    f"series ({ts.matrix_size}, {ts.threads}) is outside "
                    f"1 <= matrix_size < 2**47, 1 <= threads < 2**16"
                )
            if len(ts.slacks) == 0:
                continue
            store = self._points.setdefault(
                (ts.matrix_size, ts.threads), {}
            )
            for s, p in zip(ts.slacks, ts.penalties):
                store.setdefault(slack_bucket(float(s)), (float(s), float(p)))
        self._pack()

    # -- construction ---------------------------------------------------------
    @classmethod
    def fit(
        cls,
        source: Union[SweepResult, SlackResponseSurface, Sequence[SweepPoint]],
        *,
        method: str = "loglinear",
        safety: float = BOUND_SAFETY_FACTOR,
    ) -> "SurrogateModel":
        """Fit a surrogate from measured sweep data."""
        return cls(
            series=extract_training_series(source, safety=safety),
            method=method,
            safety=safety,
        )

    def _pack(self) -> None:
        """Rebuild the packed vectorized-lookup arrays.

        Every series' ascending log-slack grid is shifted by
        ``series_index * span`` where ``span`` exceeds any single
        series' log-slack range, so one globally sorted array brackets
        a mixed-series batch with a single ``searchsorted`` — the
        shift guarantees a query tagged with its series index can only
        land inside that series' segment.
        """
        keys = sorted(self._points)
        self._keys = np.array(
            [_pack_key(n, t) for (n, t) in keys], dtype=np.int64
        )
        self._series_keys: List[Tuple[int, int]] = keys
        counts = [len(self._points[k]) for k in keys]
        self._counts = np.array(counts, dtype=np.int64)
        self._offsets = np.zeros(len(keys), dtype=np.int64)
        if keys:
            np.cumsum(counts[:-1], out=self._offsets[1:])
        total = int(self._counts.sum())
        self._slacks = np.empty(total)
        self._pen = np.empty(total)
        # Bound of the interval whose *left* endpoint is global index
        # g; the last point of each series holds 0.0 (no interval).
        self._ibound = np.zeros(total)
        self._pchips: Dict[int, object] = {}
        log_min, log_max = 0.0, 1.0
        all_logs: List[np.ndarray] = []
        for idx, key in enumerate(keys):
            pts = sorted(self._points[key].values())
            off = int(self._offsets[idx])
            cnt = len(pts)
            s = np.array([p[0] for p in pts])
            self._slacks[off:off + cnt] = s
            self._pen[off:off + cnt] = [p[1] for p in pts]
            if cnt >= 2:
                self._ibound[off:off + cnt - 1] = crossval_bounds(
                    s, self._pen[off:off + cnt], safety=self.safety
                )
            all_logs.append(np.log(s))
        if all_logs:
            flat = np.concatenate(all_logs)
            log_min, log_max = float(flat.min()), float(flat.max())
        # +10 keeps segments disjoint even after adding the query's
        # quantization tolerance on either side.
        self._span = (log_max - log_min) + 10.0
        self._shifted = np.empty(total)
        for idx in range(len(keys)):
            off = int(self._offsets[idx])
            cnt = int(self._counts[idx])
            self._shifted[off:off + cnt] = (
                np.log(self._slacks[off:off + cnt]) - log_min
                + idx * self._span
            )
        self._log_min = log_min
        # Per-series columns the batch path gathers by series index,
        # and the owning series of every packed point (the snap's
        # same-series test). Every stored series holds >= 1 point.
        first = self._offsets
        self._s_min = self._slacks[first]
        self._s_max = self._slacks[first + self._counts - 1]
        self._pen_first = self._pen[first]
        self._ibound_first = self._ibound[first]
        self._degenerate = self._counts < 2
        self._series_of = np.repeat(
            np.arange(len(keys), dtype=np.int64), self._counts
        )
        if self.method == "pchip":
            for idx, key in enumerate(keys):
                off = int(self._offsets[idx])
                cnt = int(self._counts[idx])
                if cnt >= 2:
                    ts = TrainingSeries(
                        matrix_size=key[0],
                        threads=key[1],
                        slacks=self._slacks[off:off + cnt].copy(),
                        penalties=self._pen[off:off + cnt].copy(),
                        interval_bounds=self._ibound[off:off + cnt - 1].copy(),
                    )
                    self._pchips[idx] = ts.pchip()

    # -- domain introspection -------------------------------------------------
    @property
    def series_keys(self) -> List[Tuple[int, int]]:
        """The fitted ``(matrix_size, threads)`` series, sorted."""
        return list(self._series_keys)

    def series_points(self, matrix_size: int, threads: int) -> int:
        """How many training points a series holds (0 = unknown)."""
        return len(self._points.get((matrix_size, threads), ()))

    def domain(self) -> Dict[str, object]:
        """Machine-readable description of the validated domain."""
        series = []
        for idx, (n, t) in enumerate(self._series_keys):
            off = int(self._offsets[idx])
            cnt = int(self._counts[idx])
            series.append(
                {
                    "matrix_size": n,
                    "threads": t,
                    "points": cnt,
                    "slack_min_s": float(self._slacks[off]) if cnt else None,
                    "slack_max_s": (
                        float(self._slacks[off + cnt - 1]) if cnt else None
                    ),
                    "worst_bound": (
                        float(self._ibound[off:off + cnt - 1].max())
                        if cnt >= 2
                        else None
                    ),
                }
            )
        return {
            "method": self.method,
            "safety": self.safety,
            "series": series,
            "refusal_reasons": list(REFUSAL_REASONS),
        }

    # -- evaluation -----------------------------------------------------------
    def evaluate(
        self,
        matrix_sizes: Sequence[int],
        threads: Sequence[int],
        slacks: Sequence[float],
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized batch prediction.

        Returns ``(penalties, bounds, reasons)`` aligned with the
        inputs: ``reasons[i] == 0`` marks an answered query (penalty
        and cross-validated bound valid); a nonzero entry is a refusal
        code (see :data:`REFUSAL_REASONS` via :meth:`reason_name`)
        with ``penalties[i]`` and ``bounds[i]`` set to NaN. Refusals
        are tallied in :attr:`refusals` but never raise here — the
        scalar :meth:`predict` is the raising form.
        """
        n = np.asarray(matrix_sizes, dtype=np.int64)
        t = np.asarray(threads, dtype=np.int64)
        s = np.asarray(slacks, dtype=np.float64)
        if not (n.shape == t.shape == s.shape):
            raise ValueError("matrix_sizes, threads, slacks must align")
        m = n.shape[0]
        if m <= _ROW_BLOCK:
            pen, bound, reason = self._evaluate_rows(n, t, s)
        else:
            pen = np.empty(m)
            bound = np.empty(m)
            reason = np.empty(m, dtype=np.int64)
            for lo in range(0, m, _ROW_BLOCK):
                rows = slice(lo, lo + _ROW_BLOCK)
                pen[rows], bound[rows], reason[rows] = self._evaluate_rows(
                    n[rows], t[rows], s[rows]
                )
        tally = np.bincount(reason, minlength=len(REFUSAL_REASONS) + 1)
        for code, hits in enumerate(tally.tolist()):
            if code and hits:
                self.refusals[_REASON_NAMES[code]] += hits
        return pen, bound, reason

    def _evaluate_rows(
        self, n: np.ndarray, t: np.ndarray, s: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One straight-line pass over a block of at most ``_ROW_BLOCK``.

        Every row goes through every formula; each row's answer is
        picked at the end by precedence (refusal, zero slack, snap to
        the lower then the upper neighbour, below-grid ramp, interior
        interpolation). Rows whose answer comes from another branch
        compute throwaway values, hence the silenced FP warnings.
        """
        if not len(self._keys):
            reason = np.where(
                np.isfinite(s), _UNKNOWN_SERIES, _NON_FINITE_SLACK
            )
            return np.full(len(s), np.nan), np.full(len(s), np.nan), reason

        # Series resolution: packed keys against the sorted key table.
        # Stored series are all in range, and an in-range pair unpacks
        # back to itself, so the unpack test refuses exactly the
        # out-of-range pairs that could alias a stored key.
        q_keys = (n << _THREAD_BITS) | t
        sidx = self._keys.searchsorted(q_keys)
        np.minimum(sidx, len(self._keys) - 1, out=sidx)
        known = (
            (self._keys[sidx] == q_keys)
            & ((q_keys >> _THREAD_BITS) == n)
            & ((q_keys & _THREAD_MASK) == t)
        )
        s_min = self._s_min[sidx]
        s_max = self._s_max[sidx]
        tol = 1e-12 + 1e-9 * np.abs(s)

        # Refusals, lowest precedence first.
        reason = np.where(s > s_max + tol, _ABOVE_GRID, _OK)
        np.copyto(reason, _NEGATIVE_SLACK, where=s < 0)
        np.copyto(reason, _DEGENERATE_SERIES, where=self._degenerate[sidx])
        np.copyto(reason, _UNKNOWN_SERIES, where=~known)
        np.copyto(reason, _NON_FINITE_SLACK, where=~np.isfinite(s))

        with np.errstate(divide="ignore", invalid="ignore"):
            # One global bracket over the shifted per-series coordinates.
            q = (
                np.log(np.maximum(s, 1e-300)) - self._log_min
                + sidx * self._span
            )
            pos = self._shifted.searchsorted(q)
            lo = np.maximum(pos - 1, 0)
            hi = np.minimum(pos, len(self._shifted) - 1)
            x_lo = self._shifted[lo]
            p_lo = self._pen[lo]
            p_hi = self._pen[hi]
            # Interior: lo/hi bracket the query within its series.
            pen = p_lo + (q - x_lo) / (self._shifted[hi] - x_lo) * (
                p_hi - p_lo
            )
            bound = self._ibound[lo]
            if self._pchips:
                interior = reason == _OK
                self._apply_pchip(pen, interior, sidx, s)
            # Below the measured grid: the surface's linear ramp to
            # zero, certified only as far as the first interval's bound.
            below = s < s_min
            np.copyto(pen, self._pen_first[sidx] * s / s_min, where=below)
            np.copyto(bound, self._ibound_first[sidx], where=below)

        # Quantization snap: a query within tolerance of a measured
        # neighbour in its own series answers with that point exactly,
        # bound 0 — the shared near-miss rule of SweepResult.get and
        # the surface. The lower neighbour wins a tie.
        for g, p_g in ((hi, p_hi), (lo, p_lo)):
            hit = (self._series_of[g] == sidx) & (
                np.abs(self._slacks[g] - s) <= tol
            )
            np.copyto(pen, p_g, where=hit)
            np.copyto(bound, 0.0, where=hit)

        zero = s == 0
        np.copyto(pen, 0.0, where=zero)
        np.copyto(bound, 0.0, where=zero)
        refused = reason != _OK
        np.copyto(pen, np.nan, where=refused)
        np.copyto(bound, np.nan, where=refused)
        return pen, bound, reason

    def _apply_pchip(
        self,
        pen: np.ndarray,
        rows: np.ndarray,
        sidx: np.ndarray,
        s: np.ndarray,
    ) -> None:
        """Overwrite ``rows`` with the per-series PCHIP fit.

        Called before the ramp, snap and zero overrides, which take
        precedence on the rows they claim; outside its fit range PCHIP
        yields NaN and the log-linear value stays.
        """
        for idx, fitted in self._pchips.items():
            sel = rows & (sidx == idx)
            if sel.any():
                values = fitted(np.log(s[sel]))  # type: ignore[operator]
                ok = ~np.isnan(values)
                target = np.flatnonzero(sel)[ok]
                pen[target] = np.maximum(0.0, values[ok])

    def reason_name(self, code: int) -> Optional[str]:
        """Human-readable refusal reason for a nonzero code."""
        return _REASON_NAMES.get(int(code))

    def predict(
        self, matrix_size: int, slack_s: float, threads: int = 1
    ) -> Prediction:
        """One prediction, raising on refusal.

        Argument order mirrors
        :meth:`~repro.proxy.SlackResponseSurface.penalty`. Returns a
        :class:`Prediction` ``(penalty, bound)``; raises
        :class:`SurrogateDomainError` for queries outside the
        validated domain.
        """
        pen, bound, reason = self.evaluate(
            [matrix_size], [threads], [slack_s]
        )
        if reason[0] != _OK:
            name = _REASON_NAMES[int(reason[0])]
            raise SurrogateDomainError(
                name,
                f"surrogate refuses ({name}): matrix_size={matrix_size} "
                f"threads={threads} slack_s={slack_s!r}",
                (matrix_size, threads, slack_s),
            )
        return Prediction(float(pen[0]), float(bound[0]))

    # -- online refinement ----------------------------------------------------
    def observe(
        self,
        matrix_size: int,
        threads: int,
        slack_s: float,
        penalty: float,
    ) -> None:
        """Fold one real measurement into the surrogate.

        The cold path calls this after a DES measurement so the next
        query for the same region is answered warm. The point joins
        its ``(matrix_size, threads)`` series (new series are
        created), bucket-deduplicated like any training point, and the
        packed arrays plus that series' cross-validated bounds are
        rebuilt. A pair no series can carry (see :data:`REFUSAL_REASONS`)
        raises :class:`SurrogateDomainError` ``unknown-series``; a
        non-positive or non-finite slack is ignored.
        """
        if not _series_in_range(matrix_size, threads):
            raise SurrogateDomainError(
                "unknown-series",
                f"no series can hold matrix_size={matrix_size} "
                f"threads={threads}",
                (matrix_size, threads, slack_s),
            )
        if not 0 < slack_s < math.inf:
            return
        store = self._points.setdefault((matrix_size, threads), {})
        store.setdefault(
            slack_bucket(slack_s), (float(slack_s), max(0.0, float(penalty)))
        )
        self.observed_points += 1
        self._pack()


def assert_parity(
    model: SurrogateModel,
    surface: SlackResponseSurface,
    *,
    atol: float = 1e-12,
) -> int:
    """Assert surrogate/surface agreement at every measured point.

    Walks the surface's retained points and checks the surrogate
    prediction matches :meth:`SlackResponseSurface.penalty` within
    ``atol``, with bound 0 (measured points are exact). Returns the
    number of points checked. The serving benchmark runs this before
    reporting any throughput numbers.
    """
    checked = 0
    for p in surface.iter_points():
        if p.slack_s <= 0:
            continue
        expected = surface.penalty(p.matrix_size, p.slack_s, p.threads)
        got = model.predict(p.matrix_size, p.slack_s, p.threads)
        if abs(got.penalty - expected) > atol:
            raise AssertionError(
                f"parity violation at ({p.matrix_size}, {p.threads}, "
                f"{p.slack_s!r}): surrogate {got.penalty!r} "
                f"!= surface {expected!r}"
            )
        if got.bound != 0.0:
            raise AssertionError(
                f"measured point ({p.matrix_size}, {p.threads}, "
                f"{p.slack_s!r}) reported nonzero bound {got.bound!r}"
            )
        checked += 1
    return checked
