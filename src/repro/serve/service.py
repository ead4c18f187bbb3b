"""Penalty-as-a-service: micro-batched async serving with a DES cold path.

:class:`PenaltyService` turns the :class:`~repro.serve.SurrogateModel`
into a serving component an application scheduler (or a capacity
planner's inner loop) can query at production rates:

* **Bounded intake.** A request is appended to a plain pending list
  together with its answer future; when ``max_queue`` requests are
  already pending the caller gets a typed
  :class:`ServiceOverloadedError` immediately instead of unbounded
  buffering — overload is a signal, not a memory leak.
* **Micro-batching.** One batcher task takes up to ``max_batch``
  pending requests at a time and answers them with a *single*
  vectorized :meth:`~repro.serve.SurrogateModel.evaluate` call. It
  parks on a wake-up future only when the list runs dry, so a busy
  service pays one future per batch, not one queue hand-off per
  request. The per-request Python work is one list append and one
  future resolution; everything else is numpy over the packed series
  arrays.
* **Cold path.** Queries the surrogate refuses (unknown series, slack
  beyond the grid, too-short series) fall back — when a
  :class:`ColdPathConfig` is given — to a *real* DES measurement
  through :func:`repro.proxy.run_slack_sweep`, which brings the
  per-point cache and :class:`~repro.parallel.SweepExecutor` with it
  (a previously-measured point is a cache hit, not a re-simulation).
  The measurement is :meth:`~repro.serve.SurrogateModel.observe`-d
  back into the surrogate, so the region is warm for every later
  query; concurrent misses on the same quantized point share one
  in-flight measurement. Negative or non-finite slack, and a
  ``(matrix_size, threads)`` pair no series can carry, are caller
  errors: they are never measured and raise through.

Telemetry follows the repo's snapshot idiom: the hot path counts into
plain ints, :meth:`PenaltyService.publish` folds them into the active
metrics registry under ``serve.*`` (see
:func:`repro.obs.publish_service`), and :meth:`PenaltyService.report`
wraps that into a ``kind="serve"`` :class:`~repro.obs.RunReport`.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs.report import RunReport
from ..obs.metrics import get_registry
from ..obs.publish import publish_service
from ..proxy.options import SweepOptions
from ..proxy.quantize import slack_bucket
from .surrogate import (
    Prediction,
    SurrogateDomainError,
    SurrogateModel,
    _series_in_range,
)

__all__ = [
    "ColdPathConfig",
    "PenaltyService",
    "ServiceOverloadedError",
    "predict_penalty",
]


class ServiceOverloadedError(RuntimeError):
    """The bounded request queue is full; the caller should back off."""


#: Refusals that are the caller's mistake: the cold path never
#: measures them.
_CALLER_ERRORS = frozenset({"negative-slack", "non-finite-slack"})


@dataclass(frozen=True, kw_only=True)
class ColdPathConfig:
    """How the service measures a refused query for real.

    ``iterations`` / ``target_compute_s`` size the DES proxy run
    (small defaults: the cold path trades a little measurement noise
    for latency; re-fit from a dense sweep for certified bounds).
    ``options`` carries the executor knobs — in particular
    ``cache=True`` makes repeated cold misses across service restarts
    hit the on-disk :class:`~repro.parallel.PointCache` instead of
    re-simulating. ``max_concurrent`` bounds simultaneous DES
    measurements so a burst of distinct cold queries cannot fork an
    unbounded thread pile.
    """

    iterations: int = 6
    target_compute_s: float = 30.0
    options: SweepOptions = SweepOptions(workers=1, cache=True)
    max_concurrent: int = 2


@dataclass
class ServiceStats:
    """Plain-int hot-path counters (see :meth:`PenaltyService.stats`)."""

    requests: int = 0
    answered_warm: int = 0
    refused: int = 0
    overloads: int = 0
    batches: int = 0
    max_batch: int = 0
    queue_high_water: int = 0
    cold_misses: int = 0
    cold_shared: int = 0
    cold_measured_points: int = 0
    cold_wall_s: float = 0.0

    def to_doc(self) -> Dict[str, float]:
        return {
            "requests": self.requests,
            "answered_warm": self.answered_warm,
            "refused": self.refused,
            "overloads": self.overloads,
            "batches": self.batches,
            "max_batch": self.max_batch,
            "queue_high_water": self.queue_high_water,
            "cold_misses": self.cold_misses,
            "cold_shared": self.cold_shared,
            "cold_measured_points": self.cold_measured_points,
            "cold_wall_s": self.cold_wall_s,
        }


class PenaltyService:
    """Async micro-batching front end over a fitted surrogate.

    Keyword-only construction; use as an async context manager (or
    call :meth:`start` / :meth:`stop` explicitly)::

        model = SurrogateModel.fit(sweep)
        async with PenaltyService(surrogate=model) as svc:
            penalty, bound = await svc.predict(4096, 1e-4, threads=2)

    Without a ``cold_path`` the service is pure warm-path: refusals
    raise :class:`~repro.serve.SurrogateDomainError` to the caller.
    """

    def __init__(
        self,
        *,
        surrogate: SurrogateModel,
        max_queue: int = 4096,
        max_batch: int = 1024,
        cold_path: Optional[ColdPathConfig] = None,
    ) -> None:
        if max_queue < 1 or max_batch < 1:
            raise ValueError("max_queue and max_batch must be >= 1")
        self.surrogate = surrogate
        self.max_queue = max_queue
        self.max_batch = max_batch
        self.cold_path = cold_path
        self.stats_counters = ServiceStats()
        # Pending (size, threads, slack, future) items; None while the
        # service is not running. predict/predict_batch append, the
        # batcher takes from the front.
        self._pending: Optional[List[Tuple[Any, Any, Any, Any]]] = None
        # Set only while the batcher is parked on an empty list.
        self._wakeup: Optional[asyncio.Future] = None
        self._stopping = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._batcher: Optional[asyncio.Task] = None
        self._cold_sem: Optional[asyncio.Semaphore] = None
        self._inflight: Dict[Tuple[int, int, str], asyncio.Task] = {}

    # -- lifecycle ------------------------------------------------------------
    async def start(self) -> "PenaltyService":
        """Open the intake and launch the batcher task."""
        if self._batcher is not None:
            return self
        self._loop = asyncio.get_running_loop()
        self._pending = []
        self._stopping = False
        if self.cold_path is not None:
            self._cold_sem = asyncio.Semaphore(self.cold_path.max_concurrent)
        self._batcher = asyncio.create_task(
            self._batch_loop(), name="penalty-service-batcher"
        )
        return self

    async def stop(self) -> None:
        """Answer everything queued, stop the batcher, close the intake.

        Requests submitted while the batcher drains are answered too;
        once it has exited, :meth:`predict` raises ``RuntimeError``.
        """
        if self._batcher is None:
            return
        self._stopping = True
        self._wake()
        await self._batcher
        self._batcher = None
        for task in list(self._inflight.values()):
            try:
                await task
            except Exception:
                pass  # surfaced through the waiter futures already
        self._inflight.clear()

    async def __aenter__(self) -> "PenaltyService":
        return await self.start()

    async def __aexit__(self, *exc: Any) -> None:
        await self.stop()

    # -- request path ---------------------------------------------------------
    async def predict(
        self, matrix_size: int, slack_s: float, threads: int = 1
    ) -> Prediction:
        """One penalty prediction with its error bound.

        Argument order mirrors
        :meth:`~repro.proxy.SlackResponseSurface.penalty`. Raises
        :class:`ServiceOverloadedError` when the bounded queue is
        full, and :class:`~repro.serve.SurrogateDomainError` when the
        query is refused and no cold path can answer it.
        """
        return await self._enqueue(
            int(matrix_size), int(threads), float(slack_s)
        )

    async def predict_many(
        self, queries: List[Tuple[int, float, int]]
    ) -> List[Prediction]:
        """Concurrent form: ``(matrix_size, slack_s, threads)`` triples."""
        return list(
            await asyncio.gather(
                *(self.predict(n, s, t) for (n, s, t) in queries)
            )
        )

    async def predict_batch(
        self,
        matrix_sizes: Sequence[int],
        slack_values_s: Sequence[float],
        threads: Optional[Sequence[int]] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Warm-only vectorized batch: arrays in, arrays out.

        The whole batch occupies one queue slot and one future, and is
        answered inside the batcher's single numpy evaluation — no
        per-element Python anywhere, which is what the ≥100k/s serving
        throughput target rides on. Returns ``(penalties, bounds)``
        aligned with the inputs. The batch path never falls back to
        the cold path: any refused element raises the corresponding
        :class:`~repro.serve.SurrogateDomainError` for the first
        refusal (batch consumers are expected to pre-validate against
        :meth:`~repro.serve.SurrogateModel.domain`, or retry the
        refused element through :meth:`predict`).
        """
        n = np.asarray(matrix_sizes, dtype=np.int64)
        s = np.asarray(slack_values_s, dtype=np.float64)
        t = (
            np.ones(len(n), dtype=np.int64)
            if threads is None
            else np.asarray(threads, dtype=np.int64)
        )
        if not (n.ndim == 1 and n.shape == s.shape == t.shape):
            raise ValueError(
                "matrix_sizes, slack_values_s, threads must be aligned 1-D"
            )
        return await self._enqueue(n, t, s)

    def _enqueue(self, size: Any, threads: Any, slack: Any) -> asyncio.Future:
        """Append one item to the pending list; the future answers it."""
        pending = self._pending
        if pending is None:
            raise RuntimeError(
                "PenaltyService is not running; use 'async with' or start()"
            )
        if len(pending) >= self.max_queue:
            self.stats_counters.overloads += 1
            raise ServiceOverloadedError(
                f"request queue full ({self.max_queue}); back off"
            )
        fut = self._loop.create_future()  # type: ignore[union-attr]
        pending.append((size, threads, slack, fut))
        self._wake()
        return fut

    def _wake(self) -> None:
        wakeup = self._wakeup
        if wakeup is not None:
            self._wakeup = None
            if not wakeup.done():
                wakeup.set_result(None)

    # -- batcher --------------------------------------------------------------
    async def _batch_loop(self) -> None:
        pending = self._pending
        assert pending is not None and self._loop is not None
        st = self.stats_counters
        max_batch = self.max_batch
        while True:
            if not pending:
                if self._stopping:
                    # Close the intake in the same step that saw it
                    # empty, so no request can slip in unanswered.
                    self._pending = None
                    return
                self._wakeup = self._loop.create_future()
                await self._wakeup
                continue
            batch = pending[:max_batch]
            del pending[:max_batch]
            depth = len(batch) + len(pending)
            if depth > st.queue_high_water:
                st.queue_high_water = depth
            self._process(batch)

    def _process(
        self, batch: List[Tuple[Any, Any, Any, asyncio.Future]]
    ) -> None:
        """Answer one drained batch with a single vectorized evaluate.

        Items are either scalar requests (``predict``) or whole array
        batches (``predict_batch``); both concatenate into one
        evaluation, then each item reads back its own slice. Scalar
        answers come from plain lists, never numpy scalars.
        """
        st = self.stats_counters
        st.batches += 1
        sizes: List[int] = []
        thrs: List[int] = []
        slacks: List[float] = []
        for size, threads, slack, _fut in batch:
            if type(size) is int:
                sizes.append(size)
                thrs.append(threads)
                slacks.append(slack)
            else:
                sizes.extend(size.tolist())
                thrs.extend(threads.tolist())
                slacks.extend(slack.tolist())
        rows = len(sizes)
        st.requests += rows
        if rows > st.max_batch:
            st.max_batch = rows
        pen, bound, reason = self.surrogate.evaluate(sizes, thrs, slacks)
        pens = pen.tolist()
        bounds = bound.tolist()
        reasons = reason.tolist()
        start = 0
        for size, threads, slack, fut in batch:
            if type(size) is int:
                if not fut.cancelled():
                    code = reasons[start]
                    if code == 0:
                        st.answered_warm += 1
                        fut.set_result(
                            Prediction(pens[start], bounds[start])
                        )
                    else:
                        self._refuse_one(size, threads, slack, fut, code)
                start += 1
                continue
            sl = slice(start, start + len(size))
            start = sl.stop
            if fut.cancelled():
                continue
            refused = np.flatnonzero(reason[sl])
            if len(refused) == 0:
                st.answered_warm += len(size)
                fut.set_result((pen[sl].copy(), bound[sl].copy()))
            else:
                st.refused += len(size)
                i = int(refused[0])
                name = (
                    self.surrogate.reason_name(reasons[sl.start + i])
                    or "unknown"
                )
                query = (int(size[i]), int(threads[i]), float(slack[i]))
                fut.set_exception(
                    SurrogateDomainError(
                        name,
                        f"batch element {i} refused ({name}): "
                        f"matrix_size={query[0]} threads={query[1]} "
                        f"slack_s={query[2]!r}",
                        query,
                    )
                )

    def _refuse_one(
        self,
        size: int,
        threads: int,
        slack: float,
        fut: asyncio.Future,
        code: int,
    ) -> None:
        name = self.surrogate.reason_name(code) or "unknown"
        # A negative slack on an unknown series is refused as
        # unknown-series, but it is still the caller's mistake.
        if (
            self.cold_path is None
            or name in _CALLER_ERRORS
            or slack < 0
            or not _series_in_range(size, threads)
        ):
            self.stats_counters.refused += 1
            fut.set_exception(
                SurrogateDomainError(
                    name,
                    f"surrogate refuses ({name}): matrix_size={size} "
                    f"threads={threads} slack_s={slack!r}",
                    (size, threads, slack),
                )
            )
        else:
            self._schedule_cold(size, threads, slack, fut)

    # -- cold path ------------------------------------------------------------
    def _schedule_cold(
        self, size: int, threads: int, slack: float, fut: asyncio.Future
    ) -> None:
        key = (size, threads, slack_bucket(slack))
        task = self._inflight.get(key)
        if task is None:
            self.stats_counters.cold_misses += 1
            task = asyncio.create_task(
                self._cold_measure(key, size, threads, slack)
            )
            self._inflight[key] = task
        else:
            self.stats_counters.cold_shared += 1
        task.add_done_callback(
            lambda t: self._finish_cold(t, size, threads, slack, fut)
        )

    async def _cold_measure(
        self,
        key: Tuple[int, int, str],
        size: int,
        threads: int,
        slack: float,
    ) -> None:
        assert self.cold_path is not None and self._cold_sem is not None
        loop = asyncio.get_running_loop()
        start = loop.time()
        try:
            async with self._cold_sem:
                measured = await loop.run_in_executor(
                    None, self._measure_sync, size, threads, slack
                )
        finally:
            self._inflight.pop(key, None)
            self.stats_counters.cold_wall_s += loop.time() - start
        for s, p in measured:
            self.surrogate.observe(size, threads, s, p)
        self.stats_counters.cold_measured_points += len(measured)

    def _measure_sync(
        self, size: int, threads: int, slack: float
    ) -> List[Tuple[float, float]]:
        """Blocking DES measurement (thread pool): the real answer.

        Runs the requested point through ``run_slack_sweep`` — cache,
        executor, calibration and all. When the surrogate's series for
        this key would stay below two points (unknown or degenerate
        series), a companion point at half the slack rides along so
        the refit series becomes viable for interpolation instead of
        refusing everything but the exact point.
        """
        from ..proxy.sweep import run_slack_sweep

        cfg = self.cold_path
        assert cfg is not None
        slacks = [slack]
        if self.surrogate.series_points(size, threads) < 2:
            companion = slack / 2.0
            if companion > 0:
                slacks = [companion, slack]
        result = run_slack_sweep(
            matrix_sizes=[size],
            slack_values_s=slacks,
            threads=[threads],
            iterations=cfg.iterations,
            target_compute_s=cfg.target_compute_s,
            options=cfg.options,
        )
        return [
            (s, max(0.0, result.get(size, threads, s).penalty))
            for s in slacks
        ]

    def _finish_cold(
        self,
        task: "asyncio.Task[None]",
        size: int,
        threads: int,
        slack: float,
        fut: asyncio.Future,
    ) -> None:
        if fut.cancelled():
            return
        exc = task.exception() if not task.cancelled() else None
        if task.cancelled():
            fut.cancel()
            return
        if exc is not None:
            fut.set_exception(exc)
            return
        try:
            fut.set_result(
                self.surrogate.predict(size, slack, threads)
            )
        except SurrogateDomainError as err:
            self.stats_counters.refused += 1
            fut.set_exception(err)

    # -- telemetry ------------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        """Hot-path counters plus surrogate refusal/observation state."""
        doc = self.stats_counters.to_doc()
        doc["observed_points"] = float(self.surrogate.observed_points)
        for name, count in self.surrogate.refusals.items():
            doc[f"refusal.{name}"] = float(count)
        return doc

    def publish(self, registry: Any = None) -> None:
        """Fold the service counters into the metrics registry."""
        publish_service(self.stats(), registry)

    def report(self, meta: Optional[Dict[str, Any]] = None) -> RunReport:
        """Publish and snapshot a ``kind="serve"`` run report."""
        self.publish()
        merged = {
            "max_queue": self.max_queue,
            "max_batch": self.max_batch,
            "cold_path": self.cold_path is not None,
            "surrogate_method": self.surrogate.method,
            "series": len(self.surrogate.series_keys),
        }
        merged.update(meta or {})
        return RunReport.collect(get_registry(), kind="serve", meta=merged)


def predict_penalty(
    matrix_size: int,
    slack_s: float,
    threads: int = 1,
    *,
    surrogate: SurrogateModel,
    cold_path: Optional[ColdPathConfig] = None,
) -> Prediction:
    """One-shot synchronous prediction through a short-lived service.

    The convenience form behind ``repro predict``: spins up a
    :class:`PenaltyService` for a single query and tears it down. Use
    a long-lived service for real serving — the one-shot pays the
    event-loop setup on every call.
    """

    async def _run() -> Prediction:
        async with PenaltyService(
            surrogate=surrogate, cold_path=cold_path
        ) as svc:
            return await svc.predict(matrix_size, slack_s, threads)

    return asyncio.run(_run())
