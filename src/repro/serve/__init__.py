"""Penalty-as-a-service: surrogate serving over cached sweep results.

The sweep/model layers answer "what penalty does this workload pay at
this slack?" by running a discrete-event simulation — seconds per
point. This package answers the same question at production query
rates by serving a fitted surrogate over the points those sweeps
already measured:

* :class:`SurrogateModel` — vectorized bounded-error interpolation
  over cached :class:`~repro.proxy.SweepPoint` data, exact-parity
  with :class:`~repro.proxy.SlackResponseSurface` at measured points,
  with a typed refusing domain (:class:`SurrogateDomainError`).
* :class:`PenaltyService` — asyncio micro-batching front end with a
  bounded queue, single-numpy-call batch evaluation, and an optional
  DES cold path (:class:`ColdPathConfig`) that measures refused
  queries for real and folds them back into the surrogate.
* :func:`predict_penalty` — the one-shot convenience behind
  ``rowscale-cdi predict``.

Constructors here are keyword-only: the serving API is configuration,
and configuration reads better named.
"""

from .._lazy import lazy_exports

__all__ = [
    "SurrogateModel",
    "Prediction",
    "SurrogateDomainError",
    "REFUSAL_REASONS",
    "assert_parity",
    "PenaltyService",
    "ColdPathConfig",
    "ServiceOverloadedError",
    "predict_penalty",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".surrogate": (
            "SurrogateModel",
            "Prediction",
            "SurrogateDomainError",
            "REFUSAL_REASONS",
            "assert_parity",
        ),
        ".service": (
            "PenaltyService",
            "ColdPathConfig",
            "ServiceOverloadedError",
            "predict_penalty",
        ),
    },
)
