"""Declarative, seeded fault plans for the simulated CDI fabric.

The paper's viability verdict assumes a *healthy* fabric: fixed
worst-case slack, congestion "a non-issue", no failures. Production
row-scale pools are not that kind: disaggregated-GPU deployments
report link flaps, lost messages and latency spikes as first-class
operational concerns, and HPC applications are differentially
sensitive to latency *variability*, not just its mean. This module is
the declarative half of the fault layer: a :class:`FaultPlan` is an
immutable, picklable, JSON-serializable composition of
:data:`FaultEvent` s that any simulation entry point
(:func:`repro.proxy.run_proxy`, :func:`repro.proxy.run_slack_sweep`,
:func:`repro.gpusim.interpret.run_des`, :class:`repro.network.Link`)
accepts and compiles into a runtime injector
(:class:`repro.faults.FaultInjector`).

Determinism contract
--------------------
A plan is *fully deterministic*: two runs of the same (config, slack,
plan) triple are bit-identical, across repeated invocations, inline
vs. process-pool sweep workers, and OS platforms. Three mechanisms
deliver that:

* every window boundary and every delay a plan injects is snapped to
  the dyadic tick grid (:mod:`repro.des.timebase`), so fault delays
  accumulate exactly like every other simulated delay;
* stochastic decisions (message loss) are drawn from a counted
  ``blake2b(seed, counter)`` stream — no global RNG, no process state,
  no float platform dependence;
* plans are *values*: frozen dataclasses with a stable canonical JSON
  form (:meth:`FaultPlan.to_doc`), which is also what the per-point
  sweep cache keys on.

Fault taxonomy
--------------
==================  ====================================================
:class:`LatencySpike`      extra per-call fabric delay inside a window
:class:`CongestionEpisode` per-call delay from the M/M/1
                           :class:`~repro.network.CongestionModel` at a
                           given background utilization
:class:`LinkFlap`          the fabric is *down* for a window; calls and
                           messages wait it out (downtime accounting)
:class:`MessageLoss`       each message/call is lost with probability
                           ``rate``; retried with exponential backoff,
                           raising :class:`~repro.faults.FabricTimeoutError`
                           once ``max_retries`` resends are exhausted
:class:`GpuStall`          transient device-side stall: compute-engine
                           operations inside the window pay ``extra_s``
==================  ====================================================
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Any, Dict, List, Optional, Tuple, Type, Union

__all__ = [
    "FaultEvent",
    "LatencySpike",
    "CongestionEpisode",
    "LinkFlap",
    "MessageLoss",
    "GpuStall",
    "FaultPlan",
    "parse_seconds",
]

#: Default exponential-backoff base for message-loss retries.
DEFAULT_BACKOFF_S = 100e-6

#: Default resend budget before a lost message times out.
DEFAULT_MAX_RETRIES = 8


def parse_seconds(text: Union[str, float, int]) -> float:
    """Parse a duration that may carry a ``us``/``ms``/``s`` suffix.

    >>> parse_seconds("100us")
    0.0001
    >>> parse_seconds("1.5ms")
    0.0015
    >>> parse_seconds(2e-3)
    0.002
    """
    if isinstance(text, (int, float)):
        return float(text)
    s = text.strip().lower()
    for suffix, scale in (("us", 1e-6), ("ms", 1e-3), ("s", 1.0)):
        if s.endswith(suffix):
            return float(s[: -len(suffix)]) * scale
    return float(s)


def _parse_rate(text: Union[str, float, int]) -> float:
    """Parse a probability that may be spelled as a percentage."""
    if isinstance(text, (int, float)):
        return float(text)
    s = text.strip()
    if s.endswith("%"):
        return float(s[:-1]) / 100.0
    return float(s)


@dataclass(frozen=True)
class LatencySpike:
    """Extra per-call fabric latency inside ``[start_s, start_s+duration_s)``."""

    start_s: float
    duration_s: float
    extra_s: float

    kind = "spike"

    def __post_init__(self) -> None:
        if self.start_s < 0:
            raise ValueError("start_s must be non-negative")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.extra_s <= 0:
            raise ValueError("extra_s must be positive")

    def scaled(self, factor: float) -> "LatencySpike":
        """The same spike at ``factor`` times the intensity."""
        return LatencySpike(self.start_s, self.duration_s, self.extra_s * factor)


@dataclass(frozen=True)
class CongestionEpisode:
    """A background-load episode driving the M/M/1 congestion model.

    During ``[start_s, start_s+duration_s)`` every fabric call pays the
    *extra* sojourn latency :meth:`repro.network.CongestionModel
    .extra_slack_at` predicts at ``utilization`` (deterministic — the
    episode injects the expected congestion delay, not samples of it;
    use :class:`MessageLoss`/:class:`LatencySpike` for variability).
    """

    start_s: float
    duration_s: float
    utilization: float
    service_time_s: float = 1.0e-6

    kind = "congestion"

    def __post_init__(self) -> None:
        if self.start_s < 0:
            raise ValueError("start_s must be non-negative")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if not 0 < self.utilization < 1:
            raise ValueError("utilization must be in (0, 1)")
        if self.service_time_s <= 0:
            raise ValueError("service_time_s must be positive")

    @property
    def extra_s(self) -> float:
        """The per-call congestion delay this episode injects."""
        from ..network.congestion import CongestionModel

        model = CongestionModel(
            service_time_s=self.service_time_s,
            max_utilization=max(0.99, min(0.999, (1 + self.utilization) / 2)),
        )
        return model.extra_slack_at(self.utilization)

    def scaled(self, factor: float) -> "CongestionEpisode":
        """The same episode at ``factor`` times the utilization."""
        return CongestionEpisode(
            self.start_s,
            self.duration_s,
            min(0.99, self.utilization * factor),
            self.service_time_s,
        )


@dataclass(frozen=True)
class LinkFlap:
    """The fabric link is down for ``[start_s, start_s+down_s)``.

    Calls and messages that would use the fabric during the window
    wait until it comes back up; the waiting time is accounted as
    ``faults.downtime_s``.
    """

    start_s: float
    down_s: float

    kind = "flap"

    def __post_init__(self) -> None:
        if self.start_s < 0:
            raise ValueError("start_s must be non-negative")
        if self.down_s <= 0:
            raise ValueError("down_s must be positive")

    def scaled(self, factor: float) -> "LinkFlap":
        """The same flap with ``factor`` times the down-window."""
        return LinkFlap(self.start_s, self.down_s * factor)


@dataclass(frozen=True)
class MessageLoss:
    """Messages are lost with probability ``rate`` inside the window.

    ``duration_s=None`` means the loss regime covers the whole run.
    A lost message is retried after an exponential backoff
    (``backoff_base_s * 2**k`` for the ``k``-th resend, tick-
    quantized); once ``max_retries`` resends have all been lost, a
    :class:`~repro.faults.FabricTimeoutError` is raised to the process
    waiting on the call — the simulated analogue of an RPC deadline.
    """

    rate: float
    start_s: float = 0.0
    duration_s: Optional[float] = None
    backoff_base_s: float = DEFAULT_BACKOFF_S
    max_retries: int = DEFAULT_MAX_RETRIES

    kind = "loss"

    def __post_init__(self) -> None:
        if not 0 < self.rate <= 1:
            raise ValueError("rate must be in (0, 1]")
        if self.start_s < 0:
            raise ValueError("start_s must be non-negative")
        if self.duration_s is not None and self.duration_s <= 0:
            raise ValueError("duration_s must be positive (or None)")
        if self.backoff_base_s <= 0:
            raise ValueError("backoff_base_s must be positive")
        if self.max_retries < 1:
            raise ValueError("max_retries must be >= 1")

    def scaled(self, factor: float) -> "MessageLoss":
        """The same loss regime at ``factor`` times the rate (capped at 1)."""
        return MessageLoss(
            min(1.0, self.rate * factor),
            self.start_s,
            self.duration_s,
            self.backoff_base_s,
            self.max_retries,
        )


@dataclass(frozen=True)
class GpuStall:
    """Transient device stall: compute ops in the window pay ``extra_s``.

    Models clock throttling / ECC scrubbing / preemption pauses — the
    device-side counterpart of the fabric faults above.
    """

    start_s: float
    duration_s: float
    extra_s: float

    kind = "stall"

    def __post_init__(self) -> None:
        if self.start_s < 0:
            raise ValueError("start_s must be non-negative")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.extra_s <= 0:
            raise ValueError("extra_s must be positive")

    def scaled(self, factor: float) -> "GpuStall":
        """The same stall at ``factor`` times the per-op cost."""
        return GpuStall(self.start_s, self.duration_s, self.extra_s * factor)


#: The union of composable fault event types.
FaultEvent = Union[LatencySpike, CongestionEpisode, LinkFlap, MessageLoss, GpuStall]

_EVENT_TYPES: Dict[str, Type[Any]] = {
    cls.kind: cls
    for cls in (LatencySpike, CongestionEpisode, LinkFlap, MessageLoss, GpuStall)
}

#: Spec-clause key aliases accepted by :meth:`FaultPlan.from_spec`.
_SPEC_KEYS: Dict[str, Dict[str, str]] = {
    "spike": {"start": "start_s", "duration": "duration_s", "extra": "extra_s"},
    "congestion": {
        "start": "start_s",
        "duration": "duration_s",
        "utilization": "utilization",
        "service": "service_time_s",
    },
    "flap": {"start": "start_s", "down": "down_s"},
    "loss": {
        "rate": "rate",
        "start": "start_s",
        "duration": "duration_s",
        "backoff": "backoff_base_s",
        "retries": "max_retries",
    },
    "stall": {"start": "start_s", "duration": "duration_s", "extra": "extra_s"},
}

_RATE_FIELDS = {"rate", "utilization"}
_INT_FIELDS = {"max_retries"}


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, immutable composition of fault events.

    ``seed`` drives every stochastic decision the plan makes (message
    loss); two runs with the same plan are bit-identical. An empty
    plan (``FaultPlan()``) is the healthy fabric and compiles to
    ``None`` — every integration point treats it exactly like "no
    faults", so ``FaultPlan()`` and ``faults=None`` produce the same
    bits and the same cache keys.
    """

    seed: int = 0
    events: Tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int):
            raise ValueError("seed must be an integer")
        object.__setattr__(self, "events", tuple(self.events))

    # -- composition -------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        """Whether this plan injects nothing (the healthy fabric)."""
        return not self.events

    def with_event(self, event: FaultEvent) -> "FaultPlan":
        """A new plan with one more event appended."""
        return FaultPlan(self.seed, self.events + (event,))

    def scaled(self, intensity: float) -> "FaultPlan":
        """The same plan at a different fault intensity.

        ``intensity`` multiplies every event's magnitude — spike/stall
        extra delay, loss rate (capped at 1), congestion utilization,
        flap down-window. ``intensity=0`` is the healthy fabric (an
        empty plan); ``intensity=1`` returns an equal plan. The seed is
        unchanged, so loss *decisions* stay aligned across intensities
        of one plan.
        """
        if intensity < 0:
            raise ValueError("intensity must be non-negative")
        if intensity == 0:
            return FaultPlan(self.seed)
        return FaultPlan(
            self.seed, tuple(e.scaled(intensity) for e in self.events)
        )

    def validate(self) -> "FaultPlan":
        """Check cross-event consistency; returns self when valid.

        Field-level validation already ran in each event's
        ``__post_init__``; this adds the plan-level rules (flap windows
        must not overlap — a fabric cannot be doubly down).
        """
        flaps = sorted(
            (e.start_s, e.start_s + e.down_s)
            for e in self.events
            if isinstance(e, LinkFlap)
        )
        for (s0, e0), (s1, _) in zip(flaps, flaps[1:]):
            if s1 < e0:
                raise ValueError(
                    f"overlapping link flaps: one ends at {e0:g}s, "
                    f"the next starts at {s1:g}s"
                )
        return self

    # -- runtime -----------------------------------------------------------
    def compile(self, env: Any) -> Optional[Any]:
        """Compile into a runtime :class:`~repro.faults.FaultInjector`.

        Returns ``None`` for an empty plan — integration points keep
        their no-fault fast path (a single ``is None`` check) and the
        healthy run stays bit-identical.
        """
        if self.is_empty:
            return None
        from .runtime import FaultInjector

        return FaultInjector(env, self.validate())

    # -- serialization -----------------------------------------------------
    def to_doc(self) -> Dict[str, Any]:
        """Canonical JSON-able form (also the cache-key payload)."""
        events: List[Dict[str, Any]] = []
        for event in self.events:
            doc: Dict[str, Any] = {"kind": event.kind}
            for f in fields(event):
                doc[f.name] = getattr(event, f.name)
            events.append(doc)
        return {"seed": self.seed, "events": events}

    @classmethod
    def from_doc(cls, doc: Dict[str, Any]) -> "FaultPlan":
        """Rebuild a plan from its document form."""
        events: List[FaultEvent] = []
        for edoc in doc.get("events", ()):
            edoc = dict(edoc)
            kind = edoc.pop("kind", None)
            etype = _EVENT_TYPES.get(kind)
            if etype is None:
                raise ValueError(f"unknown fault event kind {kind!r}")
            try:
                events.append(etype(**edoc))
            except TypeError as exc:
                raise ValueError(f"bad {kind} event fields: {exc}") from exc
        return cls(seed=int(doc.get("seed", 0)), events=tuple(events))

    def cache_token(self) -> str:
        """Stable string identifying this plan for cache keying."""
        return json.dumps(self.to_doc(), sort_keys=True)

    # -- spec DSL ----------------------------------------------------------
    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Parse the compact CLI spec format.

        Semicolon-separated clauses; ``seed=<int>`` plus one clause per
        event: ``<kind>:key=value,key=value``. Durations accept
        ``us``/``ms``/``s`` suffixes, rates accept ``%``::

            seed=42;loss:rate=1%;flap:start=5ms,down=2ms;spike:start=0,duration=10ms,extra=100us

        A spec that is a JSON object (starts with ``{``) is parsed via
        :meth:`from_doc` instead, so ``--faults`` takes either form.
        """
        text = spec.strip()
        if not text:
            return cls()
        if text.startswith("{"):
            try:
                return cls.from_doc(json.loads(text))
            except json.JSONDecodeError as exc:
                raise ValueError(f"bad fault-plan JSON: {exc}") from exc
        seed = 0
        events: List[FaultEvent] = []
        for clause in text.split(";"):
            clause = clause.strip()
            if not clause:
                continue
            if clause.startswith("seed="):
                try:
                    seed = int(clause[len("seed="):])
                except ValueError as exc:
                    raise ValueError(f"bad seed clause {clause!r}") from exc
                continue
            kind, sep, body = clause.partition(":")
            kind = kind.strip()
            keymap = _SPEC_KEYS.get(kind)
            if not sep or keymap is None:
                known = ", ".join(sorted(_SPEC_KEYS))
                raise ValueError(
                    f"unknown fault clause {clause!r} "
                    f"(expected seed=N or one of: {known})"
                )
            kwargs: Dict[str, Any] = {}
            for pair in body.split(","):
                pair = pair.strip()
                if not pair:
                    continue
                key, eq, value = pair.partition("=")
                key = key.strip()
                field_name = keymap.get(key)
                if not eq or field_name is None:
                    raise ValueError(
                        f"unknown key {key!r} in {kind!r} clause "
                        f"(expected one of: {', '.join(sorted(keymap))})"
                    )
                if field_name in _INT_FIELDS:
                    kwargs[field_name] = int(value)
                elif field_name in _RATE_FIELDS:
                    kwargs[field_name] = _parse_rate(value)
                else:
                    kwargs[field_name] = parse_seconds(value)
            try:
                events.append(_EVENT_TYPES[kind](**kwargs))
            except TypeError as exc:
                raise ValueError(f"incomplete {kind!r} clause: {exc}") from exc
        return cls(seed=seed, events=tuple(events))

    def describe(self) -> str:
        """Human-readable multi-line summary of the plan.

        Each event line is followed by its *grid window*: the exact
        dyadic-tick bounds the compiled :class:`FaultInjector` uses at
        runtime (``start``/``duration`` snapped to the 2^-40 s grid
        independently, end = start + duration — the same arithmetic as
        :mod:`repro.faults.runtime`, so what is printed is bit-for-bit
        what the simulator compares timestamps against).
        """
        from ..des.timebase import TICK_S, quantize

        def grid(start_s: float, length_s: Optional[float]) -> str:
            start = quantize(start_s)
            if length_s is None:
                return (
                    f"             grid window: "
                    f"[{int(round(start / TICK_S))}, inf) ticks "
                    f"= [{start!r}s, inf)"
                )
            end = start + quantize(length_s)
            return (
                f"             grid window: "
                f"[{int(round(start / TICK_S))}, "
                f"{int(round(end / TICK_S))}) ticks "
                f"= [{start!r}s, {end!r}s)"
            )

        lines = [
            f"FaultPlan(seed={self.seed}): "
            f"{len(self.events)} event(s)"
            + (" — healthy fabric (no faults)" if self.is_empty else "")
        ]
        for event in self.events:
            if isinstance(event, LatencySpike):
                lines.append(
                    f"  spike      [{event.start_s:g}s, "
                    f"{event.start_s + event.duration_s:g}s): "
                    f"+{event.extra_s * 1e6:g} us per call"
                )
                lines.append(grid(event.start_s, event.duration_s))
            elif isinstance(event, CongestionEpisode):
                lines.append(
                    f"  congestion [{event.start_s:g}s, "
                    f"{event.start_s + event.duration_s:g}s): "
                    f"rho={event.utilization:g} "
                    f"(+{event.extra_s * 1e6:g} us per call)"
                )
                lines.append(grid(event.start_s, event.duration_s))
            elif isinstance(event, LinkFlap):
                lines.append(
                    f"  flap       [{event.start_s:g}s, "
                    f"{event.start_s + event.down_s:g}s): link down "
                    f"{event.down_s * 1e3:g} ms"
                )
                lines.append(grid(event.start_s, event.down_s))
            elif isinstance(event, MessageLoss):
                window = (
                    "whole run"
                    if event.duration_s is None
                    else f"[{event.start_s:g}s, "
                    f"{event.start_s + event.duration_s:g}s)"
                )
                lines.append(
                    f"  loss       {window}: rate {event.rate * 100:g}%, "
                    f"backoff {event.backoff_base_s * 1e6:g} us x2^k, "
                    f"{event.max_retries} retries then timeout"
                )
                lines.append(grid(event.start_s, event.duration_s))
            elif isinstance(event, GpuStall):
                lines.append(
                    f"  stall      [{event.start_s:g}s, "
                    f"{event.start_s + event.duration_s:g}s): "
                    f"+{event.extra_s * 1e6:g} us per compute op"
                )
                lines.append(grid(event.start_s, event.duration_s))
        lines.append(
            "  determinism: all delays tick-quantized "
            "(repro.des.timebase), loss decisions drawn from "
            f"blake2b(seed={self.seed}, counter)"
        )
        return "\n".join(lines)
