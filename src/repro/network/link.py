"""Point-to-point network links and NICs as DES components.

A :class:`Link` is a latency/bandwidth (alpha-beta) channel with a
serialization resource: concurrent messages share the wire. A
:class:`NIC` adds per-message processing latency and an injection-rate
cap. These are the building blocks the row-scale fabric composes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional, TYPE_CHECKING

from ..des.core import Environment, Event
from ..des.resources import Resource

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.runtime import FaultInjector

__all__ = ["LinkSpec", "Link", "NICSpec", "NIC"]


@dataclass(frozen=True)
class LinkSpec:
    """Static parameters of a network link (alpha-beta model)."""

    latency_s: float = 1.0e-6
    bandwidth_Bps: float = 25e9  # 200 Gb/s class HPC link
    name: str = "link"

    def __post_init__(self) -> None:
        if self.latency_s < 0:
            raise ValueError("latency_s must be non-negative")
        if self.bandwidth_Bps <= 0:
            raise ValueError("bandwidth_Bps must be positive")

    def message_time(self, nbytes: float) -> float:
        """Unloaded alpha + nbytes/beta transfer time."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        return self.latency_s + nbytes / self.bandwidth_Bps


class Link:
    """A shared serial link in the simulation.

    Messages serialize on the wire (one at a time at full bandwidth);
    propagation latency is pipelined, so message N+1 may start
    serializing while message N is still in flight.

    ``faults`` optionally attaches a compiled
    :class:`~repro.faults.FaultInjector` (built with this link's
    ``env``): before a message reaches the wire it waits out any
    link-flap down-window, plays the loss/retry/backoff game (raising
    :class:`~repro.faults.FabricTimeoutError` to the process waiting
    on :meth:`transmit` once the retry budget is spent), and pays any
    active latency-spike extra. ``None`` keeps the healthy fast path.
    """

    def __init__(
        self,
        env: Environment,
        spec: LinkSpec,
        faults: Optional["FaultInjector"] = None,
    ) -> None:
        self.env = env
        self.spec = spec
        self.faults = faults
        self._wire = Resource(env, capacity=1)
        self.bytes_carried = 0.0
        self.messages_carried = 0
        #: Accumulated simulated time messages spent queued for the
        #: wire (contention-induced queueing delay; 0 on an idle link).
        self.queue_wait_s = 0.0

    def transmit(self, nbytes: float) -> Event:
        """Process-event that completes when ``nbytes`` have arrived."""
        return self.env.process(
            self._transmit(nbytes), name=f"{self.spec.name}-tx"
        )

    def _transmit(self, nbytes: float) -> Generator[Event, None, None]:
        serialization = nbytes / self.spec.bandwidth_Bps
        if self.faults is not None:
            yield from self.faults.perturb_call(f"{self.spec.name}-tx")
        queued_at = self.env.now
        with self._wire.request() as req:
            yield req
            self.queue_wait_s += self.env.now - queued_at
            yield self.env.timeout(serialization)
        # Propagation happens off the wire.
        yield self.env.timeout(self.spec.latency_s)
        self.bytes_carried += nbytes
        self.messages_carried += 1


@dataclass(frozen=True)
class NICSpec:
    """Static parameters of a network interface card."""

    processing_s: float = 0.5e-6
    injection_rate_Bps: float = 25e9
    name: str = "nic"

    def __post_init__(self) -> None:
        if self.processing_s < 0:
            raise ValueError("processing_s must be non-negative")
        if self.injection_rate_Bps <= 0:
            raise ValueError("injection_rate_Bps must be positive")


class NIC:
    """A NIC: per-message processing plus injection-bandwidth sharing."""

    def __init__(self, env: Environment, spec: NICSpec) -> None:
        self.env = env
        self.spec = spec
        self._engine = Resource(env, capacity=1)
        self.messages_processed = 0
        #: Accumulated simulated time messages waited for the engine.
        self.queue_wait_s = 0.0

    def inject(self, nbytes: float) -> Event:
        """Process-event completing when the NIC has injected the message."""
        return self.env.process(self._inject(nbytes), name=f"{self.spec.name}-inj")

    def _inject(self, nbytes: float) -> Generator[Event, None, None]:
        queued_at = self.env.now
        with self._engine.request() as req:
            yield req
            self.queue_wait_s += self.env.now - queued_at
            yield self.env.timeout(
                self.spec.processing_s + nbytes / self.spec.injection_rate_Bps
            )
        self.messages_processed += 1
