"""Runtime fault injection: the compiled form of a :class:`FaultPlan`.

A :class:`FaultInjector` is created per simulation
(:meth:`FaultPlan.compile`), holds the plan's windows pre-quantized to
the dyadic tick grid, and is consulted from three integration points:

* the CUDA API boundary — :meth:`perturb_call`, yielded through by
  :class:`repro.gpusim.interception.SlackInjector` after the base
  slack delay (downtime waits, loss retries, spike/congestion extras);
* the device engines — :meth:`stall_extra`, added to the compute
  engine's busy time inside :class:`GpuStall` windows;
* the network link — :meth:`down_wait` / :meth:`loss_at` /
  :meth:`draw`, used by :class:`repro.network.Link` to model flap
  waits and lossy retransmission at message granularity.

Every delay handed to the simulator is a multiple of the tick
(:mod:`repro.des.timebase`), so fault runs keep the bit-exact
accumulation guarantees of healthy runs. Stochastic loss decisions
come from :meth:`draw`: a counted ``blake2b(seed:counter)`` stream —
deterministic across processes, platforms and Python versions, and
consumed in simulation order (which is itself deterministic).

When no plan is active nothing here runs: integration points hold
``faults=None`` and pay one ``is None`` check per API call — zero
cost on the DES hot path.
"""

from __future__ import annotations

import hashlib
import math
from typing import Any, Dict, Generator, List, NamedTuple, Optional, TYPE_CHECKING, Tuple

from ..des.timebase import quantize

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..des.core import Environment, Event
    from .plan import FaultPlan

__all__ = ["FabricTimeoutError", "LossRegime", "FaultInjector"]


class FabricTimeoutError(RuntimeError):
    """A fabric message exhausted its retry budget and timed out.

    Raised *inside the simulation* to the process waiting on the call
    (the same propagation path as any worker exception — see
    ``tests/faults/test_failure_injection.py``), mirroring an RPC
    deadline exceeded in a real disaggregated pool.
    """


class LossRegime(NamedTuple):
    """The message-loss parameters active at one instant."""

    rate: float
    backoff_base_s: float
    max_retries: int


class FaultInjector:
    """Per-simulation fault state compiled from a :class:`FaultPlan`.

    All counters are public — :meth:`snapshot` flattens them into the
    ``faults.*`` metric namespace that rides on
    :class:`~repro.proxy.ProxyResult.sim_metrics`, through sweep
    workers and the point cache, into :class:`~repro.obs.RunReport`.
    """

    def __init__(self, env: "Environment", plan: "FaultPlan") -> None:
        from .plan import (
            CongestionEpisode,
            GpuStall,
            LatencySpike,
            LinkFlap,
            MessageLoss,
        )

        self.env = env
        self.plan = plan
        self.seed = plan.seed

        # Pre-quantized windows: (start, end, payload). Ends are start
        # + duration with both addends dyadic, so the sums are exact.
        self._spikes: List[Tuple[float, float, float]] = []
        self._flaps: List[Tuple[float, float]] = []
        self._losses: List[Tuple[float, float, LossRegime]] = []
        self._stalls: List[Tuple[float, float, float]] = []
        for event in plan.events:
            start = quantize(event.start_s)
            if isinstance(event, (LatencySpike, CongestionEpisode)):
                self._spikes.append(
                    (
                        start,
                        start + quantize(event.duration_s),
                        quantize(event.extra_s),
                    )
                )
            elif isinstance(event, LinkFlap):
                self._flaps.append((start, start + quantize(event.down_s)))
            elif isinstance(event, MessageLoss):
                end = (
                    math.inf
                    if event.duration_s is None
                    else start + quantize(event.duration_s)
                )
                self._losses.append(
                    (
                        start,
                        end,
                        LossRegime(
                            event.rate,
                            quantize(event.backoff_base_s),
                            event.max_retries,
                        ),
                    )
                )
            elif isinstance(event, GpuStall):
                self._stalls.append(
                    (
                        start,
                        start + quantize(event.duration_s),
                        quantize(event.extra_s),
                    )
                )
        self._flaps.sort()

        # -- accounting (all surfaced via snapshot()) ----------------------
        #: Calls/messages that received at least one fault effect.
        self.injected = 0
        #: Retransmissions performed after message loss.
        self.retries = 0
        #: Calls/messages that exhausted their retry budget.
        self.timeouts = 0
        #: Simulated seconds spent waiting out link-flap down windows.
        self.downtime_s = 0.0
        #: Total extra simulated delay attributable to faults
        #: (downtime + backoffs + spike/congestion extras; excludes
        #: GPU stalls, which are engine busy time, see stall_s).
        self.extra_delay_s = 0.0
        #: Messages lost (each retry implies one loss; a timeout's
        #: final loss counts too).
        self.messages_lost = 0
        #: Compute-engine operations stretched by a GpuStall window.
        self.gpu_stalls = 0
        #: Total stall time added to engine busy time.
        self.stall_s = 0.0
        self._decisions = 0

    # -- deterministic decision stream ------------------------------------
    def draw(self) -> float:
        """Next uniform-[0,1) decision from the counted seed stream.

        ``blake2b(f"{seed}:{counter}")`` — no RNG object state, no
        platform dependence; the counter advances in simulation order,
        which the DES makes deterministic.
        """
        i = self._decisions
        self._decisions += 1
        digest = hashlib.blake2b(
            f"{self.seed}:{i}".encode("ascii"), digest_size=8
        ).digest()
        return int.from_bytes(digest, "big") / 2.0**64

    # -- window queries ----------------------------------------------------
    def down_wait(self, now: float) -> float:
        """Seconds until the fabric is back up (0 when not in a flap)."""
        for start, end in self._flaps:
            if start <= now < end:
                return end - now
            if start > now:
                break
        return 0.0

    def extra_call_delay(self, now: float) -> float:
        """Summed spike/congestion extra delay active at ``now``."""
        total = 0.0
        for start, end, extra in self._spikes:
            if start <= now < end:
                total += extra
        return total

    def loss_at(self, now: float) -> Optional[LossRegime]:
        """The loss regime active at ``now`` (None = lossless).

        Overlapping loss events combine: rates compose as independent
        loss channels (``1 - prod(1 - r)``), the backoff is the
        largest, and the retry budget the smallest.
        """
        active = [
            regime
            for start, end, regime in self._losses
            if start <= now < end
        ]
        if not active:
            return None
        if len(active) == 1:
            return active[0]
        keep = 1.0
        for regime in active:
            keep *= 1.0 - regime.rate
        return LossRegime(
            1.0 - keep,
            max(r.backoff_base_s for r in active),
            min(r.max_retries for r in active),
        )

    def stall_extra(self, now: float) -> float:
        """Summed GPU-stall extra busy time active at ``now``."""
        total = 0.0
        for start, end, extra in self._stalls:
            if start <= now < end:
                total += extra
        return total

    # -- engine hook -------------------------------------------------------
    def charge_stall(self, now: float) -> float:
        """Stall time for one engine op at ``now``, with accounting."""
        stall = self.stall_extra(now)
        if stall > 0.0:
            self.gpu_stalls += 1
            self.stall_s += stall
        return stall

    # -- CUDA API hook -----------------------------------------------------
    def perturb_call(
        self, api_name: str
    ) -> Generator["Event", Any, float]:
        """Apply the fault effects one host-visible call experiences.

        Yielded through by the slack injector after the base slack
        delay. Order: wait out any down window, then play the loss/
        retry/backoff game, then pay spike/congestion extras. Returns
        the total extra delay injected for this call.

        Raises
        ------
        FabricTimeoutError
            To the waiting process, when ``max_retries`` resends of a
            lost message are all lost too.
        """
        env = self.env
        total = 0.0

        # 1. Link down: the call blocks until the fabric returns.
        wait = self.down_wait(env.now)
        while wait > 0.0:
            self.downtime_s += wait
            total += wait
            yield env.timeout(wait)
            wait = self.down_wait(env.now)

        # 2. Message loss: resend with exponential backoff.
        regime = self.loss_at(env.now)
        if regime is not None:
            losses = 0
            while self.draw() < regime.rate:
                losses += 1
                self.messages_lost += 1
                if losses > regime.max_retries:
                    self.timeouts += 1
                    self.injected += 1
                    self.extra_delay_s += total
                    raise FabricTimeoutError(
                        f"{api_name}: message lost after "
                        f"{regime.max_retries} retries "
                        f"(loss rate {regime.rate:g})"
                    )
                self.retries += 1
                backoff = quantize(
                    regime.backoff_base_s * 2.0 ** (losses - 1)
                )
                total += backoff
                yield env.timeout(backoff)

        # 3. Latency spike / congestion episode extras.
        extra = self.extra_call_delay(env.now)
        if extra > 0.0:
            total += extra
            yield env.timeout(extra)

        if total > 0.0:
            self.injected += 1
            self.extra_delay_s += total
        return total

    # -- observability -----------------------------------------------------
    def snapshot(self) -> Dict[str, float]:
        """Flat ``faults.*`` telemetry for :func:`repro.obs.simulation_snapshot`."""
        return {
            "faults.injected": float(self.injected),
            "faults.retries": float(self.retries),
            "faults.timeouts": float(self.timeouts),
            "faults.downtime_s": self.downtime_s,
            "faults.extra_delay_s": self.extra_delay_s,
            "faults.messages_lost": float(self.messages_lost),
            "faults.gpu_stalls": float(self.gpu_stalls),
            "faults.stall_s": self.stall_s,
        }

    def __repr__(self) -> str:
        return (
            f"FaultInjector(seed={self.seed}, "
            f"events={len(self.plan.events)}, injected={self.injected})"
        )
