"""Slack injection at the CUDA API boundary.

The paper's method inserts an artificial delay *after every CUDA API
call* that implies host-device communication, emulating the NIC and
fabric traversal a row-scale CDI system adds (their software
alternative to LD_PRELOAD shims, which fail for statically linked
binaries). :class:`SlackInjector` is that insertion point in the
simulator: the runtime yields through it after each API call, and the
delay is recorded in the trace so Equation 1 can later subtract the
direct cost.
"""

from __future__ import annotations

from typing import Any, Generator, Optional, TYPE_CHECKING

from ..des.core import Environment, Event
from ..network.slack import SlackModel
from ..trace.events import EventKind
from ..trace.tracer import Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.runtime import FaultInjector

__all__ = ["SlackInjector"]


class SlackInjector:
    """Injects the per-call slack delay and accounts for it.

    Parameters
    ----------
    env, tracer:
        Simulation environment and the tracer slack events go to.
    model:
        The :class:`SlackModel` supplying per-call delays. Replaceable
        at runtime (sweeps re-use one simulator setup).
    faults:
        Optional compiled :class:`~repro.faults.FaultInjector`. When
        set, every intercepted call first passes through the fault
        layer (down-window waits, loss retries, spike extras) *before*
        the base slack delay — the fabric is degraded even for the
        zero-slack baseline. ``None`` (default) costs one ``is None``
        check per call.
    """

    def __init__(
        self,
        env: Environment,
        tracer: Tracer,
        model: Optional[SlackModel] = None,
        faults: Optional["FaultInjector"] = None,
    ) -> None:
        self.env = env
        self.tracer = tracer
        self.model = model or SlackModel.none()
        self.faults = faults
        self.calls_intercepted = 0
        #: Delay this injector has injected (for Equation 1). Counted
        #: here rather than read off the model, whose own totals keep
        #: growing when one model is reused across runs.
        self.total_injected_s = 0.0
        #: Calls this injector had the model delay.
        self.calls_delayed = 0

    def after_call(
        self, api_name: str, thread: int = 0
    ) -> Generator[Event, Any, float]:
        """Sleep the calling host thread for one sampled slack delay.

        Returns the injected slack delay so callers can account
        per-call (fault-induced delay is accounted separately, inside
        the fault injector — it must not enter Equation 1's
        ``n_calls * slack`` subtraction).
        """
        self.calls_intercepted += 1
        if self.faults is not None:
            # Faults precede the is_zero fast path on purpose: a
            # degraded fabric perturbs the zero-slack baseline too.
            yield from self.faults.perturb_call(api_name)
        model = self.model
        if model.is_zero:
            return 0.0
        calls = model.calls_delayed
        delay = model.sample()
        self.calls_delayed += model.calls_delayed - calls
        self.total_injected_s += delay
        if delay <= 0.0:
            return 0.0
        start = self.env.now
        yield self.env.timeout(delay)
        self.tracer.record(
            EventKind.SLACK,
            f"slack:{api_name}",
            start,
            self.env.now,
            thread=thread,
            meta={"api": api_name},
        )
        return delay
