"""The unit of parallel sweep work: one (config, slack) proxy run.

A sweep grid decomposes into independent *point tasks* — every
``(ProxyConfig, slack)`` pair is one deterministic DES run with no
shared state — which is what lets :class:`~repro.parallel.SweepExecutor`
fan a grid out over worker processes and cache each measurement
individually.

:func:`measure_point` is the worker entry point. It must stay a
module-level function (``ProcessPoolExecutor`` pickles it by reference)
and must return only plain scalars (the full :class:`~repro.trace.Trace`
of a run is deliberately dropped: it is large, and the sweep layer only
consumes the aggregate runtimes).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from ..faults.runtime import FabricTimeoutError
from ..hw.memory import OutOfMemoryError
from ..network.slack import SlackModel
from ..proxy.matmul import ProxyConfig, run_proxy

if TYPE_CHECKING:
    from ..faults.plan import FaultPlan

__all__ = ["PointTask", "PointMeasurement", "measure_point"]


@dataclass(frozen=True)
class PointTask:
    """One grid point to measure: a proxy config plus a slack value.

    ``slack_s == 0.0`` is the zero-slack baseline run of its
    configuration (executed with ``SlackModel.none()``, exactly like
    the sequential sweep's baseline).
    """

    config: ProxyConfig
    slack_s: float
    #: Pre-computed single-kernel duration: the sweep hoists the
    #: calibration mini-simulation out of the per-point workers so
    #: every point of one matrix size shares it (and so cached and
    #: fast-forwarded points agree on ``iterations``). ``None`` means
    #: the worker calibrates itself (direct ``measure_point`` use).
    kernel_time_s: Optional[float] = None
    #: Steady-state fast-forward knob, passed through to
    #: :func:`repro.proxy.run_proxy`. ``None`` = the proxy's default.
    #: Not part of the cache key: fast-forwarded and index-core results
    #: are bit-identical to full simulations by construction.
    fast_forward: Optional[bool] = None
    #: Optional :class:`~repro.faults.FaultPlan` degrading this point's
    #: fabric. Part of the cache key (a degraded point is a different
    #: measurement); picklable, so it rides to pool workers unchanged.
    faults: Optional[FaultPlan] = None


@dataclass(frozen=True)
class PointMeasurement:
    """Scalar outcome of one point task (picklable, JSON-serializable).

    ``ok=False`` records a deterministic failure — in practice the
    proxy's out-of-memory rejection of configurations whose matrices
    exceed device memory — with the error message in ``error``.
    ``elapsed_s`` is the host wall-clock time the measurement took
    (``time.perf_counter``), which the executor aggregates into the
    sweep's points/sec and speedup-vs-sequential statistics.
    """

    ok: bool
    error: str = ""
    loop_runtime_s: float = 0.0
    corrected_runtime_s: float = 0.0
    iterations: int = 0
    kernel_time_s: float = 0.0
    injected_slack_s: float = 0.0
    starvation_cost_s: float = 0.0
    elapsed_s: float = 0.0
    #: Flat simulator telemetry of the run (dotted ``des.*``/``gpu.*``/
    #: ``fabric.*`` names, see repro.obs). Shipped back from pool
    #: workers and persisted in the point cache, so run reports cover
    #: cached points too. Excluded from equality: two measurements of
    #: the same point are the same result regardless of telemetry.
    sim: Dict[str, float] = field(default_factory=dict, compare=False)
    #: Fast-forward telemetry (compare=False for the same reason as
    #: ``sim``: a fast-forwarded measurement equals the full one).
    #: ``fastforward_hit`` — the run was certified and extrapolated;
    #: ``fastforward_events_skipped`` — DES events not simulated;
    #: ``fastforward_reason`` — refusal/fallback reason when not a hit.
    fastforward_hit: bool = field(default=False, compare=False)
    fastforward_events_skipped: int = field(default=0, compare=False)
    fastforward_reason: str = field(default="", compare=False)
    #: Why the proxy's index core did not measure the point (None: it
    #: did), from :attr:`ProxyResult.core_fallback`; compare=False like
    #: the fast-forward fields.
    core_fallback: Optional[str] = field(default=None, compare=False)

    def to_doc(self) -> Dict[str, Any]:
        """Plain-dict form for the on-disk point cache."""
        return {
            "ok": self.ok,
            "error": self.error,
            "loop_runtime_s": self.loop_runtime_s,
            "corrected_runtime_s": self.corrected_runtime_s,
            "iterations": self.iterations,
            "kernel_time_s": self.kernel_time_s,
            "injected_slack_s": self.injected_slack_s,
            "starvation_cost_s": self.starvation_cost_s,
            "elapsed_s": self.elapsed_s,
            "sim": dict(self.sim),
            "fastforward_hit": self.fastforward_hit,
            "fastforward_events_skipped": self.fastforward_events_skipped,
            "fastforward_reason": self.fastforward_reason,
            "core_fallback": self.core_fallback,
        }

    @classmethod
    def from_doc(cls, doc: Dict[str, Any]) -> "PointMeasurement":
        """Rebuild a measurement from its cached dict form.

        Every key :meth:`to_doc` writes must be there with its JSON
        type (an int passes for a float, a bool for nothing else): an
        entry with a dropped or renamed key, or ``"ok": "false"``,
        raises :class:`ValueError`/:class:`KeyError` instead of reading
        as a measurement of zeros, so the point cache counts it as a
        miss and re-measures the point.
        """
        for key, types in _DOC_TYPES.items():
            if type(doc[key]) not in types:
                raise ValueError(
                    f"point entry field {key!r} is a "
                    f"{type(doc[key]).__name__}"
                )
        return cls(
            ok=doc["ok"],
            error=doc["error"],
            loop_runtime_s=float(doc["loop_runtime_s"]),
            corrected_runtime_s=float(doc["corrected_runtime_s"]),
            iterations=doc["iterations"],
            kernel_time_s=float(doc["kernel_time_s"]),
            injected_slack_s=float(doc["injected_slack_s"]),
            starvation_cost_s=float(doc["starvation_cost_s"]),
            elapsed_s=float(doc["elapsed_s"]),
            sim={str(k): float(v) for k, v in doc["sim"].items()},
            fastforward_hit=doc["fastforward_hit"],
            fastforward_events_skipped=doc["fastforward_events_skipped"],
            fastforward_reason=doc["fastforward_reason"],
            core_fallback=doc["core_fallback"],
        )


_NUMBER = (float, int)

#: The JSON type(s) of every key :meth:`PointMeasurement.to_doc` writes.
_DOC_TYPES: Dict[str, Tuple[type, ...]] = {
    "ok": (bool,),
    "error": (str,),
    "loop_runtime_s": _NUMBER,
    "corrected_runtime_s": _NUMBER,
    "iterations": (int,),
    "kernel_time_s": _NUMBER,
    "injected_slack_s": _NUMBER,
    "starvation_cost_s": _NUMBER,
    "elapsed_s": _NUMBER,
    "sim": (dict,),
    "fastforward_hit": (bool,),
    "fastforward_events_skipped": (int,),
    "fastforward_reason": (str,),
    "core_fallback": (str, type(None)),
}


def measure_point(task: PointTask) -> PointMeasurement:
    """Run one proxy grid point and reduce it to scalars.

    Out-of-memory configurations (the paper's 2^15 exclusion above 2
    threads) and fault-plan fabric timeouts come back as ``ok=False``
    measurements rather than exceptions so a worker pool never tears
    down mid-grid (both are deterministic verdicts of the point, safe
    to cache); any other exception is a genuine bug and propagates.
    """
    slack = SlackModel.none() if task.slack_s == 0.0 else SlackModel(task.slack_s)
    t0 = time.perf_counter()
    try:
        run = run_proxy(
            task.config,
            slack,
            kernel_time_s=task.kernel_time_s,
            fast_forward=task.fast_forward,
            faults=task.faults,
        )
    except OutOfMemoryError as exc:
        return PointMeasurement(
            ok=False, error=str(exc), elapsed_s=time.perf_counter() - t0
        )
    except FabricTimeoutError as exc:
        return PointMeasurement(
            ok=False,
            error=f"fabric-timeout: {exc}",
            elapsed_s=time.perf_counter() - t0,
        )
    ff = run.fastforward
    return PointMeasurement(
        ok=True,
        loop_runtime_s=run.loop_runtime_s,
        corrected_runtime_s=run.corrected_runtime_s,
        iterations=run.iterations,
        kernel_time_s=run.kernel_time_s,
        injected_slack_s=run.injected_slack_s,
        starvation_cost_s=run.starvation_cost_s,
        elapsed_s=time.perf_counter() - t0,
        sim=run.sim_metrics,
        fastforward_hit=bool(ff is not None and ff.certified),
        fastforward_events_skipped=ff.events_skipped if ff is not None else 0,
        fastforward_reason=(ff.reason or "") if ff is not None else "",
        core_fallback=run.core_fallback,
    )
