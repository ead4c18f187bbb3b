"""Latency-SLO slack response: measured and predicted.

The paper's penalty metric is *normalized runtime* — right for batch
workloads, blind to what interactive traffic cares about. This module
defines the serving equivalents and routes them through the existing
pipeline **without modifying it**:

* :func:`measure_slo_response` runs the serving DES at a zero-slack
  baseline plus each requested slack and reports TTFT/TPOT *inflation*
  (metric over baseline, minus one) — the latency analogue of
  :attr:`~repro.proxy.SweepPoint.penalty`.
* :meth:`SLOResponse.to_sweep_points` re-expresses those inflations as
  ordinary :class:`~repro.proxy.SweepPoint` series (corrected runtime
  = the latency metric, baseline = its zero-slack value), so
  :func:`repro.model.extract_training_series`,
  :class:`repro.serve.SurrogateModel` and the penalty service consume
  latency SLOs exactly as they consume proxy penalties.
* :func:`phase_profile` slices a serving profile into its prefill /
  decode sub-profiles via the phase tags the DES stamped on every
  event, and :func:`predict_slo_response` feeds those to the
  **unchanged** :class:`~repro.model.CDIProfiler` — per-phase
  Equation 2/3 bounds where TTFT inherits the prefill phase's
  sensitivity and per-token latency the decode phase's. That reuse is
  the method's application-independence claim, exercised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, TYPE_CHECKING, Tuple

from ...proxy.sweep import SweepPoint
from ...trace.events import EventKind
from ...trace.store import Trace
from ..base import AppProfile
from .serving import (
    InferenceProfileConfig,
    PHASE_DECODE,
    PHASE_PREFILL,
    SLOReport,
    run_inference,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...faults.plan import FaultPlan
    from ...model.predictor import CDIProfiler, SlackPrediction

__all__ = [
    "TTFT_SERIES",
    "TPOT_SERIES",
    "SLOResponse",
    "PredictedSLOResponse",
    "measure_slo_response",
    "phase_profile",
    "predict_slo_response",
]

#: Synthetic series ids under which the two latency metrics travel
#: through :class:`~repro.proxy.SweepPoint`-shaped plumbing (the
#: ``matrix_size`` axis is just a series key to the surrogate).
TTFT_SERIES = 1
TPOT_SERIES = 2


@dataclass(frozen=True)
class SLOResponse:
    """Measured latency-SLO slack response of one serving config."""

    config: InferenceProfileConfig
    slack_values_s: Tuple[float, ...]
    baseline: SLOReport
    reports: Tuple[SLOReport, ...]

    def __post_init__(self) -> None:
        if len(self.reports) != len(self.slack_values_s):
            raise ValueError("one report per slack value required")

    @property
    def ttft_penalty(self) -> Tuple[float, ...]:
        """p99-TTFT inflation over the zero-slack baseline, per slack."""
        return tuple(
            r.ttft_p99_s / self.baseline.ttft_p99_s - 1.0
            for r in self.reports
        )

    @property
    def tpot_penalty(self) -> Tuple[float, ...]:
        """Mean-TPOT inflation over the zero-slack baseline, per slack."""
        return tuple(
            r.tpot_mean_s / self.baseline.tpot_mean_s - 1.0
            for r in self.reports
        )

    def to_sweep_points(self) -> Tuple[SweepPoint, ...]:
        """The response as two :class:`~repro.proxy.SweepPoint` series.

        ``corrected_runtime_s`` carries the latency metric and
        ``baseline_runtime_s`` its zero-slack value, so
        :attr:`SweepPoint.penalty` *is* the SLO inflation — the
        surrogate/serving stack fits it without modification.
        """
        points = []
        for series, metric in (
            (TTFT_SERIES, lambda r: r.ttft_p99_s),
            (TPOT_SERIES, lambda r: r.tpot_mean_s),
        ):
            base = metric(self.baseline)
            for slack_s, report in zip(self.slack_values_s, self.reports):
                points.append(
                    SweepPoint(
                        matrix_size=series,
                        threads=1,
                        slack_s=slack_s,
                        loop_runtime_s=metric(report),
                        corrected_runtime_s=metric(report),
                        baseline_runtime_s=base,
                        iterations=report.requests,
                        kernel_time_s=0.0,
                    )
                )
        return tuple(points)


def measure_slo_response(
    config: Optional[InferenceProfileConfig] = None,
    slack_values_s: Sequence[float] = (1e-5, 1e-4, 1e-3),
    *,
    faults: Optional["FaultPlan"] = None,
) -> SLOResponse:
    """Run the serving DES across a slack grid and report SLO inflation."""
    config = config or InferenceProfileConfig()
    slacks = tuple(float(s) for s in slack_values_s)
    for s in slacks:
        if s <= 0:
            raise ValueError("slack values must be positive")
    from ...network.slack import SlackModel

    baseline = run_inference(config, SlackModel.none(), faults=faults)
    reports = tuple(
        run_inference(config, SlackModel(slack_s=s), faults=faults).slo
        for s in slacks
    )
    return SLOResponse(
        config=config,
        slack_values_s=slacks,
        baseline=baseline.slo,
        reports=reports,
    )


_PHASE_NAMES = {PHASE_PREFILL: "prefill", PHASE_DECODE: "decode"}


def phase_profile(profile: AppProfile, phase: int) -> AppProfile:
    """A serving phase's sub-profile, predictor-consumable.

    Selects the events the DES tagged with ``phase`` (the trace's
    ``thread`` field). The sub-profile's ``runtime_s`` is the phase's
    *busy-time union* — the simulated time the phase actually occupies
    — not the run's wall span: a latency metric inflates relative to
    the phase's own active time, and queue idle between batches would
    otherwise dilute the Equation 2 runtime fractions toward zero.
    The result plugs straight into
    :meth:`repro.model.CDIProfiler.predict_sweep`.
    """
    suffix = _PHASE_NAMES.get(phase, str(phase))
    events = [e for e in profile.trace if e.thread == phase]
    if not events:
        raise ValueError(
            f"profile {profile.name!r} has no events for phase {phase}"
        )
    trace = Trace(events, name=f"{profile.name}-{suffix}")
    span = trace.busy_time()
    if span <= 0:
        raise ValueError(f"phase {suffix} spans no simulated time")
    api_calls = trace.count_kind(EventKind.API)
    return AppProfile(
        name=f"{profile.name}-{suffix}",
        trace=trace,
        runtime_s=span,
        queue_parallelism=1,
        cuda_calls_per_second=api_calls / span,
    )


@dataclass(frozen=True)
class PredictedSLOResponse:
    """Per-phase Equation 2/3 bounds for one serving profile.

    The bounds are the paper's *starvation* penalty — its corrected
    runtime subtracts the admissible direct delay (``n_calls x
    slack``) as harmless. A latency SLO cannot make that subtraction
    (the user waits through the direct delay too), so each phase also
    carries the first-order direct-delay inflation
    ``cuda_calls_per_second x slack`` relative to the phase's busy
    time; the measured metric tracks bound + direct. Decode's direct
    term dominates — two API calls per ~2 ms token step — which is
    exactly where the paper's <1%-penalty conclusion breaks for
    interactive traffic.
    """

    #: Prefill-phase predictions (TTFT's sensitivity), keyed by slack.
    prefill: Dict[float, "SlackPrediction"]
    #: Decode-phase predictions (TPOT's sensitivity), keyed by slack.
    decode: Dict[float, "SlackPrediction"]
    #: First-order direct-delay inflation per slack, per phase.
    prefill_direct: Dict[float, float]
    decode_direct: Dict[float, float]


def predict_slo_response(
    profiler: "CDIProfiler",
    profile: AppProfile,
    slack_values_s: Sequence[float],
) -> PredictedSLOResponse:
    """Predict per-phase latency sensitivity through the unchanged model.

    ``profiler`` is an ordinary :class:`~repro.model.CDIProfiler`
    built on the proxy's measured surface; each phase sub-profile is
    binned and weighted by the same Equations 2–3 as any batch app.
    """
    slacks = list(slack_values_s)
    prefill = phase_profile(profile, PHASE_PREFILL)
    decode = phase_profile(profile, PHASE_DECODE)
    return PredictedSLOResponse(
        prefill=profiler.predict_sweep(prefill, slacks),
        decode=profiler.predict_sweep(decode, slacks),
        prefill_direct={
            s: prefill.cuda_calls_per_second * s for s in slacks
        },
        decode_direct={
            s: decode.cuda_calls_per_second * s for s in slacks
        },
    )
