"""Self-validation of the prediction methodology (paper Section IV-D).

The paper validates Equations 2-3 by feeding the *proxy's own* traces
through the prediction pipeline and checking how well it predicts its
own measured penalty: the lower bound landed within 0.005 of the
actual for single-threaded runs, while the upper bound was severely
pessimistic (shrinking as threads were added).

:func:`validate_self_prediction` reproduces that experiment for one
grid point; :func:`validation_report` sweeps a set of points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..apps.base import AppProfile
from ..network.slack import SlackModel
from ..proxy.matmul import ProxyConfig, ProxyResult, run_proxy
from ..proxy.response import SlackResponseSurface
from .predictor import CDIProfiler

__all__ = ["SelfValidationResult", "validate_self_prediction", "validation_report"]


@dataclass(frozen=True)
class SelfValidationResult:
    """Prediction-vs-actual for one proxy configuration."""

    matrix_size: int
    threads: int
    slack_s: float
    actual_penalty: float
    predicted_lower: float
    predicted_upper: float

    @property
    def lower_error(self) -> float:
        """Signed error of the lower bound (prediction - actual)."""
        return self.predicted_lower - self.actual_penalty

    @property
    def upper_pessimism(self) -> float:
        """How far above the actual the upper bound sits."""
        return self.predicted_upper - self.actual_penalty


def _proxy_profile(
    config: ProxyConfig,
    baseline: ProxyResult,
    duration_jitter: float = 0.0,
    seed: int = 7,
) -> AppProfile:
    """Build an AppProfile from the zero-slack proxy run ``baseline``.

    ``duration_jitter`` optionally perturbs the traced kernel
    durations and transfer sizes the way real measurement noise would,
    which pushes observations off the exact grid points and exercises
    the lower/upper bracketing the way real application traces do.
    """
    trace = baseline.trace
    if duration_jitter > 0:
        from ..trace.store import COLUMNS, ColumnStore, Trace

        # One factor per event in iteration order, drawn in one call.
        rows = trace.time_ordered().store
        n = rows.n
        factor = np.random.default_rng(seed).lognormal(
            0.0, duration_jitter, size=n
        )
        columns = {col: getattr(rows, col)[:n] for col in COLUMNS}
        start = columns["start"]
        columns["end"] = start + (columns["end"] - start) * factor
        columns["nbytes"] = (columns["nbytes"] * factor).astype(np.int64)
        trace = Trace(
            name=trace.name,
            store=ColumnStore.from_columns(columns, rows.names, rows.metas),
        )
    return AppProfile(
        name=f"proxy-n{config.matrix_size}",
        trace=trace,
        runtime_s=baseline.loop_runtime_s,
        queue_parallelism=config.threads,
        cuda_calls_per_second=(
            baseline.cuda_calls * config.threads / baseline.loop_runtime_s
        ),
    )


def validate_self_prediction(
    surface: SlackResponseSurface,
    matrix_size: int,
    slack_s: float,
    threads: int = 1,
    iterations: Optional[int] = None,
    duration_jitter: float = 0.0,
    profiler: Optional[CDIProfiler] = None,
) -> SelfValidationResult:
    """Predict the proxy's own penalty from its trace and compare.

    The zero-slack baseline run is both the penalty's denominator and
    the traced profile the prediction reads.
    """
    config = ProxyConfig(
        matrix_size=matrix_size, threads=threads, iterations=iterations
    )
    return _validate(
        config, run_proxy(config, SlackModel.none()), slack_s,
        duration_jitter, profiler or CDIProfiler(surface),
    )


def _validate(
    config: ProxyConfig,
    baseline: ProxyResult,
    slack_s: float,
    duration_jitter: float,
    profiler: CDIProfiler,
) -> SelfValidationResult:
    run = run_proxy(config, SlackModel(slack_s))
    actual = max(
        0.0, run.corrected_runtime_s / baseline.loop_runtime_s - 1.0
    )
    profile = _proxy_profile(config, baseline, duration_jitter)
    prediction = profiler.predict(profile, slack_s, parallelism=config.threads)
    return SelfValidationResult(
        matrix_size=config.matrix_size,
        threads=config.threads,
        slack_s=slack_s,
        actual_penalty=actual,
        predicted_lower=prediction.lower,
        predicted_upper=prediction.upper,
    )


def validation_report(
    surface: SlackResponseSurface,
    matrix_sizes: Sequence[int],
    slack_values_s: Sequence[float],
    threads: int = 1,
    iterations: Optional[int] = None,
    duration_jitter: float = 0.0,
) -> List[SelfValidationResult]:
    """Self-validate over a grid of proxy configurations.

    Each matrix size's zero-slack baseline is simulated once and shared
    by all of its slack values.
    """
    profiler = CDIProfiler(surface)
    results = []
    for n in matrix_sizes:
        config = ProxyConfig(
            matrix_size=n, threads=threads, iterations=iterations
        )
        baseline = run_proxy(config, SlackModel.none())
        results.extend(
            _validate(config, baseline, s, duration_jitter, profiler)
            for s in slack_values_s
        )
    return results
