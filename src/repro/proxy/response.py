"""The slack response surface: penalty as f(matrix size, slack, threads).

Wraps a :class:`SweepResult` into an interpolating lookup that the
prediction model (Equations 2-3) queries: given a kernel-duration or
transfer-size bin mapped to a proxy matrix size, what slack penalty
does the proxy predict at a target slack value and queue parallelism?

Interpolation is log-linear in slack (the grid spans decades) and the
thread axis falls back to the nearest measured count.

Slack indexing goes through the shared quantization
(:mod:`repro.proxy.quantize`): points whose slack values share a
bucket collapse to the first-recorded spelling when the surface is
built, and a query slack within :func:`~repro.proxy.quantize
.slack_tolerance` of a measured grid point answers with that point's
penalty exactly — the same near-miss rule ``SweepResult.get`` applies,
so the two lookups can no longer disagree at bucket boundaries.
"""

from __future__ import annotations

import itertools
import json
import os
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .quantize import same_slack, slack_bucket
from .sweep import SweepPoint, SweepResult

__all__ = ["SlackResponseSurface"]

#: Per-process temp-name sequence of :meth:`SlackResponseSurface.to_json`.
_TMP_SEQ = itertools.count()


class SlackResponseSurface:
    """Queryable slack-penalty surface built from proxy sweeps."""

    def __init__(self, sweep: SweepResult) -> None:
        if not sweep.points:
            raise ValueError("sweep has no measured points")
        buckets: Dict[Tuple[int, int], Dict[str, SweepPoint]] = {}
        for p in sweep.points:
            series = buckets.setdefault((p.matrix_size, p.threads), {})
            # First spelling of a bucket wins, matching SweepResult's
            # near-miss index — re-measured float spellings of one grid
            # point must not grow duplicate series entries.
            series.setdefault(slack_bucket(p.slack_s), p)
        self._series: Dict[Tuple[int, int], List[SweepPoint]] = {
            key: sorted(series.values(), key=lambda p: p.slack_s)
            for key, series in buckets.items()
        }

    # -- introspection --------------------------------------------------------
    def matrix_sizes(self, threads: Optional[int] = None) -> List[int]:
        """Matrix sizes available (optionally for one thread count)."""
        sizes = {
            n for (n, t) in self._series if threads is None or t == threads
        }
        return sorted(sizes)

    def thread_counts(self) -> List[int]:
        """Thread counts available."""
        return sorted({t for (_, t) in self._series})

    def slack_values(self, matrix_size: int, threads: int) -> List[float]:
        """Slack grid measured for one series."""
        key = self._resolve(matrix_size, threads)
        return [p.slack_s for p in self._series[key]]

    # -- queries ---------------------------------------------------------------
    def penalty(self, matrix_size: int, slack_s: float, threads: int = 1) -> float:
        """Fractional starvation penalty at one surface point.

        ``matrix_size`` must be on the measured grid (binning happens
        upstream in :mod:`repro.model.binning`); slack is interpolated
        log-linearly between grid points and clamped at the ends;
        ``threads`` falls back to the nearest measured count.
        """
        if slack_s < 0:
            raise ValueError("slack_s must be non-negative")
        if slack_s == 0:
            return 0.0
        key = self._resolve(matrix_size, threads)
        series = self._series[key]
        slacks = np.array([p.slack_s for p in series])
        penalties = np.array([max(0.0, p.penalty) for p in series])
        # Near-miss snap: a query within the shared quantization
        # tolerance of a measured point is that point (SweepResult.get
        # semantics), not an interpolation across it.
        idx = int(np.searchsorted(slacks, slack_s))
        for j in (idx - 1, idx):
            if 0 <= j < len(slacks) and same_slack(float(slacks[j]), slack_s):
                return float(penalties[j])
        if slack_s <= slacks[0]:
            # Below the measured grid: scale the first point linearly
            # down to zero (penalty is linear in slack in this regime).
            return float(penalties[0] * slack_s / slacks[0])
        if slack_s >= slacks[-1]:
            return float(penalties[-1])
        # Log-linear interpolation between bracketing grid points.
        return float(
            np.interp(np.log(slack_s), np.log(slacks), penalties)
        )

    def normalized_runtime(
        self, matrix_size: int, slack_s: float, threads: int = 1
    ) -> float:
        """Equation-1-corrected normalized runtime (1 + penalty)."""
        return 1.0 + self.penalty(matrix_size, slack_s, threads)

    def nearest_sizes(self, value: int, threads: int = 1) -> Tuple[int, int]:
        """Bracket ``value`` by measured matrix sizes (lower, upper).

        Used by the model's binning to produce the paper's lower/upper
        slack-penalty bounds; values off either end clamp to the
        nearest size on both slots.
        """
        sizes = self.matrix_sizes(threads)
        lower = max((s for s in sizes if s <= value), default=sizes[0])
        upper = min((s for s in sizes if s >= value), default=sizes[-1])
        return lower, upper

    def iter_points(self) -> Iterator[SweepPoint]:
        """The retained (bucket-deduplicated) measured points.

        Series order is sorted ``(matrix_size, threads)``, points
        ascending in slack — the canonical training-data extraction
        order for the serving surrogate.
        """
        for key in sorted(self._series):
            yield from self._series[key]

    # -- persistence --------------------------------------------------------------
    def to_json(self, path: Union[str, Path]) -> None:
        """Cache the surface to a JSON file.

        Writes a temporary file beside ``path`` and renames it into
        place, so a killed writer never leaves a torn file behind; the
        temp name is unique per process and call, so concurrent writers
        of one path never share it.
        """
        path = Path(path)
        doc = [
            {
                "matrix_size": p.matrix_size,
                "threads": p.threads,
                "slack_s": p.slack_s,
                "loop_runtime_s": p.loop_runtime_s,
                "corrected_runtime_s": p.corrected_runtime_s,
                "baseline_runtime_s": p.baseline_runtime_s,
                "iterations": p.iterations,
                "kernel_time_s": p.kernel_time_s,
            }
            for series in self._series.values()
            for p in series
        ]
        tmp = path.with_name(f"{path.name}.{os.getpid()}-{next(_TMP_SEQ)}.tmp")
        try:
            tmp.write_text(json.dumps(doc, indent=1))
            os.replace(tmp, path)
        except OSError:
            tmp.unlink(missing_ok=True)
            raise

    @classmethod
    def from_json(cls, path: Union[str, Path]) -> "SlackResponseSurface":
        """Load a surface cached by :meth:`to_json`."""
        doc = json.loads(Path(path).read_text())
        sweep = SweepResult()
        for item in doc:
            sweep.add(SweepPoint(**item))
        return cls(sweep)

    # -- internals ---------------------------------------------------------------
    def _resolve(self, matrix_size: int, threads: int) -> Tuple[int, int]:
        available_threads = sorted(
            {t for (n, t) in self._series if n == matrix_size}
        )
        if not available_threads:
            raise KeyError(
                f"matrix size {matrix_size} not on the measured grid "
                f"{self.matrix_sizes()}"
            )
        nearest_t = min(available_threads, key=lambda t: abs(t - threads))
        return (matrix_size, nearest_t)
