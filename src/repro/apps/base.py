"""Common interface for production-application models.

An application model can do two things:

* **answer analytically** — closed-form runtime as a function of the
  resource allocation (MPI processes, OpenMP threads), reproducing the
  CPU-to-GPU-ratio experiments of Section IV-A;
* **run on the simulator** — emit its kernel and memcpy stream through
  the simulated CUDA runtime, producing the NSys-like traces that
  Figures 4-5, Table III and the prediction model consume.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from ..gpusim.flatcore import FastForwardInfo
from ..obs import get_registry
from ..trace import Trace
from ..trace.store import ColumnarTrace

__all__ = [
    "AppProfile",
    "ApplicationModel",
    "publish_fastforward",
    "core_fallback_reason",
    "publish_appcore",
    "iteration_ordered",
    "jitter_sigma",
    "lognormal_mu",
]


def jitter_sigma(fraction: float) -> Any:
    """Log-normal sigma giving a relative standard deviation ``fraction``."""
    return np.sqrt(np.log(1 + fraction**2))


def lognormal_mu(mean: float, sigma: Any) -> Any:
    """Log-normal mu whose distribution has mean ``mean`` at ``sigma``.

    An app's jittered timing draws ``rng.lognormal(lognormal_mu(m, s), s)``.
    """
    return np.log(mean) - sigma**2 / 2


def core_fallback_reason(enabled: bool, faults: Optional[Any]) -> Optional[str]:
    """Why an app profile must run on the reference DES (None = it need not).

    ``disabled`` — fast-forward was switched off, which selects the
    event-by-event reference run (the oracle path); ``faults-active`` —
    a non-empty fault plan, which only the DES models. Every other run
    goes to the app's index core (:mod:`repro.gpusim.flatcore`).
    """
    if not enabled:
        return "disabled"
    if faults is not None and not faults.is_empty:
        return "faults-active"
    return None


def publish_appcore(fallback: Optional[str]) -> None:
    """Count one profiling run on the index core (``appcore.runs``) or
    one run the core could not take (``appcore.fallbacks.<reason>``)."""
    reg = get_registry()
    if fallback is None:
        reg.counter("appcore.runs").inc()
    else:
        reg.counter(f"appcore.fallbacks.{fallback}").inc()


def iteration_ordered(trace: ColumnarTrace) -> ColumnarTrace:
    """A profile's trace with its rows in iteration order.

    The DES and the index cores record a run's rows in the order they
    complete them, which differs between the two. ``list(trace)`` is
    the same on both, so storing the rows in that order makes the
    profile, and its cache entry, the same bytes whichever engine
    built it.
    """
    return trace.time_ordered()


def publish_fastforward(info: FastForwardInfo) -> None:
    """Publish one profiling run's fast-forward outcome (``appff.*``).

    Counters: ``appff.hits`` / ``appff.fallbacks`` for certified vs
    full runs, plus ``appff.cycles_skipped`` and
    ``appff.events_skipped`` for how much simulation the certified
    runs avoided.
    """
    reg = get_registry()
    if info.certified:
        reg.counter("appff.hits").inc()
        reg.counter("appff.cycles_skipped").inc(info.skipped_iterations)
        reg.counter("appff.events_skipped").inc(info.events_skipped)
    else:
        reg.counter("appff.fallbacks").inc()


@dataclass(frozen=True)
class AppProfile:
    """The result of profiling one application run.

    Attributes
    ----------
    name:
        Application name ("lammps", "cosmoflow").
    trace:
        Kernel/memcpy/API events recorded during the run.
    runtime_s:
        Wall-clock (simulated) runtime of the profiled region.
    queue_parallelism:
        Effective number of kernels concurrently queued at the GPU —
        the paper reads 8 for LAMMPS (one launcher per MPI process)
        and adopts a pessimistic 4 for CosmoFlow (whose kernel
        sequences are launched in ~1/7th of their execution time).
    cuda_calls_per_second:
        Rate of host-visible CUDA API calls, which multiplied by the
        per-call slack gives the *direct* (admissible) delay.
    """

    name: str
    trace: Trace
    runtime_s: float
    queue_parallelism: int
    cuda_calls_per_second: float
    #: How steady-state fast-forward engaged for this profiling run
    #: (None for profiles built before the knob existed, e.g. cache
    #: entries). Excluded from comparison: a fast-forwarded profile is
    #: the same profile, reached cheaper.
    fastforward: Optional[FastForwardInfo] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.runtime_s <= 0:
            raise ValueError("runtime_s must be positive")
        if self.queue_parallelism < 1:
            raise ValueError("queue_parallelism must be >= 1")


class ApplicationModel(abc.ABC):
    """Base class for the production-application workload models."""

    #: Human-readable application name.
    name: str = "app"

    @abc.abstractmethod
    def runtime(self, processes: int = 1, threads: int = 1) -> float:
        """Analytic runtime for a CPU allocation (strong scaling)."""

    @abc.abstractmethod
    def profile(self, **kwargs) -> AppProfile:
        """Run on the simulated GPU and return the traced profile."""
