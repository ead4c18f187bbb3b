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
from typing import Any, Callable, Optional, Sequence, Tuple

import numpy as np

from ..gpusim.flatcore import FastForwardInfo, FlatDevice, des_reason
from ..network.slack import SlackModel
from ..obs.metrics import get_registry
from ..trace.store import Trace

__all__ = [
    "AppProfile",
    "ApplicationModel",
    "run_programs",
    "app_device",
]


def app_device(
    config: Any, slack: SlackModel
) -> Tuple[FlatDevice, Callable[[float], Optional[float]]]:
    """The device an app's programs run on, and its jitter's mus.

    ``config`` gives the GPU, the host link, the seed and ``jitter``,
    the relative standard deviation of the app's log-normal timing
    jitter. ``mu(mean)`` is the log-normal mu with which an instruction
    of mean ``mean`` draws its value (None: no draw, for ``jitter=0``
    or a non-positive mean).
    """
    sigma = np.sqrt(np.log(1 + config.jitter**2)) if config.jitter else None

    def mu(mean: float) -> Optional[float]:
        if sigma is None or mean <= 0:
            return None
        return np.log(mean) - sigma**2 / 2

    dev = FlatDevice(config.gpu, config.pcie, slack,
                     rng=np.random.default_rng(config.seed), sigma=sigma)
    return dev, mu


def run_programs(
    dev: FlatDevice,
    programs: Sequence[Sequence[Tuple]],
    threads: Sequence[int],
    join: Optional[Sequence[Tuple]] = None,
    *,
    fast_forward: Optional[bool],
    faults: Optional[Any],
) -> Tuple[float, Trace, FastForwardInfo]:
    """Run an app's host programs on the index core or the DES interpreter.

    The runs :func:`~repro.gpusim.interpret.des_reason` names
    (``disabled``, ``faults-active``) play them event by event on
    :func:`~repro.gpusim.interpret.run_des`;
    every other run goes to the index core (:meth:`FlatDevice.run`),
    which skips no app steady state (``no-app-skip``). Counts the run
    (``appcore.runs`` or ``appcore.fallbacks.<reason>``) and returns
    its runtime, trace and fast-forward record.

    The two engines record a run's rows in the order they complete
    them, which differs between them. ``list(trace)`` is the same on
    both, so the trace comes back with its rows in that (iteration)
    order, which makes the profile, and its cache entry, the same bytes
    whichever engine built it.
    """
    fallback = des_reason(fast_forward, faults)
    reg = get_registry()
    if fallback is None:
        reg.counter("appcore.runs").inc()
        run = dev.run(programs, threads, join)
        end_s, trace = run.end_s, run.trace
    else:
        from ..gpusim.interpret import run_des

        reg.counter(f"appcore.fallbacks.{fallback}").inc()
        end_s, rt = run_des(dev, programs, threads, join, faults=faults)
        trace = rt.tracer.trace
    info = FastForwardInfo(
        enabled=fast_forward is not False, certified=False,
        reason=fallback or "no-app-skip",
    )
    return end_s, trace.time_ordered(), info


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
