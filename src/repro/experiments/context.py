"""Shared experiment context: cached proxy surface and app profiles.

The Table IV / validation experiments all need the proxy's slack
response surface and the two application profiles — the expensive
artifacts of the reproduction. :class:`ExperimentContext` builds them
once per configuration and caches them on disk so repeated benchmark
runs don't re-sweep.

Caching is two-layered. The primary store is the **per-point cache**
(:class:`repro.parallel.PointCache` under ``.cache/points/``): one
content-addressed entry per (ProxyConfig, slack) pair, so partial
grids, grid extensions and interrupted sweeps reuse every point ever
measured. On top of it, the context still materializes the legacy
whole-surface JSON (``surface-<digest>.json``) as a compatibility shim
— existing tooling that reads those files keeps working, and a fully
warm surface file short-circuits even the per-point lookups.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Optional, Tuple, Union

from ..obs.publish import publish_trace_store
from ..proxy.options import SweepOptions
from ..proxy.response import SlackResponseSurface
from ..proxy.sweep import (
    POINT_CACHE_VERSION,
    PAPER_MATRIX_SIZES,
    PAPER_SLACK_VALUES_S,
    PAPER_THREAD_COUNTS,
    SweepTiming,
    run_slack_sweep,
)

if TYPE_CHECKING:
    from ..apps.base import AppProfile
    from ..apps.cosmoflow.training import CosmoFlowProfileConfig
    from ..apps.lammps.gpu_offload import LammpsProfileConfig
    from ..apps.profilecache import AppProfileCache
    from ..parallel.pointcache import PointCache

__all__ = ["ExperimentContext", "default_cache_dir"]


def default_cache_dir() -> Path:
    """Where cached surfaces live (repo-local, git-ignorable).

    The ``REPRO_CACHE_DIR`` environment variable overrides the
    location — CI jobs and multi-checkout setups point it at a shared
    (or scratch) directory without threading ``cache_dir`` through
    every entry point. An empty value is ignored.
    """
    override = os.environ.get("REPRO_CACHE_DIR", "").strip()
    if override:
        return Path(override).expanduser()
    return Path(__file__).resolve().parents[3] / ".cache"


class ExperimentContext:
    """Configuration + lazily built shared artifacts.

    ``quick`` trades fidelity for speed: fixed 25-iteration proxy
    runs and shortened application profiling runs. The full mode uses
    the paper's auto-calibrated iteration counts and run lengths.

    The sweep's execution knobs travel as one
    :class:`~repro.proxy.SweepOptions` via ``options=`` (default
    ``SweepOptions(cache=True)``) and are read back as
    :attr:`options`:

    * ``workers`` parallelizes the proxy sweep over a process pool
      (``1`` = sequential, ``None`` = ``os.cpu_count()``); parallel
      and sequential surfaces are identical.
    * ``cache`` controls the two cache layers: ``True`` uses
      ``cache_dir`` (default: the repo-local cache dir), ``False``
      disables caching entirely (every run re-measures), and a
      :class:`~repro.parallel.PointCache` instance substitutes a
      custom per-point store.
    * ``fast_forward`` reaches the proxy runs and the app profilers
      (``None`` = their default: the index cores, the proxy's
      skipping a certified steady state; the surface and the profiles
      are bit-identical either way). ``False`` runs every proxy
      iteration and profiles the apps on the reference DES event by
      event.
    * ``faults`` makes :meth:`surface` a *degraded-mode* response
      surface (the plan joins the surface-cache key, so healthy and
      degraded surfaces never alias; an empty plan is stored as
      ``None``).
    * ``adaptive``/``tol`` switch the sweep to error-bounded adaptive
      refinement (measure a seed, predict the rest to within ``tol``
      — see :func:`repro.model.adaptive.adaptive_slack_sweep`);
      adaptive surfaces get their own surface-cache digests.

    ``workers=N`` is the one shorthand, for
    ``options=SweepOptions(cache=True, workers=N)``; passing it
    together with ``options`` is a :class:`TypeError`.
    """

    def __init__(
        self,
        quick: bool = True,
        *,
        cache_dir: Optional[Union[str, Path]] = None,
        options: Optional[SweepOptions] = None,
        workers: Optional[int] = None,
    ) -> None:
        if options is None:
            options = SweepOptions(
                cache=True, workers=1 if workers is None else workers
            )
        elif workers is not None:
            raise TypeError(
                "ExperimentContext() takes workers= or options=, not both; "
                "set options.workers instead"
            )
        self.quick = quick
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        #: The execution-knob bundle the sweep receives (validated, so
        #: the healthy-fabric spellings None / empty plan key the same
        #: surface and run the same sweep).
        self.options = options.validate()
        self._surface: Optional[SlackResponseSurface] = None
        self._profiles: Dict[str, AppProfile] = {}
        #: Timing of the sweep that built the surface this process
        #: (None if the surface came from the whole-surface shim).
        self.sweep_timing: Optional[SweepTiming] = None

    def __repr__(self) -> str:
        return (
            f"ExperimentContext(quick={self.quick!r}, "
            f"cache_dir={self.cache_dir!r}, options={self.options!r})"
        )

    # -- proxy surface -----------------------------------------------------------
    @property
    def sweep_iterations(self) -> Optional[int]:
        """Fixed iteration count in quick mode, auto-calibrated in full."""
        return 25 if self.quick else None

    def surface(self) -> SlackResponseSurface:
        """The proxy slack response surface (disk-cached)."""
        if self._surface is not None:
            return self._surface
        cache = self._surface_cache_path()
        if cache is not None and cache.exists():
            try:
                self._surface = SlackResponseSurface.from_json(cache)
                return self._surface
            except (OSError, ValueError, TypeError):
                # A torn or damaged file is a miss: the sweep below
                # re-assembles the surface (from the point cache) and
                # rewrites the file.
                pass
        sweep = run_slack_sweep(
            matrix_sizes=PAPER_MATRIX_SIZES,
            slack_values_s=PAPER_SLACK_VALUES_S,
            threads=PAPER_THREAD_COUNTS,
            iterations=self.sweep_iterations,
            options=self.options.replace(cache=self.point_cache()),
        )
        self.sweep_timing = sweep.timing
        self._surface = SlackResponseSurface(sweep)
        if cache is not None:
            cache.parent.mkdir(parents=True, exist_ok=True)
            self._surface.to_json(cache)
        return self._surface

    def surrogate(self, *, method: str = "loglinear"):
        """A serving surrogate fitted over this context's surface.

        Convenience for the serving layer: builds (or loads) the
        disk-cached response surface and fits a
        :class:`~repro.serve.SurrogateModel` on its points — what
        ``rowscale-cdi serve``/``predict`` do at startup.
        """
        from ..serve.surrogate import SurrogateModel

        return SurrogateModel.fit(self.surface(), method=method)

    def point_cache(self) -> Optional[PointCache]:
        """The per-point result store (None when caching is disabled)."""
        return self.options.point_cache(self._cache_base())

    def _cache_base(self) -> Path:
        return self.cache_dir if self.cache_dir is not None else default_cache_dir()

    def _surface_cache_path(self) -> Optional[Path]:
        opts = self.options
        if not opts.cache:
            return None
        key_doc = {
            "matrix_sizes": PAPER_MATRIX_SIZES,
            "slacks": PAPER_SLACK_VALUES_S,
            "threads": PAPER_THREAD_COUNTS,
            "iterations": self.sweep_iterations,
            "version": 1,
            # The surface is assembled from point entries: a new point
            # keyspace must not keep serving the old surface file.
            "points": POINT_CACHE_VERSION,
        }
        if opts.faults is not None:
            # Only degraded surfaces extend the key: healthy surface
            # files keep their digests (and stay warm).
            key_doc["faults"] = opts.faults.to_doc()
        if opts.adaptive:
            # Adaptive surfaces contain predicted points — never alias
            # them with a fully measured surface file (dense digests
            # are likewise unchanged when the knob is off).
            key_doc["adaptive"] = True
            key_doc["tol"] = opts.tol
        key = json.dumps(key_doc, sort_keys=True)
        digest = hashlib.sha256(key.encode()).hexdigest()[:16]
        return self._cache_base() / f"surface-{digest}.json"

    # -- application profiles ------------------------------------------------------
    def app_config(self, name: str):
        """The registered app's experiment-grade profiling configuration.

        Resolved through :mod:`repro.apps.registry`, honouring this
        context's ``quick`` knob — for ``lammps``/``cosmoflow`` these
        are the historical configurations bit for bit.
        """
        from ..apps.registry import get_app

        return get_app(name).default_config(self.quick)

    def app_profile(self, name: str) -> AppProfile:
        """Any registered app's traced profile (memoized + disk-cached)."""
        from ..apps.registry import get_app

        return self._profile(
            name, self.app_config(name), get_app(name).profiler
        )

    def app_profiles(self) -> Dict[str, AppProfile]:
        """Every registered app's profile, keyed by name."""
        from ..apps.registry import app_names

        return {name: self.app_profile(name) for name in app_names()}

    def lammps_config(self) -> LammpsProfileConfig:
        """The LAMMPS profiling configuration (box 120, 8 ranks)."""
        return self.app_config("lammps")

    def cosmoflow_config(self) -> CosmoFlowProfileConfig:
        """The CosmoFlow profiling configuration (mini dataset, batch 4)."""
        return self.app_config("cosmoflow")

    def profile_cache(self) -> Optional[AppProfileCache]:
        """The traced-profile store (None when caching is disabled).

        Sibling of :meth:`point_cache`: profiles are content-addressed
        on the full profiling config (seed included), so a warm cache
        skips the application DES run and reproduces the figures
        byte-identically (the columnar trace document round-trips
        exactly).
        """
        from ..apps.profilecache import AppProfileCache

        if not self.options.cache:
            return None
        return AppProfileCache(self._cache_base() / "profiles")

    def _profile(self, app: str, config, builder) -> AppProfile:
        if app not in self._profiles:
            cache = self.profile_cache()
            profile = cache.get(app, config) if cache is not None else None
            if profile is None:
                profile = builder(
                    config, fast_forward=self.options.fast_forward
                )
                if cache is not None:
                    cache.put(app, config, profile)
            publish_trace_store(profile.trace)
            self._profiles[app] = profile
        return self._profiles[app]

    def lammps_profile(self) -> AppProfile:
        """Traced LAMMPS profile (memoized + disk-cached)."""
        return self.app_profile("lammps")

    def cosmoflow_profile(self) -> AppProfile:
        """Traced CosmoFlow profile (memoized + disk-cached)."""
        return self.app_profile("cosmoflow")

    def inference_profile(self) -> AppProfile:
        """Traced inference-serving profile (memoized + disk-cached)."""
        return self.app_profile("inference")

    def profiles(self) -> Tuple[AppProfile, AppProfile]:
        """The paper's two batch-application profiles."""
        return self.lammps_profile(), self.cosmoflow_profile()
