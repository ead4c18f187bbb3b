"""Content-addressed per-point result store for proxy sweeps.

The old surface cache was all-or-nothing: one JSON blob keyed on the
whole grid, so adding a single slack value re-swept everything. This
store instead keeps **one entry per (ProxyConfig, slack) pair**, keyed
by a stable hash of the full config dataclass (including the GPU and
PCIe specs it embeds), the slack value, and a code version tag. Partial
grids, grid extensions and interrupted sweeps therefore reuse every
point ever measured, and changing any field that affects the simulation
— or bumping :data:`POINT_CACHE_VERSION` after a behavioral change to
the simulator — automatically misses.

Layout: ``<root>/<first two hash chars>/<hash>.json``, one small JSON
document per point. Delete the directory (or call
:meth:`PointCache.clear`) to drop the cache; entries are never trusted
blindly — unreadable or malformed files count as misses.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple, Union

from ..obs.metrics import get_registry
from ..proxy.matmul import ProxyConfig
from ..proxy.sweep import POINT_CACHE_VERSION
from .point import PointMeasurement, PointTask

if TYPE_CHECKING:
    from ..faults.plan import FaultPlan

__all__ = ["POINT_CACHE_VERSION", "PointCache", "point_key"]

#: Per-process temp-name sequence: combined with the pid it makes
#: every writer's temp file unique, so concurrent writers of the same
#: entry (worker pools, concurrent sweeps, other hosts on a shared
#: filesystem) never clobber each other's half-written temp.
_TMP_SEQ = itertools.count()


def point_key(
    config: ProxyConfig,
    slack_s: float,
    version: str = POINT_CACHE_VERSION,
    faults: Optional[FaultPlan] = None,
) -> str:
    """Stable content hash identifying one sweep point.

    The key covers every ``ProxyConfig`` field (nested hardware specs
    included, via ``dataclasses.asdict``), the slack value, the fault
    plan (its canonical document form; an empty plan is normalized to
    ``None`` so ``FaultPlan()`` and no-faults share entries, matching
    their bit-identical results), and the cache version tag. JSON with
    sorted keys keeps the digest stable across processes and Python
    versions; floats round-trip exactly through ``repr`` so distinct
    values never collide.
    """
    fault_doc = (
        faults.to_doc() if faults is not None and not faults.is_empty else None
    )
    payload = json.dumps(
        {
            "config": dataclasses.asdict(config),
            "slack_s": slack_s,
            "version": version,
            "faults": fault_doc,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class PointCache:
    """Directory-backed store of :class:`PointMeasurement` by content key."""

    def __init__(
        self,
        root: Union[str, Path],
        version: str = POINT_CACHE_VERSION,
    ) -> None:
        self.root = Path(root)
        self.version = version
        #: Lifetime lookup accounting for this cache object. ``corrupt``
        #: counts entries that existed on disk but failed to parse
        #: (counted as misses too — the point gets re-measured).
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.writes = 0
        #: Writes lost to a concurrent writer of the same entry (see
        #: :meth:`put`) — harmless by construction, counted so shared
        #: caches under concurrent load stay observable.
        self.write_races = 0
        #: Entry path of each missed point, keyed by the identities of
        #: its (config, slack, faults) objects, until its :meth:`put`:
        #: a cold point's key is hashed once. The entry holds the three
        #: objects, so no other live object can take their ids.
        self._missed: Dict[Tuple[int, int, int], Tuple[Any, Path]] = {}

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from disk (0.0 before any get)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def path_for(
        self,
        config: ProxyConfig,
        slack_s: float,
        faults: Optional[FaultPlan] = None,
    ) -> Path:
        """On-disk location of one point's entry."""
        key = point_key(config, slack_s, self.version, faults=faults)
        return self.root / key[:2] / f"{key}.json"

    def get(
        self,
        config: ProxyConfig,
        slack_s: float,
        faults: Optional[FaultPlan] = None,
    ) -> Optional[PointMeasurement]:
        """Cached measurement for a point, or ``None`` on a miss."""
        path = self.path_for(config, slack_s, faults)
        reg = get_registry()
        missed = (id(config), id(slack_s), id(faults))
        try:
            text = path.read_text()
        except OSError:
            self.misses += 1
            reg.counter("cache.misses").inc()
            self._missed[missed] = ((config, slack_s, faults), path)
            return None
        try:
            measurement = PointMeasurement.from_doc(json.loads(text))
        except (ValueError, KeyError, TypeError):
            # Torn/stale entry: treat as a miss and re-measure.
            self.corrupt += 1
            self.misses += 1
            reg.counter("cache.invalidated").inc()
            reg.counter("cache.misses").inc()
            self._missed[missed] = ((config, slack_s, faults), path)
            return None
        self.hits += 1
        reg.counter("cache.hits").inc()
        return measurement

    def put(
        self,
        config: ProxyConfig,
        slack_s: float,
        measurement: PointMeasurement,
        faults: Optional[FaultPlan] = None,
    ) -> Path:
        """Store one measurement; returns the entry's path.

        Writes via a temporary file + atomic rename so a crashed or
        interrupted sweep never leaves a torn entry behind. The cache
        is shared across processes — pool workers, concurrent sweeps,
        hosts on a network filesystem — so the write path must survive
        concurrent writers of the *same* entry: the temp name is
        unique per writer, and any race on the mkdir/rename
        (``FileExistsError``, a partial-rename ``OSError`` on
        non-atomic filesystems) is swallowed and counted in
        ``write_races``/``pointcache.write_races``. Losing such a race
        is harmless by construction — the key is content-addressed, so
        the competing writer stored the same measurement.
        """
        missed = self._missed.pop((id(config), id(slack_s), id(faults)), None)
        path = (
            missed[1] if missed is not None
            else self.path_for(config, slack_s, faults)
        )
        reg = get_registry()
        tmp: Optional[Path] = None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_name(
                f"{path.name}.{os.getpid()}-{next(_TMP_SEQ)}.tmp"
            )
            tmp.write_text(json.dumps(measurement.to_doc()))
            tmp.replace(path)
        except OSError:
            # FileExistsError from a racing mkdir, or a rename/replace
            # refused mid-race (network filesystems): the entry either
            # already holds the identical content or a concurrent
            # writer is about to complete it.
            self.write_races += 1
            reg.counter("pointcache.write_races").inc()
            if tmp is not None:
                try:
                    tmp.unlink()
                except OSError:
                    pass
            return path
        self.writes += 1
        reg.counter("cache.writes").inc()
        return path

    def get_task(self, task: PointTask) -> Optional[PointMeasurement]:
        """Cached measurement for one :class:`PointTask`.

        The task *is* the cache key — config, slack and fault plan
        travel together — so every lookup site (dense sweeps, adaptive
        refinement, the serving cold path) keys identically instead of
        re-spelling the field triple.
        """
        return self.get(task.config, task.slack_s, task.faults)

    def put_task(
        self, task: PointTask, measurement: PointMeasurement
    ) -> Path:
        """Store one task's measurement (see :meth:`get_task`)."""
        return self.put(task.config, task.slack_s, measurement, task.faults)

    def __len__(self) -> int:
        """Number of entries currently stored."""
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        if not self.root.exists():
            return removed
        for entry in self.root.glob("*/*.json"):
            try:
                entry.unlink()
                removed += 1
            except OSError:  # pragma: no cover - racing deleter
                pass
        for sub in self.root.glob("*"):
            if sub.is_dir():
                try:
                    sub.rmdir()
                except OSError:
                    pass
        return removed
