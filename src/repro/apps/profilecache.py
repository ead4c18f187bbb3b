"""Content-addressed store of traced application profiles.

Sibling of :class:`repro.parallel.PointCache`: where the point cache
keys proxy measurements on (ProxyConfig, slack), this keys a whole
traced application run on its profiling configuration — every config
dataclass field (nested hardware specs included, via
``dataclasses.asdict``, so the seed, jitter, box size and GPU/PCIe
specs all participate) plus a code version tag. The figure/table
experiments re-run the same two app configs constantly; a warm cache
skips the DES run entirely and reproduces byte-identical figures.

Each entry is one uncompressed ``.npz``: the columnar trace's arrays
(:meth:`~repro.trace.store.ColumnStore.to_arrays`) plus a ``header``
array holding the JSON header — profile fields, interned names and
meta layout, floats exact through ``repr``. Zip stores a CRC-32 of
every member, so a flipped bit or a truncated file fails to load
instead of decoding to a different profile.

Lookup/write accounting is published through ``repro.obs`` under the
``profilecache.*`` section. Unreadable or damaged entries count as
misses and are re-profiled, exactly like the point cache.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import itertools
import json
import os
import zipfile
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Union

import numpy as np

from ..obs.metrics import get_registry
from ..trace.store import Trace
from .base import AppProfile

__all__ = ["PROFILE_CACHE_VERSION", "AppProfileCache", "profile_key"]

#: Bump whenever app-model or simulator changes alter what a profiling
#: run records — stale traces must not survive a behavioral change.
#: 2026.10-1: LAMMPS and CosmoFlow profiles hold their rows in
#: iteration order (``repro.apps.base.run_programs``), no longer in
#: the building engine's record order.
PROFILE_CACHE_VERSION = "2026.10-1"

#: Per-process temp-name sequence (as in :mod:`repro.parallel.pointcache`):
#: with the pid it makes every writer's temp file unique.
_TMP_SEQ = itertools.count()

#: What loading a damaged entry raises: the zip layer's structure and
#: CRC-32 checks (``BadZipFile``; ``RuntimeError`` and its subclass
#: ``NotImplementedError`` for flipped flag or compression fields),
#: npy headers (``ValueError``, ``EOFError``), and missing or misaligned
#: parts (``KeyError``, ``ValueError``, ``TypeError``, ``IndexError``).
_DAMAGED = (
    zipfile.BadZipFile,
    EOFError,
    RuntimeError,
    ValueError,
    KeyError,
    TypeError,
    IndexError,
)


def profile_key(
    app: str, config: Any, version: str = PROFILE_CACHE_VERSION
) -> str:
    """Stable content hash identifying one profiling run.

    ``config`` must be a (frozen) config dataclass; the key covers the
    app name, the app's registered model version (see
    :func:`repro.apps.registry.app_model_version` — revising one
    workload's kernel mix invalidates only that workload's entries),
    every config field and the cache-wide version tag. JSON with
    sorted keys keeps the digest stable across processes; floats
    round-trip exactly through ``repr`` so distinct configs never
    collide.
    """
    from .registry import app_model_version

    payload = json.dumps(
        {
            "app": app,
            "app_model_version": app_model_version(app),
            "config": dataclasses.asdict(config),
            "version": version,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _profile_doc(profile: AppProfile) -> dict:
    return {
        "name": profile.name,
        "runtime_s": profile.runtime_s,
        "queue_parallelism": profile.queue_parallelism,
        "cuda_calls_per_second": profile.cuda_calls_per_second,
        "trace": profile.trace.to_doc(),
    }


def _profile_arrays(profile: AppProfile) -> Dict[str, np.ndarray]:
    """The ``np.savez`` members of one entry (trace arrays + header)."""
    arrays, header = profile.trace.to_arrays()
    header.update(
        name=profile.name,
        runtime_s=profile.runtime_s,
        queue_parallelism=profile.queue_parallelism,
        cuda_calls_per_second=profile.cuda_calls_per_second,
    )
    arrays["header"] = np.frombuffer(
        json.dumps(header).encode("utf-8"), dtype=np.uint8
    )
    return arrays


def _profile_from_arrays(arrays: Mapping[str, np.ndarray]) -> AppProfile:
    header = json.loads(arrays["header"].tobytes().decode("utf-8"))
    return AppProfile(
        name=str(header["name"]),
        trace=Trace.from_arrays(arrays, header),
        runtime_s=float(header["runtime_s"]),
        queue_parallelism=int(header["queue_parallelism"]),
        cuda_calls_per_second=float(header["cuda_calls_per_second"]),
    )


class AppProfileCache:
    """Directory-backed store of :class:`AppProfile` by content key."""

    def __init__(
        self,
        root: Union[str, Path],
        version: str = PROFILE_CACHE_VERSION,
    ) -> None:
        self.root = Path(root)
        self.version = version
        #: Lifetime lookup accounting for this cache object. ``corrupt``
        #: counts entries that existed on disk but failed to parse
        #: (counted as misses too — the app gets re-profiled).
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.writes = 0
        #: Writes lost to a concurrent writer of the same entry (see
        #: :meth:`put`).
        self.write_races = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from disk (0.0 before any get)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def path_for(self, app: str, config: Any) -> Path:
        """On-disk location of one profile's entry."""
        key = profile_key(app, config, self.version)
        return self.root / key[:2] / f"{key}.npz"

    def get(self, app: str, config: Any) -> Optional[AppProfile]:
        """Cached profile for a config, or ``None`` on a miss."""
        path = self.path_for(app, config)
        reg = get_registry()
        try:
            data = path.read_bytes()
        except OSError:
            self.misses += 1
            reg.counter("profilecache.misses").inc()
            return None
        try:
            with np.load(io.BytesIO(data), allow_pickle=False) as entry:
                arrays = {name: entry[name] for name in entry.files}
            profile = _profile_from_arrays(arrays)
        except _DAMAGED:
            # Torn, bit-flipped or stale entry: a miss, re-profiled.
            self.corrupt += 1
            self.misses += 1
            reg.counter("profilecache.invalidated").inc()
            reg.counter("profilecache.misses").inc()
            return None
        self.hits += 1
        reg.counter("profilecache.hits").inc()
        return profile

    def put(self, app: str, config: Any, profile: AppProfile) -> Path:
        """Store one profile; returns the entry's path.

        Writes via a temporary file + rename so an interrupted run
        never leaves a torn entry behind. Concurrent writers of one
        entry are handled like :meth:`repro.parallel.PointCache.put`:
        the temp name is unique per writer, and an ``OSError`` during
        the race is swallowed and counted in
        ``write_races``/``profilecache.write_races`` — the key is
        content-addressed, so the other writer stored the same profile.
        """
        path = self.path_for(app, config)
        arrays = _profile_arrays(profile)
        reg = get_registry()
        tmp: Optional[Path] = None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_name(
                f"{path.name}.{os.getpid()}-{next(_TMP_SEQ)}.tmp"
            )
            with tmp.open("wb") as fh:
                np.savez(fh, **arrays)
            tmp.replace(path)
        except OSError:
            self.write_races += 1
            reg.counter("profilecache.write_races").inc()
            if tmp is not None:
                try:
                    tmp.unlink()
                except OSError:
                    pass
            return path
        self.writes += 1
        reg.counter("profilecache.writes").inc()
        return path

    def __len__(self) -> int:
        """Number of entries currently stored."""
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.npz"))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed.

        Also removes what older formats and killed writers left behind
        (``*.json`` entries, ``*.tmp`` files), which no lookup reads.
        """
        removed = 0
        if not self.root.exists():
            return removed
        for pattern in ("*/*.npz", "*/*.json", "*/*.tmp"):
            for entry in self.root.glob(pattern):
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
