"""Multi-host sharded sweep execution with deterministic merge.

A sweep grid is a bag of independent point tasks, and the per-point
cache already content-addresses each of them — this module turns that
into a scale-out engine:

* :class:`GridSpec` — a self-describing, digestable description of one
  sweep grid (sizes, slacks, threads, iteration policy). Every worker
  plans the *same* canonical task list from it independently
  (:func:`repro.proxy.plan_grid_tasks` is deterministic across hosts).
* :func:`shard_of_task` — the deterministic partitioner: a task
  belongs to shard ``hash(point_key) % shard_count``. Any shard set
  ``0..N-1`` therefore covers the grid exactly once, for every N,
  with no coordination.
* :func:`run_sweep_shard` — execute one shard through the ordinary
  :class:`~repro.parallel.SweepExecutor` (pool, per-point cache,
  fast-forward and fault plumbing all unchanged) and reduce it to a
  :class:`SweepShard`: packed numpy measurement columns plus an
  executor/cache/fast-forward stats roll-up — no per-point Python
  objects on the wire.
* :func:`write_shard` / :func:`load_shard` — the versioned on-disk
  artifact (an ``.npz`` with a JSON header), written via unique-temp +
  atomic rename so concurrent shard workers can share a directory.
* :func:`merge_shards` — validate that a shard set is compatible
  (grid digest, :data:`~repro.parallel.POINT_CACHE_VERSION`, options
  digest) and complete (no gaps, no *conflicting* overlaps — re-run
  straggler shards merge idempotently), then reassemble a
  :class:`~repro.proxy.SweepResult` **byte-identical** to the dense
  single-host run through the shared assembly path.
* :class:`ShardCoordinator` — drive N shard workers as local
  subprocesses (``python -m repro sweep --shard I/N --shard-out ...``)
  and merge their artifacts. The command lines it builds
  (:meth:`~ShardCoordinator.command_for_shard`) are the reference
  protocol for ssh/queue launchers: run them anywhere, ship the
  artifacts back, merge.

Shards pointed at one ``REPRO_CACHE_DIR`` get cache-coherent reuse:
every worker reads and writes the same content-addressed store
(:class:`~repro.parallel.PointCache` writes are race-safe), so a
re-run shard resolves instantly and a grid extension only measures
new points, regardless of which host measured the rest.

Adaptive sweeps (``adaptive=True``) are explicitly unsupported with
sharding — refinement is a sequential decision process over the whole
grid — and :meth:`~repro.proxy.SweepOptions.validate` raises
:class:`~repro.proxy.ShardingUnsupportedError` for them.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import (
    Any,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..faults.plan import FaultPlan
from ..obs.report import RunReport
from ..obs.metrics import get_registry
from ..obs.publish import publish_shard, publish_shard_merge
from ..proxy.options import SweepOptions
from ..proxy.sweep import (
    SweepResult,
    SweepTiming,
    _finish_sweep,
    assemble_sweep_result,
    grid_series,
    plan_grid_tasks,
)
from .executor import SweepExecutor
from .point import PointMeasurement, PointTask
from .pointcache import POINT_CACHE_VERSION, PointCache, point_key

__all__ = [
    "SHARD_SCHEMA_VERSION",
    "GridSpec",
    "ShardCoordinator",
    "ShardMergeError",
    "ShardMergeStats",
    "SweepShard",
    "faults_digest",
    "load_shard",
    "merge_shards",
    "options_digest",
    "run_sweep_shard",
    "shard_of_task",
    "write_shard",
]

#: Version of the shard artifact schema. Bump on any change to the
#: header layout or column set; loaders refuse unknown versions (a
#: shard from a newer build must not be silently misread).
SHARD_SCHEMA_VERSION = 1

#: Artifact magic, so a stray ``.npz`` is rejected with a clear error.
_SHARD_KIND = "repro-sweep-shard"

#: Measurement columns shipped per point (name, dtype). Together with
#: the sparse error-string table in the header these reconstruct every
#: :class:`~repro.parallel.PointMeasurement` field that participates
#: in result assembly and telemetry roll-up (the per-run ``sim`` dict
#: stays host-local: it feeds metrics inside the worker, not results).
_COLUMNS: Tuple[Tuple[str, Any], ...] = (
    ("ok", np.uint8),
    ("loop_runtime_s", np.float64),
    ("corrected_runtime_s", np.float64),
    ("iterations", np.int64),
    ("kernel_time_s", np.float64),
    ("injected_slack_s", np.float64),
    ("starvation_cost_s", np.float64),
    ("elapsed_s", np.float64),
    ("ff_hit", np.uint8),
    ("ff_events_skipped", np.int64),
)


class ShardMergeError(ValueError):
    """A shard set cannot be merged: incompatible, gapped, or in
    conflict. The message lists every problem found, not just the
    first — a fleet operator fixes them in one pass."""


def faults_digest(faults: Optional[FaultPlan]) -> str:
    """Stable content hash of a fault plan (or of the healthy fabric).

    The plan goes through :meth:`~repro.proxy.SweepOptions.validate`
    first, so an empty plan digests as ``None``, matching the
    point-cache key rule — ``FaultPlan()`` and no-faults produce
    bit-identical measurements, so their shards must merge.
    """
    faults = SweepOptions(faults=faults).validate().faults
    doc = faults.to_doc() if faults is not None else None
    payload = json.dumps(doc, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def options_digest(options: SweepOptions) -> str:
    """Stable hash of the measurement-relevant execution knobs.

    Shards of one sweep must agree on everything that could change a
    measurement: the fault plan and the fast-forward switch (included
    defensively — fast-forward is bit-identical by contract, but a
    merge must not paper over a sweep accidentally run in mixed
    modes). Pure scheduling knobs (``workers``, ``cache``, ``shard``)
    are excluded: they cannot change results, and shards *should*
    differ in them.
    """
    doc = {
        "faults": faults_digest(options.faults),
        # None and True select the same engine (the index core) —
        # normalize so an explicit fast_forward=True merges with the
        # default.
        "fast_forward": options.fast_forward is not False,
    }
    payload = json.dumps(doc, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class GridSpec:
    """Self-describing description of one sweep grid.

    Carries exactly the grid parameters of
    :func:`~repro.proxy.run_slack_sweep` — every shard worker rebuilds
    the identical canonical task list from it, and
    :meth:`digest` is the compatibility key shards are validated
    against at merge time. Values are normalized to plain Python
    scalars so the digest is stable across hosts and numpy builds.
    """

    matrix_sizes: Tuple[int, ...]
    slack_values_s: Tuple[float, ...]
    threads: Tuple[int, ...] = (1,)
    iterations: Optional[int] = None
    target_compute_s: float = 30.0

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "matrix_sizes", tuple(int(n) for n in self.matrix_sizes)
        )
        object.__setattr__(
            self,
            "slack_values_s",
            tuple(float(s) for s in self.slack_values_s),
        )
        object.__setattr__(
            self, "threads", tuple(int(t) for t in self.threads)
        )
        if self.iterations is not None:
            object.__setattr__(self, "iterations", int(self.iterations))
        object.__setattr__(
            self, "target_compute_s", float(self.target_compute_s)
        )

    def to_doc(self) -> Dict[str, Any]:
        """Plain-dict form (JSON round-trips bit-exactly)."""
        return {
            "matrix_sizes": list(self.matrix_sizes),
            "slack_values_s": list(self.slack_values_s),
            "threads": list(self.threads),
            "iterations": self.iterations,
            "target_compute_s": self.target_compute_s,
        }

    @classmethod
    def from_doc(cls, doc: Dict[str, Any]) -> "GridSpec":
        return cls(
            matrix_sizes=tuple(doc["matrix_sizes"]),
            slack_values_s=tuple(doc["slack_values_s"]),
            threads=tuple(doc["threads"]),
            iterations=doc.get("iterations"),
            target_compute_s=doc.get("target_compute_s", 30.0),
        )

    def digest(self) -> str:
        """Stable content hash of the grid (the shard-compat key)."""
        payload = json.dumps(self.to_doc(), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    @property
    def task_count(self) -> int:
        """Total tasks in the canonical plan (baselines included)."""
        return len(self.matrix_sizes) * len(self.threads) * (
            1 + len(self.slack_values_s)
        )

    def series(self) -> List[Tuple[int, int]]:
        """``(matrix_size, threads)`` keys in canonical grid order."""
        return grid_series(self.matrix_sizes, self.threads)

    def point_at(self, index: int) -> Tuple[int, int, Optional[float]]:
        """``(matrix_size, threads, slack_s)`` of one global task index
        (``slack_s=None`` for the series baseline) — for diagnostics."""
        per_series = 1 + len(self.slack_values_s)
        n, t = self.series()[index // per_series]
        offset = index % per_series
        slack = None if offset == 0 else self.slack_values_s[offset - 1]
        return (n, t, slack)

    def tasks(
        self,
        *,
        fast_forward: Optional[bool] = None,
        faults: Optional[FaultPlan] = None,
    ) -> List[PointTask]:
        """The canonical task list (see :func:`repro.proxy.plan_grid_tasks`)."""
        return plan_grid_tasks(
            self.matrix_sizes,
            self.slack_values_s,
            self.threads,
            self.iterations,
            self.target_compute_s,
            fast_forward=fast_forward,
            faults=faults,
        )


def shard_of_task(
    task: PointTask,
    shard_count: int,
    version: str = POINT_CACHE_VERSION,
) -> int:
    """Which shard of ``shard_count`` owns one task.

    Derived from the task's content-addressed point key — the same
    hash that keys the :class:`~repro.parallel.PointCache` — so the
    partition is a pure function of the task: every worker computes it
    identically with no coordination, and any shard set ``0..N-1``
    tiles the grid exactly once.
    """
    key = point_key(task.config, task.slack_s, version, faults=task.faults)
    return int(key[:16], 16) % shard_count


@dataclass
class SweepShard:
    """One shard's execution, reduced to packed columns + a roll-up.

    The in-memory form of the shard artifact: global task indices,
    one numpy column per measurement scalar (see the module's
    ``_COLUMNS``), a sparse error-string table, the compatibility
    header fields, and the executor/cache/fast-forward stats dict.
    """

    shard_index: int
    shard_count: int
    grid: GridSpec
    #: Global task indices (into the grid's canonical plan) of the
    #: rows below, ascending.
    index: np.ndarray
    #: name -> packed column, one row per entry of ``index``.
    columns: Dict[str, np.ndarray]
    #: row position -> error message (sparse; only failed points).
    errors: Dict[int, str]
    #: Executor/cache/fast-forward roll-up of the shard run.
    stats: Dict[str, float]
    point_cache_version: str = POINT_CACHE_VERSION
    options_digest: str = ""
    faults_doc: Optional[Dict[str, Any]] = None
    #: Telemetry snapshot (populated when metrics were enabled in the
    #: worker; not serialized into the artifact).
    report: Optional[RunReport] = field(default=None, compare=False)

    @property
    def grid_digest(self) -> str:
        return self.grid.digest()

    def measurement(self, row: int) -> PointMeasurement:
        """Rebuild the :class:`PointMeasurement` of one stored row."""
        c = self.columns
        return PointMeasurement(
            ok=bool(c["ok"][row]),
            error=self.errors.get(row, ""),
            loop_runtime_s=float(c["loop_runtime_s"][row]),
            corrected_runtime_s=float(c["corrected_runtime_s"][row]),
            iterations=int(c["iterations"][row]),
            kernel_time_s=float(c["kernel_time_s"][row]),
            injected_slack_s=float(c["injected_slack_s"][row]),
            starvation_cost_s=float(c["starvation_cost_s"][row]),
            elapsed_s=float(c["elapsed_s"][row]),
            fastforward_hit=bool(c["ff_hit"][row]),
            fastforward_events_skipped=int(c["ff_events_skipped"][row]),
        )

    def row_fingerprint(self, row: int) -> Tuple[Any, ...]:
        """The *measurement* content of one row, for overlap conflict
        checks. ``elapsed_s`` — how long the host happened to take — is
        deliberately excluded: it is telemetry, not measurement, and
        re-running a straggler shard must merge idempotently even
        though its wall clock cannot repeat."""
        return tuple(
            self.columns[name][row].item()
            for name, _ in _COLUMNS
            if name != "elapsed_s"
        ) + (self.errors.get(row, ""),)


def run_sweep_shard(
    grid: GridSpec,
    shard_index: Optional[int] = None,
    shard_count: Optional[int] = None,
    *,
    options: Optional[SweepOptions] = None,
    executor: Optional[SweepExecutor] = None,
) -> SweepShard:
    """Execute one shard of a sweep grid and pack it for the merge.

    The shard assignment comes from the explicit arguments or, when
    omitted, from ``options.shard``. The worker plans the full
    canonical task list, keeps the tasks :func:`shard_of_task` assigns
    to it, runs them through the ordinary
    :class:`~repro.parallel.SweepExecutor` (process pool, per-point
    cache, fault and fast-forward plumbing unchanged), and reduces the
    measurements to packed numpy columns plus a stats roll-up.

    :meth:`~repro.proxy.SweepOptions.validate` raises
    :class:`~repro.proxy.ShardingUnsupportedError` for
    ``adaptive=True`` — adaptive refinement cannot be partitioned by
    point hash without changing which points get measured.
    """
    opts = options if options is not None else SweepOptions()
    if shard_index is None or shard_count is None:
        if opts.shard is None:
            raise TypeError(
                "shard_index/shard_count required (as arguments or via "
                "options.shard)"
            )
        shard_index, shard_count = opts.shard
    opts = opts.replace(shard=(shard_index, shard_count)).validate()
    faults = opts.faults

    tasks = grid.tasks(fast_forward=opts.fast_forward, faults=faults)
    mine = [
        (i, task)
        for i, task in enumerate(tasks)
        if shard_of_task(task, shard_count) == shard_index
    ]

    ex = executor if executor is not None else SweepExecutor(
        opts.workers, opts.point_cache()
    )
    cache = ex.cache
    cache_before = (
        (cache.hits, cache.misses, cache.writes, cache.write_races)
        if cache is not None
        else (0, 0, 0, 0)
    )
    measurements = ex.run([task for _, task in mine])

    index = np.array([i for i, _ in mine], dtype=np.int64)
    columns = {
        name: np.empty(len(mine), dtype=dtype) for name, dtype in _COLUMNS
    }
    errors: Dict[int, str] = {}
    for row, m in enumerate(measurements):
        columns["ok"][row] = m.ok
        columns["loop_runtime_s"][row] = m.loop_runtime_s
        columns["corrected_runtime_s"][row] = m.corrected_runtime_s
        columns["iterations"][row] = m.iterations
        columns["kernel_time_s"][row] = m.kernel_time_s
        columns["injected_slack_s"][row] = m.injected_slack_s
        columns["starvation_cost_s"][row] = m.starvation_cost_s
        columns["elapsed_s"][row] = m.elapsed_s
        columns["ff_hit"][row] = m.fastforward_hit
        columns["ff_events_skipped"][row] = m.fastforward_events_skipped
        if m.error:
            errors[row] = m.error

    stats: Dict[str, float] = {}
    if ex.stats is not None:
        s = ex.stats
        stats.update(
            wall_s=s.wall_s,
            tasks=float(s.grid_points),
            measured=float(s.measured),
            cached=float(s.cached),
            workers=float(s.workers),
            point_seconds=s.point_seconds,
        )
        stats["mode_process"] = float(s.mode == "process")
    if cache is not None:
        stats["cache_hits"] = float(cache.hits - cache_before[0])
        stats["cache_misses"] = float(cache.misses - cache_before[1])
        stats["cache_writes"] = float(cache.writes - cache_before[2])
        stats["cache_write_races"] = float(
            cache.write_races - cache_before[3]
        )
    stats["ff_hits"] = float(sum(m.fastforward_hit for m in measurements))
    stats["ff_events_skipped"] = float(
        sum(m.fastforward_events_skipped for m in measurements)
    )

    shard = SweepShard(
        shard_index=shard_index,
        shard_count=shard_count,
        grid=grid,
        index=index,
        columns=columns,
        errors=errors,
        stats=stats,
        point_cache_version=POINT_CACHE_VERSION,
        options_digest=options_digest(opts),
        faults_doc=faults.to_doc() if faults is not None else None,
    )

    reg = get_registry()
    if reg.enabled:
        publish_shard(shard_index, shard_count, stats, reg)
        shard.report = RunReport.collect(
            reg,
            kind="sweep-shard",
            meta={
                "shard": {"index": shard_index, "count": shard_count},
                "grid": grid.to_doc(),
                "grid_digest": grid.digest(),
                "options_digest": shard.options_digest,
                "point_cache_version": POINT_CACHE_VERSION,
                "faults": shard.faults_doc,
            },
        )
    return shard


def write_shard(shard: SweepShard, path: Union[str, Path]) -> Path:
    """Serialize one shard to its on-disk artifact.

    A single ``.npz``: the measurement columns plus a JSON header
    (grid, digests, versions, stats, sparse errors) packed as bytes.
    Written via a unique temp file + atomic rename, so shard workers
    sharing an output directory — or re-running a straggler over an
    existing artifact — never expose a torn file.
    """
    path = Path(path)
    header = {
        "kind": _SHARD_KIND,
        "schema": SHARD_SCHEMA_VERSION,
        "shard_index": shard.shard_index,
        "shard_count": shard.shard_count,
        "grid": shard.grid.to_doc(),
        "grid_digest": shard.grid_digest,
        "point_cache_version": shard.point_cache_version,
        "options_digest": shard.options_digest,
        "faults": shard.faults_doc,
        "errors": [[row, msg] for row, msg in sorted(shard.errors.items())],
        "stats": shard.stats,
    }
    header_bytes = np.frombuffer(
        json.dumps(header, sort_keys=True).encode("utf-8"), dtype=np.uint8
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            np.savez(
                f, header=header_bytes, index=shard.index, **shard.columns
            )
        tmp.replace(path)
    finally:
        if tmp.exists():  # pragma: no cover - only on a failed write
            try:
                tmp.unlink()
            except OSError:
                pass
    return path


def load_shard(path: Union[str, Path]) -> SweepShard:
    """Load one shard artifact; raises :class:`ShardMergeError` for
    files that are not (readable, current-schema) shard artifacts."""
    path = Path(path)
    try:
        with np.load(path) as npz:
            arrays = {name: npz[name] for name in npz.files}
    except (OSError, ValueError, KeyError) as exc:
        raise ShardMergeError(f"cannot read shard artifact {path}: {exc}")
    try:
        header = json.loads(arrays.pop("header").tobytes().decode("utf-8"))
    except (KeyError, ValueError) as exc:
        raise ShardMergeError(
            f"{path} has no parseable shard header: {exc}"
        )
    if header.get("kind") != _SHARD_KIND:
        raise ShardMergeError(
            f"{path} is not a sweep shard artifact "
            f"(kind={header.get('kind')!r})"
        )
    if header.get("schema") != SHARD_SCHEMA_VERSION:
        raise ShardMergeError(
            f"{path} uses shard schema {header.get('schema')!r}; this "
            f"build reads schema {SHARD_SCHEMA_VERSION}"
        )
    missing = [
        name
        for name in ("index", *(name for name, _ in _COLUMNS))
        if name not in arrays
    ]
    if missing:
        raise ShardMergeError(f"{path} is missing columns: {missing}")
    return SweepShard(
        shard_index=int(header["shard_index"]),
        shard_count=int(header["shard_count"]),
        grid=GridSpec.from_doc(header["grid"]),
        index=arrays["index"],
        columns={name: arrays[name] for name, _ in _COLUMNS},
        errors={int(row): str(msg) for row, msg in header.get("errors", [])},
        stats={str(k): float(v) for k, v in header.get("stats", {}).items()},
        point_cache_version=str(header["point_cache_version"]),
        options_digest=str(header.get("options_digest", "")),
        faults_doc=header.get("faults"),
    )


@dataclass
class ShardMergeStats:
    """Per-shard telemetry roll-up of one merge.

    ``shards`` holds one plain dict per merged artifact (shard index /
    count, point counts, wall, cache split, fast-forward counts —
    whatever the worker recorded), JSON-ready for perf artifacts. The
    coordinator augments ``subprocess_wall_s`` with the walls it
    observed around each worker process.
    """

    shards: List[Dict[str, float]]
    merge_wall_s: float
    grid_points: int
    overlap_points: int = 0
    #: shard index -> end-to-end subprocess wall (coordinator runs only).
    subprocess_wall_s: Optional[Dict[int, float]] = None
    #: Launch-to-merge wall of the whole coordinated run.
    coordinator_wall_s: Optional[float] = None

    @property
    def shard_wall_s(self) -> float:
        """The critical path: the slowest shard's executor wall."""
        return max(
            (s.get("wall_s", 0.0) for s in self.shards), default=0.0
        )

    @property
    def merge_overhead(self) -> Optional[float]:
        """Merge wall over the slowest shard wall (None for 0 walls)."""
        wall = self.shard_wall_s
        return self.merge_wall_s / wall if wall > 0 else None

    def to_doc(self) -> Dict[str, Any]:
        return {
            "shards": self.shards,
            "merge_wall_s": self.merge_wall_s,
            "grid_points": self.grid_points,
            "overlap_points": self.overlap_points,
            "shard_wall_s": self.shard_wall_s,
            "merge_overhead": self.merge_overhead,
            "subprocess_wall_s": (
                {str(k): v for k, v in self.subprocess_wall_s.items()}
                if self.subprocess_wall_s is not None
                else None
            ),
            "coordinator_wall_s": self.coordinator_wall_s,
        }


def merge_shards(
    shards: Sequence[Union[SweepShard, str, Path]],
) -> SweepResult:
    """Reassemble a full :class:`~repro.proxy.SweepResult` from shards.

    Validates that every shard is compatible (same grid digest, same
    :data:`~repro.parallel.POINT_CACHE_VERSION`, same options digest),
    then checks coverage: every global task index exactly once.
    Overlapping indices are tolerated when the duplicate rows carry
    identical measurements (re-running a straggler shard and merging
    again is idempotent — host-local wall clocks are allowed to
    differ); conflicting duplicates and gaps raise
    :class:`ShardMergeError` listing every problem.

    The result is byte-identical to the dense single-host sweep —
    points, skips, surface — because the measurements are recombined
    in canonical grid order and fed through the same
    :func:`~repro.proxy.assemble_sweep_result` path the dense sweep
    uses. ``result.merge`` carries the :class:`ShardMergeStats`
    roll-up; ``result.timing`` reports the critical-path wall (slowest
    shard + merge).
    """
    t0 = perf_counter()
    loaded = [
        s if isinstance(s, SweepShard) else load_shard(s) for s in shards
    ]
    if not loaded:
        raise ShardMergeError("no shards to merge")

    ref = loaded[0]
    problems: List[str] = []
    for s in loaded[1:]:
        if s.grid_digest != ref.grid_digest:
            problems.append(
                f"shard {s.shard_index}/{s.shard_count} measured a "
                f"different grid (digest {s.grid_digest[:12]} != "
                f"{ref.grid_digest[:12]})"
            )
        if s.point_cache_version != ref.point_cache_version:
            problems.append(
                f"shard {s.shard_index}/{s.shard_count} ran under point-"
                f"cache version {s.point_cache_version!r} != "
                f"{ref.point_cache_version!r} (simulator behavior "
                f"changed between shard runs)"
            )
        if s.options_digest != ref.options_digest:
            problems.append(
                f"shard {s.shard_index}/{s.shard_count} ran with "
                f"different measurement options (digest "
                f"{s.options_digest[:12]} != {ref.options_digest[:12]})"
            )
    if problems:
        raise ShardMergeError(
            "incompatible shard set:\n  " + "\n  ".join(problems)
        )

    grid = ref.grid
    total = grid.task_count
    owner: Dict[int, Tuple[SweepShard, int]] = {}
    overlap = 0
    for s in loaded:
        for row, idx in enumerate(s.index.tolist()):
            if idx < 0 or idx >= total:
                problems.append(
                    f"shard {s.shard_index}/{s.shard_count} carries task "
                    f"index {idx} outside the grid's 0..{total - 1}"
                )
                continue
            prev = owner.get(idx)
            if prev is None:
                owner[idx] = (s, row)
                continue
            overlap += 1
            prev_shard, prev_row = prev
            if s.row_fingerprint(row) != prev_shard.row_fingerprint(
                prev_row
            ):
                n, t, slack = grid.point_at(idx)
                where = (
                    f"matrix {n} x {t} thread(s) "
                    + ("baseline" if slack is None else f"slack {slack:g}s")
                )
                problems.append(
                    f"conflicting measurements for {where} (task {idx}): "
                    f"shard {prev_shard.shard_index}/"
                    f"{prev_shard.shard_count} and shard "
                    f"{s.shard_index}/{s.shard_count} disagree"
                )
    missing = [i for i in range(total) if i not in owner]
    if missing:
        examples = ", ".join(
            "{} x {} {}".format(
                *grid.point_at(i)[:2],
                "baseline"
                if grid.point_at(i)[2] is None
                else f"slack {grid.point_at(i)[2]:g}s",
            )
            for i in missing[:3]
        )
        covered = sorted({(s.shard_index, s.shard_count) for s in loaded})
        problems.append(
            f"{len(missing)} of {total} grid tasks uncovered (e.g. "
            f"{examples}); merged shards: "
            + ", ".join(f"{i}/{n}" for i, n in covered)
        )
    if problems:
        raise ShardMergeError(
            "shard set does not tile the grid:\n  " + "\n  ".join(problems)
        )

    measurements = [
        owner[i][0].measurement(owner[i][1]) for i in range(total)
    ]
    result = assemble_sweep_result(
        grid.series(), grid.slack_values_s, measurements
    )

    merge_wall = perf_counter() - t0
    shard_docs = [
        {
            "shard_index": float(s.shard_index),
            "shard_count": float(s.shard_count),
            **s.stats,
        }
        for s in loaded
    ]
    result.merge = ShardMergeStats(
        shards=shard_docs,
        merge_wall_s=merge_wall,
        grid_points=total,
        overlap_points=overlap,
    )
    timing = SweepTiming(
        wall_s=result.merge.shard_wall_s + merge_wall,
        grid_points=total,
        measured=int(sum(s.stats.get("measured", 0.0) for s in loaded)),
        cached=int(sum(s.stats.get("cached", 0.0) for s in loaded)),
        workers=max(
            1, int(sum(s.stats.get("workers", 1.0) for s in loaded))
        ),
        mode="sharded",
        point_seconds=sum(
            s.stats.get("point_seconds", 0.0) for s in loaded
        ),
    )

    reg = get_registry()
    if reg.enabled:
        publish_shard_merge(result.merge, reg)
    # Meta is deliberately identical to the dense single-host sweep's:
    # a merged run is the same sweep, only executed elsewhere (the
    # shard roll-up lives in result.merge and the sweep.shard.*
    # counters, not the meta).
    return _finish_sweep(
        result,
        timing,
        matrix_sizes=grid.matrix_sizes,
        slack_values_s=grid.slack_values_s,
        threads=grid.threads,
        iterations=grid.iterations,
        faults_doc=ref.faults_doc,
    )


class ShardCoordinator:
    """Drive N shard workers as local subprocesses and merge them.

    The same-machine scale-out engine *and* the reference protocol for
    remote launchers: each worker is one ``python -m repro sweep
    --shard I/N --shard-out PATH`` invocation
    (:meth:`command_for_shard` hands the exact argv to ssh/queue
    wrappers), workers share nothing but the filesystem, and the
    artifacts merge through :func:`merge_shards` — so replacing the
    local ``subprocess`` launch with ssh, SLURM, or a work queue
    changes nothing about correctness.

    Workers inherit the environment plus ``REPRO_CACHE_DIR`` when the
    options carry a resolvable point cache, giving all shards
    cache-coherent reuse of one content-addressed store. A failed or
    straggling shard can be re-run with the identical command and the
    merge repeated — merging is idempotent.

    Parameters
    ----------
    grid:
        The sweep grid every worker plans from.
    shard_count:
        Number of workers (= shards in the partition).
    options:
        Execution knobs applied inside each worker (``workers`` is the
        *per-worker* pool size; default 1 — the shard fan-out is the
        parallelism). ``adaptive`` is refused.
    shard_dir:
        Where the artifacts land (a temporary directory by default).
    python:
        Interpreter to launch (default ``sys.executable``).
    env:
        Extra environment variables for the workers.
    """

    def __init__(
        self,
        grid: GridSpec,
        shard_count: int,
        *,
        options: Optional[SweepOptions] = None,
        shard_dir: Optional[Union[str, Path]] = None,
        python: Optional[str] = None,
        env: Optional[Dict[str, str]] = None,
    ) -> None:
        if shard_count < 1:
            raise ValueError("shard_count must be >= 1")
        opts = (options if options is not None else SweepOptions()).replace(
            shard=(0, shard_count)
        ).validate()
        self.grid = grid
        self.shard_count = shard_count
        self.options = opts
        self.shard_dir = Path(shard_dir) if shard_dir is not None else None
        self.python = python or sys.executable
        self.extra_env = dict(env or {})
        #: Stats of the most recent :meth:`run` (None before first use).
        self.merge_stats: Optional[ShardMergeStats] = None

    def shard_path(self, index: int, shard_dir: Path) -> Path:
        """Artifact location of one shard."""
        return shard_dir / f"shard-{index:03d}-of-{self.shard_count}.npz"

    def command_for_shard(self, index: int, out_path: Path) -> List[str]:
        """The exact worker argv — the wire protocol for any launcher."""
        grid, opts = self.grid, self.options
        cmd = [
            self.python,
            "-m",
            "repro",
            "sweep",
            "--shard",
            f"{index}/{self.shard_count}",
            "--shard-out",
            str(out_path),
        ]
        for n in grid.matrix_sizes:
            cmd += ["--matrix", str(n)]
        for s in grid.slack_values_s:
            cmd += ["--slack", repr(s)]
        for t in grid.threads:
            cmd += ["--threads", str(t)]
        cmd += ["--iterations", str(grid.iterations or 0)]
        if grid.target_compute_s != 30.0:
            cmd += ["--target-compute", repr(grid.target_compute_s)]
        workers = opts.workers
        if workers != 1:
            cmd += ["--workers", "0" if workers is None else str(workers)]
        if not opts.cache:
            cmd += ["--no-cache"]
        if opts.fast_forward is False:
            cmd += ["--no-fast-forward"]
        if opts.faults is not None:
            cmd += ["--faults", json.dumps(opts.faults.to_doc())]
        return cmd

    def worker_env(self) -> Dict[str, str]:
        """Environment for the workers (import path + shared cache)."""
        env = dict(os.environ)
        # Guarantee the workers import this build of repro even when
        # it is not installed (the usual PYTHONPATH=src layout).
        src_root = str(Path(__file__).resolve().parents[2])
        parts = [src_root] + [
            p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p
        ]
        env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(parts))
        cache = self.options.cache
        if isinstance(cache, PointCache):
            root = Path(cache.root).resolve()
            if root.name != "points":
                raise ValueError(
                    "a custom PointCache can only be shared with shard "
                    "subprocesses when rooted at <dir>/points (the "
                    "REPRO_CACHE_DIR layout); set REPRO_CACHE_DIR "
                    "yourself via env= for other layouts"
                )
            env["REPRO_CACHE_DIR"] = str(root.parent)
        env.update(self.extra_env)
        return env

    def run(self) -> SweepResult:
        """Launch every shard, wait, merge; returns the merged result.

        Raises ``RuntimeError`` with the failing worker's stderr tail
        if any subprocess exits non-zero (its artifact, if written, is
        left in place so the shard can be re-run and re-merged).
        """
        t0 = perf_counter()
        tmp: Optional[tempfile.TemporaryDirectory] = None
        if self.shard_dir is not None:
            shard_dir = self.shard_dir
            shard_dir.mkdir(parents=True, exist_ok=True)
        else:
            tmp = tempfile.TemporaryDirectory(prefix="repro-shards-")
            shard_dir = Path(tmp.name)
        try:
            env = self.worker_env()
            paths = [
                self.shard_path(i, shard_dir)
                for i in range(self.shard_count)
            ]
            procs = [
                subprocess.Popen(
                    self.command_for_shard(i, path),
                    stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE,
                    env=env,
                    text=True,
                )
                for i, path in enumerate(paths)
            ]
            walls: Dict[int, float] = {}
            pending = set(range(self.shard_count))
            while pending:
                for i in sorted(pending):
                    if procs[i].poll() is not None:
                        walls[i] = perf_counter() - t0
                        pending.discard(i)
                if pending:
                    time.sleep(0.01)
            failures = []
            for i, proc in enumerate(procs):
                if proc.returncode != 0:
                    _, err = proc.communicate()
                    tail = "\n".join(err.strip().splitlines()[-5:])
                    failures.append(
                        f"shard {i}/{self.shard_count} exited "
                        f"{proc.returncode}: {tail}"
                    )
                else:
                    proc.communicate()
            if failures:
                raise RuntimeError(
                    "shard worker(s) failed:\n  " + "\n  ".join(failures)
                )
            result = merge_shards(paths)
        finally:
            if tmp is not None:
                tmp.cleanup()
        assert result.merge is not None
        result.merge.subprocess_wall_s = walls
        result.merge.coordinator_wall_s = perf_counter() - t0
        self.merge_stats = result.merge
        return result
