"""Parallel execution engine for proxy sweeps and experiments.

Every point of a sweep grid is an independent, deterministic DES run;
this package turns that independence into wall-clock speed without
giving up reproducibility:

* :class:`SweepExecutor` — fans :class:`PointTask`s out over a process
  pool (``workers=None`` → ``os.cpu_count()``), returns results in
  deterministic grid order, and degrades gracefully to an in-process
  loop where pools are unavailable;
* :class:`PointCache` — a content-addressed per-(config, slack) result
  store under ``.cache/points/`` so no grid point is ever measured
  twice, even across partial grids, grid extensions, and interrupted
  sweeps;
* :func:`measure_point` — the picklable worker function reducing one
  proxy run to scalar measurements;
* :mod:`repro.parallel.shards` — the scale-out layer: partition a
  grid deterministically into shards (:func:`shard_of_task`), run one
  shard per host/process (:func:`run_sweep_shard`, the ``sweep
  --shard I/N`` CLI), and reassemble the artifacts into a result
  byte-identical to the single-host run (:func:`merge_shards`,
  :class:`ShardCoordinator`).
"""

from .._lazy import lazy_exports

__all__ = [
    "SweepExecutor",
    "fork_available",
    "merge_stats",
    "PointTask",
    "PointMeasurement",
    "measure_point",
    "PointCache",
    "point_key",
    "POINT_CACHE_VERSION",
    "GridSpec",
    "SHARD_SCHEMA_VERSION",
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

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".executor": ("SweepExecutor", "fork_available", "merge_stats"),
        ".point": ("PointTask", "PointMeasurement", "measure_point"),
        ".pointcache": ("PointCache", "point_key", "POINT_CACHE_VERSION"),
        ".shards": (
            "GridSpec",
            "SHARD_SCHEMA_VERSION",
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
        ),
    },
)
