"""One frozen options object for every sweep entry point.

:func:`repro.proxy.run_slack_sweep` grew an execution-knob set —
``workers``, ``cache``, ``fast_forward``, ``faults``, ``adaptive``,
``tol`` — that every layer above it (the CLI, the experiment context,
the degraded-mode driver, the serving cold path) re-spelled
keyword-by-keyword. :class:`SweepOptions` is the single carrier and
the only spelling: build one and pass it as ``options=`` to
:func:`~repro.proxy.run_slack_sweep`,
:func:`~repro.model.adaptive.adaptive_slack_sweep`,
:func:`~repro.faults.run_degraded_sweep`,
:class:`~repro.experiments.ExperimentContext` or the shard entry
points; derive a variant with :meth:`SweepOptions.replace`.

The dataclass is frozen and keyword-only (the ``repro.api``
constructor contract) and hashable. Every sweep entry point checks
its options once, through :meth:`SweepOptions.validate`, which returns
the options the sweep runs with: an empty fault plan becomes ``None``
(the healthy fabric has one spelling), a non-empty plan is validated,
and knob combinations no sweep can run are refused there and nowhere
else. ``cache=True`` is resolved later, by :meth:`point_cache`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional, Tuple, TYPE_CHECKING, Union

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.plan import FaultPlan
    from ..parallel.pointcache import PointCache

__all__ = [
    "ShardingUnsupportedError",
    "SweepOptions",
]


class ShardingUnsupportedError(ValueError):
    """A sweep was asked to shard in a mode that cannot shard.

    Raised for knob combinations the shard engine explicitly refuses —
    today ``adaptive=True`` with a ``shard`` assignment (adaptive
    refinement is a sequential decision process over the whole grid;
    partitioning it by point hash would change which points get
    measured) — and by entry points that cannot return a partial
    surface (:func:`repro.proxy.run_slack_sweep` with ``shard`` set;
    use :func:`repro.parallel.run_sweep_shard` +
    :func:`repro.parallel.merge_shards` instead).
    """


@dataclass(frozen=True, kw_only=True)
class SweepOptions:
    """Execution knobs of one sweep, as a single frozen value.

    ``workers``
        Process count (``1`` = deterministic inline, ``None`` =
        ``os.cpu_count()``).
    ``cache``
        ``None``/``False`` = no per-point cache, ``True`` = the
        repo-local store under ``.cache/points/``, or a concrete
        :class:`~repro.parallel.PointCache`.
    ``fast_forward``
        Engine knob, passed to :func:`~repro.proxy.run_proxy`
        (``None`` = its default: the index core, which skips a
        certified steady state; ``False`` = the reference DES).
    ``faults``
        Optional :class:`~repro.faults.FaultPlan` degrading the fabric.
    ``adaptive`` / ``tol``
        Error-bounded adaptive refinement instead of the dense grid;
        ``tol`` (positive, ``None`` =
        :data:`~repro.model.adaptive.DEFAULT_TOL`) requires
        ``adaptive=True``.
    ``shard``
        ``(index, count)`` assigning this execution one shard of the
        grid's deterministic hash partition (see
        :mod:`repro.parallel.shards`). Only the shard entry points
        (``run_sweep_shard``, the ``sweep --shard I/N`` CLI) consume
        it; :func:`~repro.proxy.run_slack_sweep` refuses it because a
        shard is not a full surface.
    """

    workers: Optional[int] = 1
    cache: Union[bool, "PointCache", None] = None
    fast_forward: Optional[bool] = None
    faults: Optional["FaultPlan"] = None
    adaptive: bool = False
    tol: Optional[float] = None
    shard: Optional[Tuple[int, int]] = None

    def validate(self) -> "SweepOptions":
        """Check the knob combination; returns the options to run with.

        An empty fault plan comes back as ``None`` and a non-empty one
        is validated. Raises :class:`ValueError` for an invalid knob
        and :class:`ShardingUnsupportedError` for ``adaptive`` with a
        ``shard``.
        """
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be >= 1 (or None for cpu_count)")
        if self.tol is not None:
            if not self.adaptive:
                raise ValueError("tol is only meaningful with adaptive=True")
            if self.tol <= 0:
                raise ValueError("tol must be positive")
        if self.shard is not None:
            index, count = self.shard
            if count < 1:
                raise ValueError("shard count must be >= 1")
            if not 0 <= index < count:
                raise ValueError(
                    f"shard index {index} outside 0..{count - 1}"
                )
            if self.adaptive:
                raise ShardingUnsupportedError(
                    "sharding unsupported: adaptive sweeps cannot be "
                    "sharded (refinement is a sequential decision "
                    "process over the whole grid); run the adaptive "
                    "sweep on one host, or shard the dense grid"
                )
        if self.faults is None:
            return self
        if self.faults.is_empty:
            return self.replace(faults=None)
        self.faults.validate()
        return self

    def replace(self, **changes: Any) -> "SweepOptions":
        """A copy with the given knobs replaced."""
        return dataclasses.replace(self, **changes)

    def point_cache(
        self, cache_dir: Optional[Path] = None
    ) -> Optional["PointCache"]:
        """Resolve the ``cache`` knob to a concrete store (or None).

        ``True`` resolves to the per-point store under ``cache_dir``
        (default: the repo-local cache dir, honoring the
        ``REPRO_CACHE_DIR`` override); ``False``/``None`` disable
        caching; a :class:`~repro.parallel.PointCache` passes through.
        """
        from ..parallel.pointcache import PointCache

        if isinstance(self.cache, PointCache):
            return self.cache
        if not self.cache:
            return None
        if cache_dir is None:
            # Lazy import: experiments imports proxy at module level.
            from ..experiments.context import default_cache_dir

            cache_dir = default_cache_dir()
        return PointCache(cache_dir / "points")
