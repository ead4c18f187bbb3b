"""Placement-to-slack mapping: where a composition's GPUs physically
live determines the slack its job experiences.

Joins the :mod:`repro.cdi` composition layer to the
:mod:`repro.network` fabric: each (host rack, chassis rack) pairing
resolves to a path and its slack, so a scheduled job can be handed the
exact :class:`SlackModel` its CUDA calls will see — closing the loop
back to the proxy/prediction machinery.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from ..network.fabric import Fabric, PathInfo
from ..network.slack import SlackModel
from .resources import Composition

__all__ = [
    "PlacementResolver",
    "CompositionSlack",
    "FleetTopology",
    "RackPool",
    "place_pack",
    "place_spread",
    "place_locality",
    "PLACEMENT_POLICIES",
]


@dataclass(frozen=True)
class CompositionSlack:
    """The slack characteristics of one placed composition."""

    composition_id: int
    paths: Dict[str, PathInfo]  # chassis_id -> path from the host
    worst_slack_s: float
    best_slack_s: float

    def worst_case_model(self) -> SlackModel:
        """A slack model at the composition's worst path (pessimistic)."""
        return SlackModel(self.worst_slack_s)


class PlacementResolver:
    """Resolves compositions onto a fabric to obtain slack models."""

    def __init__(self, fabric: Fabric) -> None:
        self.fabric = fabric

    def resolve(
        self,
        composition: Composition,
        host: str,
        chassis_racks: Dict[str, int],
    ) -> CompositionSlack:
        """Compute per-chassis paths for a composition from ``host``.

        ``chassis_racks`` maps each chassis id used by the composition
        to the rack its fabric node lives in (``chassis:<rack>``).
        """
        if not composition.gpus:
            raise ValueError("composition has no GPUs to place")
        paths: Dict[str, PathInfo] = {}
        for chassis_id in composition.gpus:
            if chassis_id not in chassis_racks:
                raise KeyError(f"no rack known for chassis {chassis_id!r}")
            rack = chassis_racks[chassis_id]
            paths[chassis_id] = self.fabric.path(host, f"chassis:{rack}")
        slacks = [p.slack_s for p in paths.values()]
        return CompositionSlack(
            composition_id=composition.composition_id,
            paths=paths,
            worst_slack_s=max(slacks),
            best_slack_s=min(slacks),
        )


# ---------------------------------------------------------------------------
# Fleet-scale placement: racks of pooled GPU chassis.
#
# The fleet engine (repro.cdi.fleet) schedules against total pool
# capacity — placement never changes *when* a job runs, only *where*
# its GPUs land and therefore what fabric slack it experiences. The
# policies below take GPUs from a RackPool of per-rack free counts,
# kept cheap enough to run once per grant in a million-job simulation.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FleetTopology:
    """Rack-level view of a fleet's GPU pool for placement purposes.

    ``rack_slack_s[r]`` is the one-way fabric slack a host pays to
    reach rack ``r``'s chassis; placement policies use it to order
    racks and the fleet report uses it to drive the serving-layer
    surrogate (penalty distribution per tenant).
    """

    rack_slack_s: Tuple[float, ...]
    gpus_per_rack: int

    def __post_init__(self) -> None:
        if not self.rack_slack_s:
            raise ValueError("topology needs at least one rack")
        if self.gpus_per_rack <= 0:
            raise ValueError("gpus_per_rack must be positive")
        if any(s < 0 for s in self.rack_slack_s):
            raise ValueError("rack slack must be non-negative")

    @property
    def racks(self) -> int:
        """Number of GPU racks."""
        return len(self.rack_slack_s)

    @property
    def total_gpus(self) -> int:
        """All GPUs across the racks."""
        return self.racks * self.gpus_per_rack

    @classmethod
    def uniform(
        cls,
        racks: int,
        gpus_per_rack: int,
        base_slack_s: float = 2.0e-6,
        step_slack_s: float = 0.5e-6,
    ) -> "FleetTopology":
        """A synthetic row: rack ``r`` at ``base + r * step`` slack."""
        if racks <= 0:
            raise ValueError("racks must be positive")
        return cls(
            rack_slack_s=tuple(
                base_slack_s + r * step_slack_s for r in range(racks)
            ),
            gpus_per_rack=gpus_per_rack,
        )

    @classmethod
    def from_fabric(
        cls, fabric: Fabric, host: str, gpus_per_rack: int
    ) -> "FleetTopology":
        """Measure per-rack slack from ``host`` on a real fabric graph."""
        racks = sorted(fabric.spec.chassis_racks)
        if not racks:
            raise ValueError("fabric has no chassis racks")
        slacks = tuple(
            fabric.path(host, f"chassis:{r}").slack_s for r in racks
        )
        return cls(rack_slack_s=slacks, gpus_per_rack=gpus_per_rack)


class RackPool:
    """Free GPUs per rack, also held in ``(free, rack)`` order.

    ``free[r]`` is rack ``r``'s free count. ``keys`` holds
    ``free[r] * racks + r`` for every rack, sorted: the keys order the
    racks by free count, then by index, so the rack with the fewest
    free GPUs that still holds ``need`` (lowest index on ties) is the
    key at ``bisect_left(keys, need * racks)``. A free count changes
    only through :meth:`take` / :meth:`release`, which keep the two
    views in step, or in :func:`place_pack`, which moves the key it
    found itself.
    """

    __slots__ = ("free", "keys", "racks")

    def __init__(self, free: Sequence[int]) -> None:
        self.free: List[int] = list(free)
        self.racks = n = len(self.free)
        self.keys: List[int] = sorted(
            f * n + r for r, f in enumerate(self.free)
        )

    def take(self, rack: int, count: int) -> None:
        """Take ``count`` GPUs from ``rack``."""
        self.release(((rack, -count),))

    def release(self, placed: Iterable[Tuple[int, int]]) -> None:
        """Return a placement's ``(rack, count)`` pairs to the pool."""
        free, keys, n = self.free, self.keys, self.racks
        for rack, count in placed:
            f = free[rack]
            del keys[bisect_left(keys, f * n + rack)]
            free[rack] = f = f + count
            insort(keys, f * n + rack)


def _span(
    pool: RackPool, need: int, racks: Iterable[int]
) -> List[Tuple[int, int]]:
    """Fill ``racks`` in order until ``need`` GPUs are taken."""
    free = pool.free
    placements: List[Tuple[int, int]] = []
    remaining = need
    for rack in racks:
        if remaining == 0:
            break
        take = min(free[rack], remaining)
        if take > 0:
            pool.take(rack, take)
            placements.append((rack, take))
            remaining -= take
    if remaining > 0:
        raise ValueError(f"pool cannot place {need} GPUs")
    return placements


def place_pack(
    pool: RackPool, need: int, slack_order: Sequence[int]
) -> List[Tuple[int, int]]:
    """Best-fit packing: the tightest single rack that fits, else span
    the fullest racks — fewest racks touched, least fragmentation.

    GPUs are taken from ``pool``. Returns ``[(rack, count), ...]``;
    raises if the pool cannot satisfy.
    """
    keys, n = pool.keys, pool.racks
    i = bisect_left(keys, need * n)
    if i < len(keys):  # least free, then lowest rack index
        key = keys[i]
        rack = key % n
        del keys[i]
        insort(keys, key - need * n)
        pool.free[rack] -= need
        return [(rack, need)]
    free = pool.free
    return _span(pool, need, sorted(range(n), key=lambda r: (-free[r], r)))


def place_spread(
    pool: RackPool, need: int, slack_order: Sequence[int]
) -> List[Tuple[int, int]]:
    """Load balancing: GPUs go one at a time to the emptiest rack."""
    free = pool.free
    taken = [0] * len(free)
    for _ in range(need):
        rack = max(range(len(free)), key=lambda r: (free[r], -r))
        if free[rack] <= 0:
            raise ValueError(f"pool cannot place {need} GPUs")
        pool.take(rack, 1)
        taken[rack] += 1
    return [(r, t) for r, t in enumerate(taken) if t > 0]


def place_locality(
    pool: RackPool, need: int, slack_order: Sequence[int]
) -> List[Tuple[int, int]]:
    """Slack-aware: the nearest rack that fits whole, else fill racks
    in ascending-slack order (``slack_order``)."""
    for rack in slack_order:
        if pool.free[rack] >= need:
            pool.take(rack, need)
            return [(rack, need)]
    return _span(pool, need, slack_order)


PLACEMENT_POLICIES = {
    "pack": place_pack,
    "spread": place_spread,
    "locality": place_locality,
}
