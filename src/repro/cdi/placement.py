"""Placement-to-slack mapping: where a composition's GPUs physically
live determines the slack its job experiences.

Joins the :mod:`repro.cdi` composition layer to the
:mod:`repro.network` fabric: each (host rack, chassis rack) pairing
resolves to a path and its slack, so a scheduled job can be handed the
exact :class:`SlackModel` its CUDA calls will see — closing the loop
back to the proxy/prediction machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..network import Fabric, PathInfo, SlackModel
from .resources import Composition

__all__ = [
    "PlacementResolver",
    "CompositionSlack",
    "FleetTopology",
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
# policies below are pure functions over per-rack free counts so they
# stay cheap enough to run inline in a million-job simulation.
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


def place_pack(
    free: List[int], need: int, slack_order: Sequence[int]
) -> List[Tuple[int, int]]:
    """Best-fit packing: the tightest single rack that fits, else span
    the fullest racks — fewest racks touched, least fragmentation.

    ``free`` is mutated in place (GPUs are taken). Returns
    ``[(rack, count), ...]``; raises if the pool cannot satisfy.
    """
    # One pass for the best fit: least free, then lowest rack index. An
    # exact fit cannot be beaten by a later rack, so it ends the scan.
    best = -1
    best_free = float("inf")
    for rack, avail in enumerate(free):
        if need <= avail < best_free:
            best, best_free = rack, avail
            if avail == need:
                break
    if best >= 0:
        free[best] -= need
        return [(best, need)]
    placements: List[Tuple[int, int]] = []
    remaining = need
    for rack in sorted(range(len(free)), key=lambda r: (-free[r], r)):
        if remaining == 0:
            break
        take = min(free[rack], remaining)
        if take > 0:
            free[rack] -= take
            placements.append((rack, take))
            remaining -= take
    if remaining > 0:
        raise ValueError(f"pool cannot place {need} GPUs")
    return placements


def place_spread(
    free: List[int], need: int, slack_order: Sequence[int]
) -> List[Tuple[int, int]]:
    """Load balancing: GPUs go one at a time to the emptiest rack."""
    taken = [0] * len(free)
    for _ in range(need):
        rack = max(range(len(free)), key=lambda r: (free[r], -r))
        if free[rack] <= 0:
            raise ValueError(f"pool cannot place {need} GPUs")
        free[rack] -= 1
        taken[rack] += 1
    return [(r, t) for r, t in enumerate(taken) if t > 0]


def place_locality(
    free: List[int], need: int, slack_order: Sequence[int]
) -> List[Tuple[int, int]]:
    """Slack-aware: the nearest rack that fits whole, else fill racks
    in ascending-slack order (``slack_order``)."""
    for rack in slack_order:
        if free[rack] >= need:
            free[rack] -= need
            return [(rack, need)]
    placements: List[Tuple[int, int]] = []
    remaining = need
    for rack in slack_order:
        if remaining == 0:
            break
        take = min(free[rack], remaining)
        if take > 0:
            free[rack] -= take
            placements.append((rack, take))
            remaining -= take
    if remaining > 0:
        raise ValueError(f"pool cannot place {need} GPUs")
    return placements


PLACEMENT_POLICIES = {
    "pack": place_pack,
    "spread": place_spread,
    "locality": place_locality,
}
