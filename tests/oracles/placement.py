"""Rack placement over a plain list of free counts: the oracles of the
:class:`~repro.cdi.placement.RackPool` policies.

Each function takes ``free`` (GPUs free per rack, mutated in place),
the GPUs a grant needs and the racks in ascending-slack order, and
returns the ``[(rack, count), ...]`` it took, scanning the racks the
plain way. :mod:`repro.cdi.placement` implements the same policies over
a pool that also keeps its racks sorted by free count.
"""

from typing import List, Sequence, Tuple


def _span(free: List[int], need: int, racks) -> List[Tuple[int, int]]:
    placements: List[Tuple[int, int]] = []
    remaining = need
    for rack in racks:
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


def place_pack(
    free: List[int], need: int, slack_order: Sequence[int]
) -> List[Tuple[int, int]]:
    """The tightest single rack that fits (lowest index on ties), else
    the fullest racks first."""
    best = -1
    best_free = float("inf")
    for rack, avail in enumerate(free):
        if need <= avail < best_free:
            best, best_free = rack, avail
    if best >= 0:
        free[best] -= need
        return [(best, need)]
    return _span(
        free, need, sorted(range(len(free)), key=lambda r: (-free[r], r))
    )


def place_spread(
    free: List[int], need: int, slack_order: Sequence[int]
) -> List[Tuple[int, int]]:
    """GPUs one at a time to the emptiest rack (lowest index on ties)."""
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
    """The nearest rack that fits whole, else racks in slack order."""
    for rack in slack_order:
        if free[rack] >= need:
            free[rack] -= need
            return [(rack, need)]
    return _span(free, need, slack_order)


PLACEMENT_POLICIES = {
    "pack": place_pack,
    "spread": place_spread,
    "locality": place_locality,
}
