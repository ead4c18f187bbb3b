"""CDI fabric topologies: rack-, row- and cluster-scale.

Builds the tree of hosts, fabric switches and GPU chassis (host -> tor
-> row -> core, with each chassis on its rack's tor) as plain adjacency
dicts with physically-motivated cable lengths, and derives the *slack*
a given host-chassis pairing experiences from the path: NIC costs at
both endpoints, per-switch hop latency, and fibre time-of-flight over
the accumulated cable length. This is how experiment configurations
turn "this GPU lives two racks away" into a per-CUDA-call delay.

Because the topology is a tree, every pair of nodes has exactly one
path; a breadth-first search finds it, and a failed component simply
removes every path through it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import AbstractSet, Dict, List, Optional, Sequence, Tuple

from .slack import SlackModel, latency_for_fibre_distance

__all__ = ["Scale", "FabricSpec", "Fabric", "PathInfo"]


class Scale(str, Enum):
    """Deployment scale of a CDI fabric (how far a chassis can serve)."""

    RACK = "rack"
    ROW = "row"
    CLUSTER = "cluster"


@dataclass(frozen=True)
class FabricSpec:
    """Geometry and component costs of a CDI fabric.

    Distances follow typical machine-room dimensions: ~2 m of cable
    within a rack, ~1.5 m between adjacent racks in a row, ~30 m
    between rows.
    """

    scale: Scale = Scale.ROW
    racks_per_row: int = 8
    rows: int = 1
    hosts_per_rack: int = 4
    chassis_racks: Tuple[int, ...] = (0,)
    intra_rack_cable_m: float = 2.0
    inter_rack_cable_m: float = 1.5
    inter_row_cable_m: float = 30.0
    nic_latency_s: float = 0.5e-6
    switch_hop_latency_s: float = 0.3e-6

    def __post_init__(self) -> None:
        if self.racks_per_row <= 0 or self.rows <= 0 or self.hosts_per_rack <= 0:
            raise ValueError("fabric dimensions must be positive")
        for r in self.chassis_racks:
            if not 0 <= r < self.racks_per_row * self.rows:
                raise ValueError(f"chassis rack {r} outside fabric")
        if self.scale is Scale.RACK and len(self.chassis_racks) < 1:
            raise ValueError("rack-scale fabric needs a chassis per served rack")


@dataclass(frozen=True)
class PathInfo:
    """Resolved host-to-chassis path characteristics."""

    host: str
    chassis: str
    switch_hops: int
    cable_m: float
    slack_s: float

    def slack_model(self) -> SlackModel:
        """A deterministic slack model for this path."""
        return SlackModel(self.slack_s)


class Fabric:
    """A populated CDI fabric.

    Node names: ``host:<rack>:<i>``, ``tor:<rack>`` (top-of-rack
    switch), ``row:<row>`` (row/spine switch), ``core`` and
    ``chassis:<rack>``. :attr:`kind` maps each node to ``"host"``,
    ``"switch"`` or ``"chassis"``; :attr:`adj` maps each node to its
    neighbours and the cable length (m) to each. Rack-scale paths go
    host->tor->chassis; row-scale adds the row switch; cluster-scale
    adds the core switch.
    """

    def __init__(self, spec: FabricSpec) -> None:
        self.spec = spec
        self.kind: Dict[str, str] = {}
        self.adj: Dict[str, Dict[str, float]] = {}
        self._build()

    # -- construction ----------------------------------------------------------
    def _add(self, node: str, kind: str) -> None:
        self.kind[node] = kind
        self.adj[node] = {}

    def _link(self, a: str, b: str, cable_m: float) -> None:
        self.adj[a][b] = cable_m
        self.adj[b][a] = cable_m

    def _build(self) -> None:
        s = self.spec
        total_racks = s.racks_per_row * s.rows
        self._add("core", "switch")
        for row in range(s.rows):
            row_sw = f"row:{row}"
            self._add(row_sw, "switch")
            self._link(row_sw, "core", s.inter_row_cable_m)
        for rack in range(total_racks):
            row = rack // s.racks_per_row
            pos_in_row = rack % s.racks_per_row
            tor = f"tor:{rack}"
            self._add(tor, "switch")
            self._link(tor, f"row:{row}", s.inter_rack_cable_m * (pos_in_row + 1))
            for i in range(s.hosts_per_rack):
                host = f"host:{rack}:{i}"
                self._add(host, "host")
                self._link(host, tor, s.intra_rack_cable_m)
        for rack in s.chassis_racks:
            chassis = f"chassis:{rack}"
            self._add(chassis, "chassis")
            self._link(chassis, f"tor:{rack}", s.intra_rack_cable_m)

    def _route(
        self, src: str, dst: str, excluded: AbstractSet[str] = frozenset()
    ) -> Optional[List[str]]:
        """Nodes on the path ``src`` -> ``dst`` avoiding ``excluded``.

        Breadth-first, so the path has the fewest hops; on the tree it
        is the only path. ``None`` when no path avoids ``excluded``.
        """
        parent: Dict[str, Optional[str]] = {src: None}
        queue = deque([src])
        while queue:
            node = queue.popleft()
            if node == dst:
                nodes = []
                while node is not None:
                    nodes.append(node)
                    node = parent[node]
                return nodes[::-1]
            for nb in self.adj[node]:
                if nb not in parent and nb not in excluded:
                    parent[nb] = node
                    queue.append(nb)
        return None

    def _path_info(self, nodes: List[str]) -> PathInfo:
        """Slack of the path ``nodes`` (host first, chassis last).

        Slack = 2 NIC traversals + hops * switch latency + fibre
        time-of-flight over the path's total cable length (one-way),
        matching the paper's Figure 1 decomposition.
        """
        switch_hops = sum(1 for n in nodes[1:-1] if self.kind[n] == "switch")
        cable_m = sum(self.adj[a][b] for a, b in zip(nodes, nodes[1:]))
        slack = (
            2 * self.spec.nic_latency_s
            + switch_hops * self.spec.switch_hop_latency_s
            + latency_for_fibre_distance(cable_m)
        )
        return PathInfo(
            host=nodes[0],
            chassis=nodes[-1],
            switch_hops=switch_hops,
            cable_m=cable_m,
            slack_s=slack,
        )

    # -- queries ---------------------------------------------------------------
    def hosts(self) -> List[str]:
        """All host node names."""
        return sorted(n for n, k in self.kind.items() if k == "host")

    def chassis(self) -> List[str]:
        """All GPU chassis node names."""
        return sorted(n for n, k in self.kind.items() if k == "chassis")

    def path(self, host: str, chassis: str) -> PathInfo:
        """Resolve the host-to-chassis path and its slack."""
        if host not in self.kind:
            raise KeyError(f"unknown host {host!r}")
        if chassis not in self.kind:
            raise KeyError(f"unknown chassis {chassis!r}")
        return self._path_info(self._route(host, chassis))

    def nearest_chassis(self, host: str) -> PathInfo:
        """The minimum-slack chassis reachable from ``host``."""
        paths = [self.path(host, c) for c in self.chassis()]
        if not paths:
            raise ValueError("fabric has no chassis")
        return min(paths, key=lambda p: p.slack_s)

    def worst_case_slack(self) -> float:
        """Maximum slack over every host-chassis pair."""
        return max(
            self.path(h, c).slack_s for h in self.hosts() for c in self.chassis()
        )

    # -- degraded operation ---------------------------------------------------------
    def path_with_failures(
        self, host: str, chassis: str, failed: Sequence[str]
    ) -> Optional[PathInfo]:
        """The path (and slack) when fabric components are down.

        ``failed`` lists switch/chassis node names removed from the
        topology (e.g. ``["row:0"]``). Returns ``None`` if no path
        survives — the composition must be re-placed on another
        chassis. Slack over surviving detours quantifies degraded-mode
        operation, a deployment question the paper's future work
        raises.
        """
        for f in failed:
            if f not in self.kind:
                raise KeyError(f"unknown fabric component {f!r}")
            if f == host or f == chassis:
                return None
        if host not in self.kind or chassis not in self.kind:
            return None
        nodes = self._route(host, chassis, frozenset(failed))
        return None if nodes is None else self._path_info(nodes)

    def survivable(
        self, host: str, failed: Sequence[str]
    ) -> List[PathInfo]:
        """All chassis still reachable from ``host`` under failures."""
        paths = []
        for c in self.chassis():
            p = self.path_with_failures(host, c, failed)
            if p is not None:
                paths.append(p)
        return paths
