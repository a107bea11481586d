"""Dimension-ordered (XY) paths inside rectangular mesh regions.

Within a processing chip the topology is a full rectangular mesh, so any
minimal path can be rewritten as the canonical "X first, then Y" path of the
same length.  The simulator's default router uses this canonical form for
every intra-chip segment of a route: dimension-ordered routing inside a mesh
is provably free of cyclic channel dependencies, which (together with the
acyclic chip-level arrangement) keeps the multichip system deadlock-free
while preserving the shortest-path property of the Dijkstra computation.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..topology.graph import TopologyGraph
from .base import RoutingError


class RegionGridIndex:
    """Per-region map from global grid coordinates to switch ids."""

    def __init__(self, graph: TopologyGraph) -> None:
        self._by_region: Dict[int, Dict[Tuple[int, int], int]] = {}
        for switch in graph.switches:
            region = self._by_region.setdefault(switch.region_id, {})
            region[(switch.grid_x, switch.grid_y)] = switch.switch_id
        self._graph = graph

    def switch_at(self, region_id: int, grid: Tuple[int, int]) -> int:
        """Switch id at grid coordinates within a region."""
        try:
            return self._by_region[region_id][grid]
        except KeyError:
            raise RoutingError(
                f"no switch at grid {grid} in region {region_id}"
            ) from None


def xy_path(
    graph: TopologyGraph,
    index: RegionGridIndex,
    src_switch: int,
    dst_switch: int,
) -> List[int]:
    """Canonical X-then-Y path between two switches of the same region.

    Raises
    ------
    RoutingError
        If the switches belong to different regions or an intermediate grid
        position does not exist (non-rectangular region).
    """
    src = graph.switch(src_switch)
    dst = graph.switch(dst_switch)
    if src.region_id != dst.region_id:
        raise RoutingError(
            f"xy_path requires both switches in one region, got regions "
            f"{src.region_id} and {dst.region_id}"
        )
    region_id = src.region_id
    path = [src_switch]
    x, y = src.grid_x, src.grid_y
    step_x = 1 if dst.grid_x > x else -1
    while x != dst.grid_x:
        x += step_x
        path.append(index.switch_at(region_id, (x, y)))
    step_y = 1 if dst.grid_y > y else -1
    while y != dst.grid_y:
        y += step_y
        path.append(index.switch_at(region_id, (x, y)))
    return path


def manhattan_distance(graph: TopologyGraph, a: int, b: int) -> int:
    """Grid Manhattan distance between two switches."""
    sa = graph.switch(a)
    sb = graph.switch(b)
    return abs(sa.grid_x - sb.grid_x) + abs(sa.grid_y - sb.grid_y)


def is_xy_ordered(graph: TopologyGraph, path: List[int]) -> bool:
    """Whether a same-region path moves strictly X first, then Y.

    Exposed for tests and for the route validator.
    """
    turned = False
    for a, b in zip(path, path[1:]):
        sa = graph.switch(a)
        sb = graph.switch(b)
        moved_x = sa.grid_x != sb.grid_x
        moved_y = sa.grid_y != sb.grid_y
        if moved_x and moved_y:
            return False
        if moved_y:
            turned = True
        if moved_x and turned:
            return False
    return True
