"""Routing algorithms for the multichip interconnection framework.

Provides the default Dijkstra shortest-path router with XY-canonicalised
intra-chip segments, the literal shortest-path-tree router described in the
paper, and route validation (including the channel-dependency deadlock
test).
"""

from .base import DEFAULT_LINK_WEIGHTS, BaseRouter, RoutingError
from .dijkstra import ShortestPathForest
from .router import ShortestPathRouter
from .tree import SpanningTreeRouter
from .validation import (
    find_channel_dependency_cycle,
    link_kinds_on_route,
    validate_route,
    wireless_hop_count,
)
from .xy import RegionGridIndex, is_xy_ordered, manhattan_distance, xy_path

__all__ = [
    "DEFAULT_LINK_WEIGHTS",
    "BaseRouter",
    "RegionGridIndex",
    "RoutingError",
    "ShortestPathForest",
    "ShortestPathRouter",
    "SpanningTreeRouter",
    "find_channel_dependency_cycle",
    "is_xy_ordered",
    "link_kinds_on_route",
    "manhattan_distance",
    "validate_route",
    "wireless_hop_count",
    "xy_path",
]
