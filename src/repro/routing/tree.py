"""Shortest-path-tree routing, exactly as described in the paper.

Section III-C: "Dijkstra's algorithm extracts a minimum spanning tree (MST)
which provides the shortest path between any pair of nodes in a graph. ...
the MST is chosen randomly. ... deadlock is avoided by transferring flits
along the shortest path routing tree extracted by Dijkstra's algorithm, as it
is inherently free of cyclic dependencies."

What Dijkstra actually extracts is a shortest-path tree (SPT) rooted at the
start node; routing every packet along tree edges is trivially deadlock-free
because a tree has no cycles, at the cost of concentrating traffic on the
tree links.  This router implements that literal scheme so the paper's
description can be evaluated and compared against the default
:class:`~repro.routing.router.ShortestPathRouter` (see the ablation
benchmarks).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..topology.graph import TopologyGraph
from .base import BaseRouter, RoutingError
from .dijkstra import ShortestPathForest


class SpanningTreeRouter(BaseRouter):
    """Routes every packet along a single shortest-path tree.

    Parameters
    ----------
    graph:
        Topology to route on.
    root:
        Switch the tree is rooted at.  The paper picks the start node
        "randomly"; the default picks the switch with the smallest id for
        reproducibility, and experiments can supply any other root.
    """

    def __init__(
        self,
        graph: TopologyGraph,
        link_weights=None,
        root: Optional[int] = None,
    ) -> None:
        super().__init__(graph, link_weights)
        switches = graph.switches
        if not switches:
            raise RoutingError("cannot build a tree router on an empty topology")
        self._root = root if root is not None else switches[0].switch_id
        forest = ShortestPathForest(self.weighted_adjacency(), self._root)
        self._parent: Dict[int, Optional[int]] = {self._root: None}
        self._depth: Dict[int, int] = {self._root: 0}
        for switch in switches:
            sid = switch.switch_id
            if sid == self._root:
                continue
            path = forest.path_to(sid, selector=0)
            self._parent[sid] = path[-2]
            self._depth[sid] = len(path) - 1

    @property
    def root(self) -> int:
        """Root switch of the routing tree."""
        return self._root

    def parent(self, switch_id: int) -> Optional[int]:
        """Parent of a switch in the routing tree (``None`` for the root)."""
        try:
            return self._parent[switch_id]
        except KeyError:
            raise RoutingError(f"switch {switch_id} is not part of the tree") from None

    def tree_edges(self) -> List[tuple]:
        """(child, parent) pairs of the routing tree."""
        return [(c, p) for c, p in self._parent.items() if p is not None]

    def _ancestors(self, switch_id: int) -> List[int]:
        chain = [switch_id]
        node = switch_id
        while self._parent[node] is not None:
            node = self._parent[node]
            chain.append(node)
        return chain

    def _compute_route(self, src_switch: int, dst_switch: int) -> List[int]:
        if src_switch == dst_switch:
            return [src_switch]
        up = self._ancestors(src_switch)
        down = self._ancestors(dst_switch)
        up_set = {node: i for i, node in enumerate(up)}
        # Walk the destination chain until it meets the source chain: that
        # node is the lowest common ancestor.
        meet_index_down = None
        for i, node in enumerate(down):
            if node in up_set:
                meet_index_down = i
                break
        if meet_index_down is None:
            raise RoutingError(
                f"no common ancestor for switches {src_switch} and {dst_switch}"
            )
        lca = down[meet_index_down]
        ascent = up[: up_set[lca] + 1]
        descent = down[:meet_index_down]
        return ascent + list(reversed(descent))
