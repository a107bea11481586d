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
        parents = ShortestPathForest(self.weighted_adjacency(), self._root).parents(0)
        self._parent: Dict[int, Optional[int]] = {self._root: None}
        for switch in switches:
            sid = switch.switch_id
            if sid == self._root:
                continue
            if sid not in parents:
                raise RoutingError(f"switch {sid} unreachable from {self._root}")
            self._parent[sid] = parents[sid]
        # path_to(sid, selector=0) is sid's chain of parents, so a switch
        # sits one hop below its parent.
        self._depth: Dict[int, int] = {self._root: 0}
        limit = len(self._parent)
        for sid in self._parent:
            chain = []
            while sid not in self._depth:
                chain.append(sid)
                sid = self._parent[sid]
                if len(chain) > limit:
                    raise RoutingError("predecessor chain contains a cycle")
            depth = self._depth[sid]
            for node in reversed(chain):
                depth += 1
                self._depth[node] = depth

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

    def _compute_route(self, src_switch: int, dst_switch: int) -> List[int]:
        # Climb from the deeper end, then from both, until they meet at the
        # lowest common ancestor.
        parent, depth = self._parent, self._depth
        for sid in (src_switch, dst_switch):
            if sid not in depth:
                raise RoutingError(f"switch {sid} is not part of the tree")
        up, down = [src_switch], [dst_switch]
        a, b = src_switch, dst_switch
        while depth[a] > depth[b]:
            a = parent[a]
            up.append(a)
        while depth[b] > depth[a]:
            b = parent[b]
            down.append(b)
        while a != b:
            a, b = parent[a], parent[b]
            up.append(a)
            down.append(b)
        return up + down[-2::-1]
