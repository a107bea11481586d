"""Router interface and link cost model.

Routing in the paper is "a forwarding-table based routing algorithm over
pre-computed shortest paths determined by Dijkstra's algorithm for both
inter-chip and intra-chip data" (Section III-C).  All routers in this
subpackage pre-compute switch-level routes on the topology graph; the
simulator then source-routes each packet along the returned switch sequence.

The cost of a hop depends on the physical link implementing it, so paths
naturally avoid slow serial I/O when a faster alternative exists and only
take the wireless shortcut when it actually reduces the end-to-end latency —
"even intra-chip traffic uses the wireless links if it reduces the path
length according to the shortest path routing" (Section IV-C).
"""

from __future__ import annotations

import abc
import math
from typing import Dict, List, Optional, Tuple

from ..topology.graph import LinkKind, LinkSpec, TopologyGraph


#: Per-hop cost (roughly: cycles a head flit needs to cross the link plus the
#: downstream switch) used as Dijkstra edge weights.
DEFAULT_LINK_WEIGHTS: Dict[LinkKind, float] = {
    LinkKind.MESH: 1.0,
    LinkKind.INTERPOSER: 2.0,
    LinkKind.WIDE_IO: 2.0,
    LinkKind.SERIAL_IO: 6.0,
    # A wireless hop is cheap in latency but occupies the shared channel, so
    # its routing cost is set above the raw hop latency: intra-chip traffic
    # only takes the wireless shortcut when it saves several mesh hops.
    LinkKind.WIRELESS: 4.0,
    LinkKind.TSV: 1.0,
}


class RoutingError(ValueError):
    """Raised when a route cannot be computed or is invalid."""


#: Switch -> its in-service (neighbor, hop cost) pairs.
WeightedAdjacency = Dict[int, List[Tuple[int, float]]]


class BaseRouter(abc.ABC):
    """Common behaviour of all routers: caching and route metrics.

    Everything a router memoises (routes, and in subclasses forests and
    lookups) describes one *cache generation*: the topology's in-service
    links and the link costs as they stood when it was built.  Whoever
    takes a link out of or back into service calls :meth:`clear_cache`
    before routing again; penalty changes clear it by themselves.
    """

    def __init__(
        self,
        graph: TopologyGraph,
        link_weights: Dict[LinkKind, float] = None,
    ) -> None:
        self._graph = graph
        self._link_weights = dict(DEFAULT_LINK_WEIGHTS)
        if link_weights:
            self._link_weights.update(link_weights)
        self._link_penalties: Dict[int, float] = {}
        self._cache: Dict[Tuple[int, int], List[int]] = {}
        self._adjacency: Optional[WeightedAdjacency] = None
        #: The smallest hop cost in ``_adjacency`` (infinite with no hop).
        self._cheapest_hop = math.inf

    @property
    def graph(self) -> TopologyGraph:
        """Topology this router routes on."""
        return self._graph

    @property
    def link_weights(self) -> Dict[LinkKind, float]:
        """Per-link-kind hop costs used by this router."""
        return dict(self._link_weights)

    def link_weight(self, link: LinkSpec) -> float:
        """Cost of one hop over ``link`` (kind cost times any fault penalty)."""
        weight = self._link_weights[link.kind]
        penalty = self._link_penalties.get(link.link_id)
        if penalty is not None:
            weight *= penalty
        return weight

    def weighted_adjacency(self) -> WeightedAdjacency:
        """Every switch's in-service neighbours with their hop costs, in
        :meth:`TopologyGraph.neighbors` order; built once per cache
        generation."""
        adjacency = self._adjacency
        if adjacency is None:
            graph = self._graph
            adjacency = {}
            cheapest = math.inf
            for switch in graph.switches:
                hops = []
                for neighbor, link in graph.neighbors(switch.switch_id):
                    cost = self.link_weight(link)
                    if cost < 0:
                        raise RoutingError(f"negative link weight on link {link.link_id}")
                    if cost < cheapest:
                        cheapest = cost
                    hops.append((neighbor, cost))
                adjacency[switch.switch_id] = hops
            self._adjacency = adjacency
            self._cheapest_hop = cheapest
        return adjacency

    def set_link_penalty(self, link_id: int, factor: float) -> None:
        """Multiply one link's routing cost (adaptive rerouting around
        degraded links).  Dropping to ``1.0`` removes the penalty.  Cached
        routes are invalidated so subsequent routes see the new costs.
        """
        if factor <= 0:
            raise RoutingError(f"link penalty must be positive, got {factor}")
        if factor == 1.0:
            self._link_penalties.pop(link_id, None)
        else:
            self._link_penalties[link_id] = factor
        self.clear_cache()

    def clear_link_penalties(self) -> None:
        """Remove every per-link penalty (end-of-run restore)."""
        if self._link_penalties:
            self._link_penalties.clear()
            self.clear_cache()

    def route(self, src_switch: int, dst_switch: int) -> List[int]:
        """Switch sequence from ``src_switch`` to ``dst_switch`` inclusive."""
        key = (src_switch, dst_switch)
        cached = self._cache.get(key)
        if cached is None:
            cached = self._compute_route(src_switch, dst_switch)
            self._cache[key] = cached
        return list(cached)

    def route_weight(self, src_switch: int, dst_switch: int) -> float:
        """Total weighted cost of the route between two switches."""
        path = self.route(src_switch, dst_switch)
        total = 0.0
        for a, b in zip(path, path[1:]):
            link = self._graph.find_link(a, b)
            if link is None:
                raise RoutingError(f"route uses missing link ({a}, {b})")
            total += self.link_weight(link)
        return total

    def clear_cache(self) -> None:
        """Drop all cached routes and lookups (used after topology mutation)."""
        self._cache.clear()
        self._adjacency = None

    @abc.abstractmethod
    def _compute_route(self, src_switch: int, dst_switch: int) -> List[int]:
        """Compute the switch sequence for one source/destination pair."""
