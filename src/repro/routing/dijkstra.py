"""Dijkstra shortest paths with deterministic, diverse tie-breaking.

The paper pre-computes shortest paths with Dijkstra's algorithm and notes
that when several equal-length trees exist one is "chosen randomly".  To keep
simulations reproducible while still spreading traffic over equal-cost
alternatives (important when several parallel interposer links cross the same
chip boundary), path reconstruction breaks ties with a deterministic hash of
(source, destination, switch) rather than a random draw.

A forest settles switches lazily: :meth:`ShortestPathForest.path_to` resumes
the search only until its destination is popped off the heap, so a caller
that asks for the switches near the source never pays for the far ones.  The
pops are those of a full run, in the same order.  A switch's equal-cost
predecessors are frozen when it is popped, which is exact when every hop
costs more than the tie tolerance: a switch popped later is at least as far
from the source, so its hops can no longer tie.  An adjacency with a hop of
at most :data:`TIE_FREE_COST` is searched in full up front instead, and its
predecessors are frozen only at the end.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Optional, Tuple

from .base import RoutingError, WeightedAdjacency

#: Two distances within this of each other are equal-cost.
TIE_TOLERANCE = 1e-12
#: A forest freezes a switch's predecessors as it pops it only when every hop
#: costs more than this, with margin over :data:`TIE_TOLERANCE`; otherwise it
#: searches in full up front.
TIE_FREE_COST = 1e-9


def _mix(state: int, value: int) -> int:
    """One FNV-style step of :func:`_stable_hash`."""
    return ((state ^ ((value + 0x9E3779B9) & 0xFFFFFFFF)) * 16777619) & 0xFFFFFFFF


def _stable_hash(*values: int) -> int:
    """Deterministic small hash of a tuple of ints (independent of PYTHONHASHSEED)."""
    result = 2166136261
    for value in values:
        result = _mix(result, value)
    return result


class ShortestPathForest:
    """Single-source shortest paths with *all* equal-cost predecessors kept.

    ``adjacency`` is a router's :meth:`~repro.routing.base.BaseRouter.weighted_adjacency`.
    It must not change while the forest still has switches to settle.
    ``cheapest_hop`` is its smallest hop cost, when the caller already
    knows it; otherwise the forest scans the adjacency for it.
    """

    def __init__(
        self,
        adjacency: WeightedAdjacency,
        source: int,
        cheapest_hop: Optional[float] = None,
    ) -> None:
        if source not in adjacency:
            raise RoutingError(f"switch {source} is not in the topology")
        self._num_switches = len(adjacency)
        self._source = source
        #: Settled switch -> its equal-cost predecessors, sorted.
        self._predecessors: Dict[int, Tuple[int, ...]] = {}
        # The search state, dropped once every reachable switch is settled.
        self._adjacency: Optional[WeightedAdjacency] = adjacency
        self._heap: Optional[List[Tuple[float, int]]] = [(0.0, source)]
        #: Unsettled switch (every reached switch, when eager) -> its distance so far
        #: and its equal-cost predecessors so far.
        self._distance: Optional[Dict[int, float]] = {source: 0.0}
        self._pending: Optional[Dict[int, List[int]]] = {source: []}
        if cheapest_hop is None:
            costs = (cost for hops in adjacency.values() for _, cost in hops)
            cheapest_hop = min(costs, default=math.inf)
        self._eager = cheapest_hop <= TIE_FREE_COST
        if self._eager:
            self._search(None)

    @property
    def source(self) -> int:
        """Source switch the forest is rooted at."""
        return self._source

    def _search(self, destination: Optional[int]) -> None:
        """Pop switches until ``destination`` is settled, or every reachable
        switch when it is ``None`` or unreachable."""
        heap = self._heap
        if heap is None:
            return
        adjacency = self._adjacency
        distance = self._distance
        pending = self._pending
        settled = self._predecessors
        lazy = not self._eager
        while heap:
            dist, node = heapq.heappop(heap)
            if node in settled:
                continue
            if lazy:
                settled[node] = tuple(sorted(pending.pop(node)))
                del distance[node]
            else:
                settled[node] = ()  # a placeholder that keeps the pop order
            for neighbor, cost in adjacency[node]:
                candidate = dist + cost
                best = distance.get(neighbor)
                if best is None and neighbor in settled:
                    continue  # settled lazily: no later hop can tie it
                if best is None or candidate < best - TIE_TOLERANCE:
                    distance[neighbor] = candidate
                    pending[neighbor] = [node]
                    heapq.heappush(heap, (candidate, neighbor))
                elif abs(candidate - best) <= TIE_TOLERANCE and node not in pending[neighbor]:
                    pending[neighbor].append(node)
            if node == destination:
                return
        if not lazy:
            settled.update((node, tuple(sorted(nodes))) for node, nodes in pending.items())
        self._adjacency = self._heap = self._distance = self._pending = None

    def _predecessors_of(self, destination: int) -> Tuple[int, ...]:
        """``destination``'s equal-cost predecessors, settling it first."""
        options = self._predecessors.get(destination)
        if options is None:
            self._search(destination)
            options = self._predecessors.get(destination)
            if options is None:
                raise RoutingError(f"switch {destination} unreachable from {self._source}")
        return options

    def path_to(self, destination: int, selector: Optional[int] = None) -> List[int]:
        """A shortest path from the source to ``destination``.

        ``selector`` seeds the tie-break among equal-cost predecessors so
        different (source, destination) pairs spread over different
        equal-cost alternatives while remaining deterministic.
        """
        options = self._predecessors_of(destination)
        source = self._source
        prefix = _stable_hash(source, selector if selector is not None else destination)
        options_of = self._predecessors
        limit = self._num_switches + 1
        path = [destination]
        node = destination
        while node != source:
            if not options:
                raise RoutingError(
                    f"broken predecessor chain at switch {node} from {source}"
                )
            if len(options) == 1:
                choice = options[0]  # the tie-break hash could pick nothing else
            else:
                choice = options[_mix(prefix, node) % len(options)]
            path.append(choice)
            node = choice
            if len(path) > limit:
                raise RoutingError("predecessor chain contains a cycle")
            options = options_of[node]
        path.reverse()
        return path

    def parents(self, selector: int) -> Dict[int, int]:
        """Every reachable switch but the source -> the predecessor that
        :meth:`path_to` picks for it under ``selector``, in settle order.

        The pick at a switch depends only on the source, the selector and
        the switch, so ``path_to(d, selector)`` is ``d``'s chain of parents.
        """
        self._search(None)
        prefix = _stable_hash(self._source, selector)
        return {
            node: options[0] if len(options) == 1 else options[_mix(prefix, node) % len(options)]
            for node, options in self._predecessors.items()
            if options
        }
