"""Dijkstra shortest paths with deterministic, diverse tie-breaking.

The paper pre-computes shortest paths with Dijkstra's algorithm and notes
that when several equal-length trees exist one is "chosen randomly".  To keep
simulations reproducible while still spreading traffic over equal-cost
alternatives (important when several parallel interposer links cross the same
chip boundary), path reconstruction breaks ties with a deterministic hash of
(source, destination, switch) rather than a random draw.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from .base import RoutingError, WeightedAdjacency


def _stable_hash(*values: int) -> int:
    """Deterministic small hash of a tuple of ints (independent of PYTHONHASHSEED)."""
    result = 2166136261
    for value in values:
        result ^= (value + 0x9E3779B9) & 0xFFFFFFFF
        result = (result * 16777619) & 0xFFFFFFFF
    return result


class ShortestPathForest:
    """Single-source shortest paths with *all* equal-cost predecessors kept.

    ``adjacency`` is a router's :meth:`~repro.routing.base.BaseRouter.weighted_adjacency`.
    """

    def __init__(self, adjacency: WeightedAdjacency, source: int) -> None:
        self._num_switches = len(adjacency)
        self._source = source
        self._distance: Dict[int, float] = {source: 0.0}
        # Sorted once here rather than on every :meth:`path_to` hop.
        self._predecessors: Dict[int, Tuple[int, ...]] = {
            node: tuple(sorted(nodes)) for node, nodes in self._run(adjacency).items()
        }

    @property
    def source(self) -> int:
        """Source switch the forest is rooted at."""
        return self._source

    def _run(self, adjacency: WeightedAdjacency) -> Dict[int, List[int]]:
        """Fill the distances; return every node's equal-cost predecessors."""
        distance = self._distance
        predecessors: Dict[int, List[int]] = {self._source: []}
        visited = set()
        heap: List[Tuple[float, int]] = [(0.0, self._source)]
        while heap:
            dist, node = heapq.heappop(heap)
            if node in visited:
                continue
            visited.add(node)
            for neighbor, cost in adjacency[node]:
                candidate = dist + cost
                best = distance.get(neighbor)
                if best is None or candidate < best - 1e-12:
                    distance[neighbor] = candidate
                    predecessors[neighbor] = [node]
                    heapq.heappush(heap, (candidate, neighbor))
                elif abs(candidate - best) <= 1e-12 and node not in predecessors[neighbor]:
                    predecessors[neighbor].append(node)
        return predecessors

    def path_to(self, destination: int, selector: Optional[int] = None) -> List[int]:
        """A shortest path from the source to ``destination``.

        ``selector`` seeds the tie-break among equal-cost predecessors so
        different (source, destination) pairs spread over different
        equal-cost alternatives while remaining deterministic.
        """
        if destination not in self._distance:
            raise RoutingError(
                f"switch {destination} unreachable from {self._source}"
            )
        seed = selector if selector is not None else destination
        source = self._source
        options_of = self._predecessors
        limit = self._num_switches + 1
        path = [destination]
        node = destination
        while node != source:
            options = options_of[node]
            if not options:
                raise RoutingError(
                    f"broken predecessor chain at switch {node} from {source}"
                )
            if len(options) == 1:
                choice = options[0]  # the tie-break hash could pick nothing else
            else:
                choice = options[_stable_hash(source, seed, node) % len(options)]
            path.append(choice)
            node = choice
            if len(path) > limit:
                raise RoutingError("predecessor chain contains a cycle")
        path.reverse()
        return path
