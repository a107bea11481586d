"""Route validation helpers shared by tests and the simulator."""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..topology.graph import LinkKind, TopologyGraph
from .base import RoutingError


def validate_route(graph: TopologyGraph, route: Sequence[int]) -> None:
    """Check that a switch sequence is a usable route.

    A valid route visits existing switches, uses an existing link for every
    consecutive pair, and never visits the same switch twice (wormhole
    source routing cannot express revisits).

    Raises
    ------
    RoutingError
        If any property is violated.
    """
    if not route:
        raise RoutingError("route is empty")
    seen = set()
    for switch_id in route:
        graph.switch(switch_id)  # raises TopologyError for unknown switches
        if switch_id in seen:
            raise RoutingError(f"route visits switch {switch_id} twice: {list(route)}")
        seen.add(switch_id)
    for a, b in zip(route, route[1:]):
        if graph.find_link(a, b) is None:
            raise RoutingError(f"route uses missing link ({a}, {b})")


def wireless_hop_count(graph: TopologyGraph, route: Sequence[int]) -> int:
    """Number of wireless hops on a route."""
    count = 0
    for a, b in zip(route, route[1:]):
        link = graph.find_link(a, b)
        if link is not None and link.kind == LinkKind.WIRELESS:
            count += 1
    return count


def link_kinds_on_route(graph: TopologyGraph, route: Sequence[int]) -> List[LinkKind]:
    """Ordered list of link kinds traversed by a route."""
    kinds = []
    for a, b in zip(route, route[1:]):
        link = graph.find_link(a, b)
        if link is None:
            raise RoutingError(f"route uses missing link ({a}, {b})")
        kinds.append(link.kind)
    return kinds


#: A directed channel: the (src switch, dst switch) direction of one link.
Channel = Tuple[int, int]


class ChannelDependencyGraph:
    """The channel dependency graph of a growing route set, tested online.

    Wormhole routing deadlocks exactly when the *channel dependency graph* —
    one node per directed link, one edge per consecutive hop pair some route
    uses — contains a cycle (Dally & Seitz).  Routes are added one at a time
    and :meth:`add_route` returns the first cycle the new route closes, so a
    caller learns the verdict at the exact route that decides it.

    The graph keeps a topological order of its channels up to date as
    dependencies arrive (Pearce & Kelly, ACM JEA 2006).  A dependency that
    agrees with the order is added in O(1); one that disagrees searches only
    the channels ordered between its two ends, and either finds the cycle or
    reorders just those.  A new channel that only leaves is placed first and
    one that is only entered is placed last, so a route's fresh channels
    never disagree with the order.  Once a cycle is returned the order no
    longer exists: add no further routes.
    """

    def __init__(self) -> None:
        self._triples: Set[Tuple[int, int, int]] = set()
        self._order: Dict[Channel, int] = {}
        self._successors: Dict[Channel, List[Channel]] = defaultdict(list)
        self._predecessors: Dict[Channel, List[Channel]] = defaultdict(list)
        self._first = 0  # position of the channel ordered first
        self._last = -1  # position of the channel ordered last

    def add_route(self, route: Sequence[int]) -> Optional[List[Channel]]:
        """Add one route's dependencies; the first cycle they close, or ``None``.

        The cycle is the offending channel sequence, closed (first == last).
        """
        # A dependency (a, b) -> (b, c) is one switch triple a, b, c of a
        # route; route sets share most of their triples.
        triples = self._triples
        for triple in zip(route, route[1:], route[2:]):
            if triple in triples:
                continue
            triples.add(triple)
            a, b, c = triple
            cycle = self._add_dependency((a, b), (b, c))
            if cycle is not None:
                return cycle
        return None

    def _add_dependency(self, tail: Channel, head: Channel) -> Optional[List[Channel]]:
        order = self._order
        tail_at = order.get(tail)
        if tail_at is None:
            self._first -= 1
            tail_at = order[tail] = self._first
        head_at = order.get(head)
        if head_at is None:
            self._last += 1
            head_at = order[head] = self._last
        if head_at <= tail_at:
            cycle = self._reorder(tail, head, head_at, tail_at)
            if cycle is not None:
                return cycle
        self._successors[tail].append(head)
        self._predecessors[head].append(tail)
        return None

    def _reorder(
        self, tail: Channel, head: Channel, lower: int, upper: int
    ) -> Optional[List[Channel]]:
        """Make room for ``tail -> head`` where ``head`` is ordered before ``tail``.

        Returns the cycle when ``head`` already reaches ``tail``; otherwise
        moves the channels ``tail`` is reached from ahead of those ``head``
        reaches, within the positions they held.
        """
        order = self._order
        if head == tail:
            return [tail, tail]
        # Forward from head over the channels ordered no later than tail.
        parent: Dict[Channel, Optional[Channel]] = {head: None}
        stack = [head]
        while stack:
            node = stack.pop()
            for child in self._successors[node]:
                if child == tail:
                    path = [tail]
                    while node is not None:
                        path.append(node)
                        node = parent[node]
                    return [tail] + path[:0:-1] + [tail]
                if child not in parent and order[child] < upper:
                    parent[child] = node
                    stack.append(child)
        # Backward from tail over the channels ordered after head.
        reached = {tail}
        stack = [tail]
        while stack:
            node = stack.pop()
            for source in self._predecessors[node]:
                if source not in reached and order[source] > lower:
                    reached.add(source)
                    stack.append(source)
        channels = sorted(reached, key=order.__getitem__) + sorted(parent, key=order.__getitem__)
        for channel, position in zip(channels, sorted(order[c] for c in channels)):
            order[channel] = position
        return None


def find_channel_dependency_cycle(
    routes: Iterable[Sequence[int]],
) -> Optional[List[Channel]]:
    """A cyclic channel dependency among the given routes, or ``None``.

    Feeds the routes, in order, to a :class:`ChannelDependencyGraph` and
    stops at the first one that closes a cycle: ``routes`` may be a lazy
    iterable, and no route after that one is drawn from it.  The returned
    value is the offending channel sequence (closed: first == last), so
    recovery code and tests can report precisely which dependency loop would
    deadlock.
    """
    graph = ChannelDependencyGraph()
    for route in routes:
        cycle = graph.add_route(route)
        if cycle is not None:
            return cycle
    return None
