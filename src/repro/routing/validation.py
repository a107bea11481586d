"""Route validation helpers shared by tests and the simulator."""

from __future__ import annotations

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


def find_channel_dependency_cycle(
    routes: Iterable[Sequence[int]],
) -> Optional[List[Channel]]:
    """A cyclic channel dependency among the given routes, or ``None``.

    Wormhole routing deadlocks exactly when the *channel dependency graph* —
    one node per directed link, one edge per consecutive hop pair some route
    uses — contains a cycle (Dally & Seitz).  This builds that graph from
    the route set and searches it with an iterative DFS; the returned value
    is the offending channel sequence (closed: first == last), so recovery
    code and tests can report precisely which dependency loop would deadlock.
    """
    # A dependency (a, b) -> (b, c) is one switch triple a, b, c of a route.
    # Route sets share most of their triples, so collect the distinct ones
    # first; a channel no route continues from gets no entry.
    triples: Set[Tuple[int, int, int]] = set()
    for route in routes:
        triples.update(zip(route, route[1:], route[2:]))
    dependencies: Dict[Channel, List[Channel]] = {}
    for a, b, c in triples:
        dependencies.setdefault((a, b), []).append((b, c))
    # Iterative DFS with colouring: 0 unvisited, 1 on stack, 2 done.  A
    # channel without an entry cannot lie on a cycle, so it is never a
    # start; reached as a child, it is finished at once.
    colour: Dict[Channel, int] = {}
    for start in sorted(dependencies):
        if colour.get(start, 0) != 0:
            continue
        stack: List[Tuple[Channel, Iterable[Channel]]] = [
            (start, iter(sorted(dependencies[start])))
        ]
        colour[start] = 1
        path = [start]
        while stack:
            node, children = stack[-1]
            advanced = False
            for child in children:
                state = colour.get(child, 0)
                if state == 1:
                    cycle_start = path.index(child)
                    return path[cycle_start:] + [child]
                if state == 0:
                    colour[child] = 1
                    path.append(child)
                    stack.append((child, iter(sorted(dependencies.get(child, ())))))
                    advanced = True
                    break
            if not advanced:
                colour[node] = 2
                path.pop()
                stack.pop()
    return None
