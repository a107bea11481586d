"""Routing recovery after fabric faults.

When links die the pre-computed shortest-path routes must be rebuilt around
them.  This module owns the *analysis* half of that job: connectivity
(partition detection via BFS over the in-service links), route rebuilding
(dropping every cached route so Dijkstra recomputes on the degraded graph),
and — on request — a deadlock-freedom audit of the recovered route set
using the channel-dependency-graph test from
:mod:`repro.routing.validation`.  The audit enumerates the routes
source-major and tests the routes collected so far at checkpoints that
double in size (64, 128, 256, ...), stopping at the first dependency
cycle: a cycle among some of the routes is a cycle of the whole set, so
the verdict is the one the full set would give.  Only a cycle-free set
is enumerated in full.

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
from typing import Dict, List, Optional, Tuple

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
    #: enumeration, stopped at the first dependency cycle).
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
    the in-service topology, and runs the channel-dependency-graph
    acyclicity test on the routes so far at doubling checkpoints, stopping
    at the first cycle; a cycle-free set is enumerated and tested in full.
    The returned report always states one of the three outcomes:
    connected and verified deadlock-free, connected with a reported
    dependency cycle, or partitioned (with the component list).
    """
    return _rebuild(topology, router, connected_components(topology), verify_deadlock_freedom)


def _rebuild(
    topology: TopologyGraph,
    router: BaseRouter,
    components: List[List[int]],
    verify_deadlock_freedom: bool,
) -> RecoveryReport:
    """:func:`rebuild_routes` given the in-service ``components``."""
    router.clear_cache()
    report = RecoveryReport(components=components)
    if not verify_deadlock_freedom:
        return report
    report.verified = True
    routes = []
    checkpoint = 64  # routes at the first cycle test; doubles after each
    for component in report.components:
        for src in component:
            for dst in component:
                if src == dst:
                    continue
                try:
                    route = router.route(src, dst)
                    validate_route(topology, route)
                except RoutingError:
                    report.invalid_routes.append((src, dst))
                    continue
                routes.append(route)
                if len(routes) == checkpoint:
                    # A cycle among some routes is a cycle of the whole set.
                    report.dependency_cycle = find_channel_dependency_cycle(routes)
                    if report.dependency_cycle is not None:
                        report.deadlock_free = False
                        return report
                    checkpoint *= 2
    report.dependency_cycle = find_channel_dependency_cycle(routes)
    report.deadlock_free = (
        report.dependency_cycle is None and not report.invalid_routes
    )
    return report


def recover_routing(
    topology: TopologyGraph,
    router: BaseRouter,
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
    """
    components = connected_components(topology)
    report = _rebuild(topology, router, components, verify_deadlock_freedom=len(components) == 1)
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
    if tree_report.deadlock_free is None:
        # Above the audit limit the tree is trusted by construction.
        tree_report.deadlock_free = True
    return tree, tree_report
