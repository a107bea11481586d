"""Tests of the routing algorithms and route validation."""

import pytest

from repro.core.architectures import build_system
from repro.core.config import Architecture
from repro.routing import (
    RoutingError,
    ShortestPathRouter,
    SpanningTreeRouter,
    is_xy_ordered,
    link_kinds_on_route,
    manhattan_distance,
    validate_route,
    wireless_hop_count,
)
from repro.topology import LinkKind, build_multichip_base, apply_wireless_overlay
from repro.topology.wireless_overlay import WirelessOverlayConfig

from repro.testing import small_system_config


def _wireless_topology():
    system = build_multichip_base(2, 4, 2, vaults_per_stack=2)
    apply_wireless_overlay(system, WirelessOverlayConfig(cores_per_wi=4))
    return system.graph


def _mesh_topology():
    system = build_multichip_base(1, 16, 0)
    return system.graph


class TestShortestPathRouter:
    def test_routes_are_valid_everywhere(self):
        graph = _wireless_topology()
        router = ShortestPathRouter(graph)
        switches = [s.switch_id for s in graph.switches]
        for src in switches[:6]:
            for dst in switches:
                route = router.route(src, dst)
                validate_route(graph, route)
                assert route[0] == src and route[-1] == dst

    def test_intra_chip_routes_are_xy_and_minimal(self):
        graph = _mesh_topology()
        router = ShortestPathRouter(graph)
        switches = [s.switch_id for s in graph.switches]
        for src in switches[:4]:
            for dst in switches:
                route = router.route(src, dst)
                assert len(route) - 1 == manhattan_distance(graph, src, dst)
                assert is_xy_ordered(graph, route)

    def test_inter_chip_routes_use_wireless(self):
        graph = _wireless_topology()
        router = ShortestPathRouter(graph)
        core_a = graph.cores[0]
        core_b = graph.cores[-1]
        route = router.route(
            graph.endpoint(core_a.endpoint_id).switch_id,
            graph.endpoint(core_b.endpoint_id).switch_id,
        )
        assert wireless_hop_count(graph, route) == 1

    def test_route_is_cached_and_stable(self):
        graph = _wireless_topology()
        router = ShortestPathRouter(graph)
        a = router.route(0, 5)
        b = router.route(0, 5)
        assert a == b

    def test_route_weight_and_hops(self):
        graph = _mesh_topology()
        router = ShortestPathRouter(graph)
        assert router.route_weight(0, 1) == pytest.approx(1.0)


class TestSpanningTreeRouter:
    def test_tree_routes_valid_and_loop_free(self):
        graph = _wireless_topology()
        router = SpanningTreeRouter(graph)
        switches = [s.switch_id for s in graph.switches]
        for src in switches[:5]:
            for dst in switches:
                route = router.route(src, dst)
                validate_route(graph, route)

    def test_tree_edges_form_a_tree(self):
        graph = _mesh_topology()
        router = SpanningTreeRouter(graph)
        edges = router.tree_edges()
        assert len(edges) == graph.num_switches - 1

    def test_tree_routes_never_shorter_than_shortest_path(self):
        graph = _wireless_topology()
        tree = SpanningTreeRouter(graph)
        shortest = ShortestPathRouter(graph)
        for src in (0, 3):
            for dst in (5, 9):
                assert tree.route_weight(src, dst) >= shortest.route_weight(src, dst) - 1e-9

    def test_parent_of_unknown_switch(self):
        graph = _mesh_topology()
        router = SpanningTreeRouter(graph)
        with pytest.raises(RoutingError):
            router.parent(9999)


class TestRouteValidation:
    def test_empty_route_rejected(self):
        graph = _mesh_topology()
        with pytest.raises(RoutingError):
            validate_route(graph, [])

    def test_route_with_missing_link_rejected(self):
        graph = _mesh_topology()
        with pytest.raises(RoutingError):
            validate_route(graph, [0, 5])

    def test_route_with_revisit_rejected(self):
        graph = _mesh_topology()
        with pytest.raises(RoutingError):
            validate_route(graph, [0, 1, 0])

    def test_link_kinds_on_route(self):
        graph = _wireless_topology()
        router = ShortestPathRouter(graph)
        wis = [s.switch_id for s in graph.wireless_switches]
        route = router.route(wis[0], wis[-1])
        kinds = link_kinds_on_route(graph, route)
        assert LinkKind.WIRELESS in kinds


class TestArchitectureRouting:
    @pytest.mark.parametrize(
        "architecture",
        [Architecture.SUBSTRATE, Architecture.INTERPOSER, Architecture.WIRELESS],
    )
    def test_all_endpoint_pairs_routable(self, architecture):
        system = build_system(small_system_config(architecture))
        graph = system.topology
        router = system.router
        endpoints = graph.endpoints
        for src in endpoints[:4]:
            for dst in endpoints:
                if src.switch_id == dst.switch_id:
                    continue
                route = router.route(src.switch_id, dst.switch_id)
                validate_route(graph, route)

    def test_wireless_architecture_has_no_wired_offchip_links(self):
        system = build_system(small_system_config(Architecture.WIRELESS))
        offchip_kinds = {link.kind for link in system.topology.inter_region_links()}
        assert offchip_kinds == {LinkKind.WIRELESS}
