"""Tests of the routing algorithms and route validation."""

import random
from dataclasses import replace

import pytest

from repro.core.architectures import build_system
from repro.core.config import Architecture, SystemConfig
from repro.faults import connected_components
from repro.noc.config import NetworkConfig
from repro.routing import (
    RoutingError,
    ShortestPathForest,
    ShortestPathRouter,
    SpanningTreeRouter,
    is_xy_ordered,
    link_kinds_on_route,
    manhattan_distance,
    validate_route,
    wireless_hop_count,
)
from repro.scenario import builtin_scenario, builtin_scenario_names, compile_scenario, system_config
from repro.topology import LinkKind, build_multichip_base, apply_wireless_overlay

from repro.testing import small_system_config


def _wireless_topology():
    system = build_multichip_base(2, 4, 2, vaults_per_stack=2)
    apply_wireless_overlay(system, SystemConfig(cores_per_wi=4))
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

    @pytest.mark.parametrize("router_class", [ShortestPathRouter, SpanningTreeRouter])
    @pytest.mark.parametrize("src, dst", [(0, 999), (999, 0), (999, 999)])
    def test_route_to_or_from_an_unknown_switch(self, router_class, src, dst):
        """A switch outside the topology fails with the typed routing error."""
        router = router_class(build_multichip_base(1, 16, 0).graph)
        with pytest.raises(RoutingError, match="switch 999"):
            router.route(src, dst)


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


def _builtin_systems():
    """Every distinct system the built-in figures build, by (figure, label)."""
    systems = {}
    for name in builtin_scenario_names():
        for task in compile_scenario(builtin_scenario(name, "fast")):
            config = task.effective_config()
            # build_system never reads the network field (see BuildMemo).
            systems.setdefault(replace(config, network=NetworkConfig()), (name, config))
    return {(name, config.name): config for name, config in systems.values()}


BUILTIN_SYSTEMS = _builtin_systems()

#: The resilience figure's systems, read from its built-in scenario document.
FIG7_SYSTEMS = {
    system.label: system_config(system, index)
    for index, system in enumerate(builtin_scenario("fig7").systems)
}


def _eager_forest(adjacency, source):
    """A forest settled in full up front: a free hop on a switch that no
    link reaches makes the search eager and changes no path."""
    return ShortestPathForest({**adjacency, -1: [(-1, 0.0)]}, source)


def _path_or_error(forest, destination, selector):
    try:
        return forest.path_to(destination, selector)
    except RoutingError as error:
        return str(error)


class TestLazyForest:
    """A forest settles only as far as each query needs; every answer must
    be the one a forest settled in full up front gives."""

    @pytest.mark.parametrize("faults", ("pristine", "links", "isolated"))
    @pytest.mark.parametrize("key", sorted(BUILTIN_SYSTEMS), ids="/".join)
    def test_lazy_paths_equal_eager_paths(self, key, faults):
        """Every source, with destinations in a seeded order and ``parents(0)``
        midway; ``links`` fails 1-3 seeded links, ``isolated`` every link of
        a seeded switch that has at most three, which cuts that switch off."""
        graph = build_system(BUILTIN_SYSTEMS[key]).topology
        rng = random.Random(f"{key}/{faults}")
        if faults == "links":
            failed = rng.sample(graph.links, rng.randint(1, 3))
        elif faults == "isolated":
            lonely = [s.switch_id for s in graph.switches if len(graph.neighbors(s.switch_id)) <= 3]
            failed = [link for _, link in graph.neighbors(rng.choice(lonely))]
        else:
            failed = []
        for link in failed:
            graph.disable_link(link.link_id)
        adjacency = ShortestPathRouter(graph).weighted_adjacency()
        switches = sorted(adjacency)
        unreachable = 0
        for source in switches:
            lazy = ShortestPathForest(adjacency, source)
            eager = _eager_forest(adjacency, source)
            order = rng.sample(switches, len(switches))
            for index, destination in enumerate(order):
                if index == len(order) // 2:
                    assert lazy.parents(0) == eager.parents(0)
                for selector in (None, 0, rng.randrange(1 << 16)):
                    expected = _path_or_error(eager, destination, selector)
                    assert _path_or_error(lazy, destination, selector) == expected
                    unreachable += isinstance(expected, str)
        if faults == "isolated":
            assert unreachable

    def test_a_free_hop_keeps_every_equal_cost_predecessor(self):
        """Switch 2 pops after switch 1 and reaches it over a free hop, so 2
        ties as 1's predecessor only after 1 has been popped.  The forest
        sees the free hop and settles eagerly, keeping both paths; switch 4
        has no link in and stays unreachable."""
        adjacency = {0: [(1, 1.0), (2, 1.0)], 1: [(3, 1.0)], 2: [(1, 0.0)], 3: [], 4: [(0, 1.0)]}
        forest = ShortestPathForest(adjacency, 0)
        assert {tuple(forest.path_to(3, selector)) for selector in range(32)} == {
            (0, 1, 3),
            (0, 2, 1, 3),
        }
        with pytest.raises(RoutingError, match="switch 4 unreachable from 0"):
            forest.path_to(4)

    def test_a_router_with_a_free_link_kind_settles_eagerly(self):
        """The router tells its forests its cheapest hop; with free mesh hops
        its paths are those of forests that scan the adjacency themselves."""
        graph = build_system(FIG7_SYSTEMS["mesh"]).topology
        router = ShortestPathRouter(graph, {LinkKind.MESH: 0.0}, canonicalize_xy=False)
        adjacency = router.weighted_adjacency()
        for source in sorted(adjacency):
            forest = ShortestPathForest(adjacency, source)
            for destination in sorted(adjacency):
                expected = _path_or_error(forest, destination, destination)
                try:
                    assert router.route(source, destination) == expected
                except RoutingError as error:
                    assert str(error) == expected


class TestTreeBuild:
    @pytest.mark.parametrize("faulted", (False, True))
    @pytest.mark.parametrize("label", sorted(FIG7_SYSTEMS))
    def test_tree_is_the_root_forests_selector_zero_paths(self, label, faulted):
        """The tree's parents are the last hops of ``path_to(sid, selector=0)``
        from its root, and its routes climb and descend those paths."""
        graph = build_system(FIG7_SYSTEMS[label]).topology
        rng = random.Random(label)
        if faulted:
            for link in rng.sample(graph.links, rng.randint(1, 3)):
                graph.disable_link(link.link_id)
                if len(connected_components(graph)) > 1:
                    graph.enable_link(link.link_id)
            assert graph.disabled_links
        tree = SpanningTreeRouter(graph)
        forest = ShortestPathForest(tree.weighted_adjacency(), tree.root)
        paths = {s.switch_id: forest.path_to(s.switch_id, selector=0) for s in graph.switches}
        for sid, path in paths.items():
            assert tree.parent(sid) == (path[-2] if len(path) > 1 else None)
            assert tree._depth[sid] == len(path) - 1
            assert tree.route(sid, tree.root) == path[::-1]
        for _ in range(300):
            up, down = (paths[sid] for sid in rng.sample(sorted(paths), 2))
            shared = 0  # both paths start at the root; they part once
            while shared < min(len(up), len(down)) and up[shared] == down[shared]:
                shared += 1
            assert tree.route(up[-1], down[-1]) == up[shared - 1 :][::-1] + down[shared:]
