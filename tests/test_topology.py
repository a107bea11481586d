"""Tests of geometry planning, graph construction and the multichip builders."""

import pytest

from repro.core.config import SystemConfig
from repro.topology import (
    EndpointKind,
    LinkKind,
    RegionKind,
    SwitchKind,
    TopologyError,
    TopologyGraph,
    apply_interposer_overlay,
    apply_substrate_overlay,
    apply_wireless_overlay,
    boundary_switches,
    build_multichip_base,
    cluster_centers,
    evenly_spaced,
    memory_anchor_switch,
    mesh_shape_for_cores,
    plan_package,
)


class TestGeometry:
    def test_mesh_shape_square_counts(self):
        assert mesh_shape_for_cores(16) == (4, 4)
        assert mesh_shape_for_cores(64) == (8, 8)

    def test_mesh_shape_prefers_more_rows(self):
        cols, rows = mesh_shape_for_cores(8)
        assert cols * rows == 8
        assert rows >= cols

    def test_mesh_shape_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            mesh_shape_for_cores(0)

    def test_plan_package_counts(self):
        layout = plan_package(4, 16, 4)
        assert len(layout.chips) == 4
        assert len(layout.memories) == 4
        assert layout.total_grid_columns == 16
        assert layout.mesh_rows == 4

    def test_constant_area_disintegration_shrinks_chips(self):
        four = plan_package(4, 16, 4, total_processing_area_mm2=400.0)
        eight = plan_package(8, 8, 4, total_processing_area_mm2=400.0)
        assert four.chip_edge_mm == pytest.approx(10.0)
        assert eight.chip_edge_mm < four.chip_edge_mm
        assert 8 * eight.chip_edge_mm**2 == pytest.approx(400.0)

    def test_memory_stacks_adjacent_to_distinct_chips(self):
        layout = plan_package(4, 16, 4)
        adjacency = [m.adjacent_chip_index for m in layout.memories]
        assert sorted(adjacency) == [0, 1, 2, 3]

    def test_memory_stacks_on_both_sides(self):
        layout = plan_package(4, 16, 4)
        sides = {m.side for m in layout.memories}
        assert sides == {"top", "bottom"}


class TestTopologyGraph:
    def _tiny_graph(self):
        graph = TopologyGraph()
        region = graph.add_region(RegionKind.PROCESSOR_CHIP, "chip0", 2, 1, (0, 0), 5.0)
        a = graph.add_switch(SwitchKind.CORE, region.region_id, 0, 0, (1.0, 1.0))
        b = graph.add_switch(SwitchKind.CORE, region.region_id, 1, 0, (2.0, 1.0))
        graph.add_endpoint(EndpointKind.CORE, a.switch_id)
        graph.add_endpoint(EndpointKind.CORE, b.switch_id)
        graph.add_link(a.switch_id, b.switch_id, LinkKind.MESH, length_mm=1.0)
        return graph, a, b

    def test_basic_queries(self):
        graph, a, b = self._tiny_graph()
        assert graph.num_switches == 2
        assert graph.num_endpoints == 2
        assert len(graph.cores) == 2
        assert graph.find_link(a.switch_id, b.switch_id) is not None
        assert graph.neighbors(a.switch_id)[0][0] == b.switch_id
        graph.validate()

    def test_duplicate_link_rejected(self):
        graph, a, b = self._tiny_graph()
        with pytest.raises(TopologyError):
            graph.add_link(a.switch_id, b.switch_id, LinkKind.MESH)
        with pytest.raises(TopologyError, match="duplicate"):
            graph.add_link(b.switch_id, a.switch_id, LinkKind.MESH)
        # Still rejected while the existing link is out of service.
        graph.disable_link(graph.find_link(a.switch_id, b.switch_id).link_id)
        with pytest.raises(TopologyError, match="duplicate"):
            graph.add_link(a.switch_id, b.switch_id, LinkKind.MESH)

    def test_find_link_semantics(self):
        graph, a, b = self._tiny_graph()
        region = graph.regions[0]
        c = graph.add_switch(SwitchKind.CORE, region.region_id, 2, 0, (3.0, 1.0))
        ab = graph.find_link(a.switch_id, b.switch_id)
        bc = graph.add_link(b.switch_id, c.switch_id, LinkKind.MESH)
        # Both directions resolve to the same link object.
        assert graph.find_link(b.switch_id, a.switch_id) is ab
        assert graph.find_link(c.switch_id, b.switch_id) is bc
        # No link between a and c, and unknown switches find nothing.
        assert graph.find_link(a.switch_id, c.switch_id) is None
        assert graph.find_link(999, a.switch_id) is None
        assert graph.find_link(a.switch_id, 999) is None
        assert graph.find_link(998, 999, include_disabled=True) is None

        def found(x, y):
            return (
                graph.find_link(x.switch_id, y.switch_id),
                graph.find_link(x.switch_id, y.switch_id, include_disabled=True),
            )

        graph.disable_link(ab.link_id)
        assert found(a, b) == found(b, a) == (None, ab)
        assert found(b, c) == (bc, bc)
        graph.disable_link(bc.link_id)
        graph.enable_link(ab.link_id)
        assert found(a, b) == found(b, a) == (ab, ab)
        assert found(c, b) == (None, bc)
        graph.disable_link(ab.link_id)
        graph.enable_all_links()
        assert found(b, a) == (ab, ab)
        assert found(c, b) == (bc, bc)

    def test_self_link_rejected(self):
        graph, a, _ = self._tiny_graph()
        with pytest.raises(TopologyError):
            graph.add_link(a.switch_id, a.switch_id, LinkKind.MESH)

    def test_unknown_switch_lookup(self):
        graph, _, _ = self._tiny_graph()
        with pytest.raises(TopologyError):
            graph.switch(999)

    def test_disconnected_graph_fails_validation(self):
        graph, _, _ = self._tiny_graph()
        region = graph.regions[0]
        graph.add_switch(SwitchKind.CORE, region.region_id, 5, 5, (9.0, 9.0))
        with pytest.raises(TopologyError):
            graph.validate()


class TestMultichipBase:
    def test_base_counts(self):
        system = build_multichip_base(2, 4, 2, vaults_per_stack=2)
        graph = system.graph
        assert system.num_chips == 2
        assert system.num_memory_stacks == 2
        assert len(graph.cores) == 8
        assert len(graph.memory_vaults) == 4
        # 2 chips x (2x2 mesh) switches + 2 memory logic dies.
        assert graph.num_switches == 8 + 2
        # The base has no inter-region links yet.
        assert not graph.inter_region_links()

    def test_boundary_switch_ordering(self):
        system = build_multichip_base(2, 4, 0)
        left = boundary_switches(system.graph, system.chip_region_ids[0], "left")
        right = boundary_switches(system.graph, system.chip_region_ids[0], "right")
        assert len(left) == len(right) == 2
        assert left != right

    def test_evenly_spaced(self):
        assert evenly_spaced([1, 2, 3, 4], 2) == [2, 4] or len(
            evenly_spaced([1, 2, 3, 4], 2)
        ) == 2
        assert evenly_spaced([1, 2], 5) == [1, 2]
        with pytest.raises(ValueError):
            evenly_spaced([1], 0)

    def test_cluster_centers_count_and_distinct(self):
        system = build_multichip_base(1, 16, 0)
        centers = cluster_centers(system.graph, system.chip_region_ids[0], 4)
        assert len(centers) == 4
        assert len(set(centers)) == 4


class TestOverlays:
    def test_substrate_overlay_links(self):
        system = build_multichip_base(2, 4, 2, vaults_per_stack=2)
        created = apply_substrate_overlay(system, SystemConfig())
        kinds = {link.kind for link in created}
        assert kinds == {LinkKind.SERIAL_IO, LinkKind.WIDE_IO}
        # One serial link per adjacent chip pair, one wide I/O per stack.
        assert len([link for link in created if link.kind == LinkKind.SERIAL_IO]) == 1
        assert len([link for link in created if link.kind == LinkKind.WIDE_IO]) == 2
        system.graph.validate()

    def test_interposer_overlay_links(self):
        system = build_multichip_base(2, 4, 2, vaults_per_stack=2)
        created = apply_interposer_overlay(system, SystemConfig(interposer_links_per_boundary=2))
        interposer = [link for link in created if link.kind == LinkKind.INTERPOSER]
        assert len(interposer) == 2
        system.graph.validate()

    def test_interposer_full_extension(self):
        system = build_multichip_base(2, 4, 0)
        created = apply_interposer_overlay(system, SystemConfig(interposer_links_per_boundary=0))
        # 2x2 chips have 2 boundary rows -> 2 links when fully extended.
        assert len(created) == 2

    def test_wireless_overlay_deployment(self):
        system = build_multichip_base(2, 4, 2, vaults_per_stack=2)
        created = apply_wireless_overlay(system, SystemConfig(cores_per_wi=4))
        graph = system.graph
        # 1 WI per chip + 1 per memory stack.
        assert len(graph.wireless_switches) == 4
        assert all(link.kind == LinkKind.WIRELESS for link in created)
        # Pairwise connectivity between 4 WIs = 6 links.
        assert len(created) == 6
        graph.validate()

    def test_wireless_density_controls_wi_count(self):
        system = build_multichip_base(1, 16, 0)
        apply_wireless_overlay(system, SystemConfig(cores_per_wi=4))
        assert len(system.graph.wireless_switches) == 4

    def test_every_chip_gets_a_wi_even_when_small(self):
        system = build_multichip_base(4, 2, 0)
        apply_wireless_overlay(system, SystemConfig(cores_per_wi=16))
        assert len(system.graph.wireless_switches) == 4

    def test_memory_anchor_is_on_adjacent_chip(self):
        system = build_multichip_base(2, 4, 2, vaults_per_stack=2)
        for memory_index in range(system.num_memory_stacks):
            anchor = memory_anchor_switch(system, memory_index)
            placement = system.layout.memories[memory_index]
            chip_region = system.chip_region_ids[placement.adjacent_chip_index]
            assert system.graph.switch(anchor).region_id == chip_region
