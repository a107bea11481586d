"""Tests of the link / switch energy models and accounting."""

import pytest

from repro.energy import EnergyAccountant, switch_static_power_mw
from repro.energy.technology import DEFAULT_TECHNOLOGY
from repro.noc.config import NetworkConfig
from repro.noc.link import characterize_link
from repro.topology.graph import LinkKind, LinkSpec

CONFIG = NetworkConfig()


def _link(kind, length_mm=0.0):
    spec = LinkSpec(link_id=0, src=0, dst=1, kind=kind, length_mm=length_mm)
    return characterize_link(spec, CONFIG)


class TestWireModel:
    def test_energy_proportional_to_length(self):
        short = _link(LinkKind.MESH, 1.0)
        long = _link(LinkKind.MESH, 4.0)
        assert long.energy_pj_per_flit == pytest.approx(4 * short.energy_pj_per_flit)

    def test_default_mesh_links_are_single_cycle(self):
        """The paper assumes single-cycle intra-chip links; a 2.5 mm hop is."""
        link = _link(LinkKind.MESH, 2.5)
        assert link.latency_cycles == CONFIG.switch_pipeline_stages + 1

    def test_rejects_negative_length(self):
        for kind in (LinkKind.MESH, LinkKind.TSV):
            with pytest.raises(ValueError):
                _link(kind, -1.0)

    def test_interposer_link_energy_above_mesh_hop(self):
        mesh = _link(LinkKind.MESH, 2.5)
        interposer = _link(LinkKind.INTERPOSER, 3.0)
        assert interposer.energy_pj_per_flit > mesh.energy_pj_per_flit


class TestSwitchPowerModel:
    def test_reference_profile(self):
        static_mw = switch_static_power_mw(DEFAULT_TECHNOLOGY, 5, 8, 16)
        assert static_mw == pytest.approx(DEFAULT_TECHNOLOGY.switch_static_power_mw, rel=0.01)

    def test_bigger_buffers_cost_more_static_power(self):
        small = switch_static_power_mw(DEFAULT_TECHNOLOGY, 5, 8, 16)
        big = switch_static_power_mw(DEFAULT_TECHNOLOGY, 5, 8, 64)
        assert big > small

    def test_invalid_arguments(self):
        for ports, vcs, depth in [(0, 8, 16), (5, 0, 16), (5, 8, 0)]:
            with pytest.raises(ValueError):
                switch_static_power_mw(DEFAULT_TECHNOLOGY, ports, vcs, depth)


class TestIoModels:
    def test_serial_io_figures(self):
        link = _link(LinkKind.SERIAL_IO)
        assert link.energy_pj_per_flit == pytest.approx(5.0 * 32)
        assert link.cycles_per_flit == 6

    def test_wide_io_figures(self):
        link = _link(LinkKind.WIDE_IO)
        assert link.energy_pj_per_flit == pytest.approx(6.5 * 32)
        assert link.cycles_per_flit == 1


class TestWirelessEnergyModel:
    def test_per_flit_energy(self):
        link = _link(LinkKind.WIRELESS, 10.0)
        # 2.3 pJ/bit over a 32-bit flit: the transceiver figure of the paper.
        assert link.energy_pj_per_flit == pytest.approx(2.3 * 32)


class TestEnergyAccountant:
    def test_static_energy_recording(self):
        accountant = EnergyAccountant()
        accountant.record_static(1000, total_switch_static_mw=10.0)
        assert accountant.breakdown.switch_static_pj > 0
        accountant.add_transceiver_static_energy(500.0)
        assert accountant.breakdown.transceiver_static_pj == pytest.approx(500.0)

    def test_mac_control_energy_not_attributed_to_packets(self):
        accountant = EnergyAccountant()
        accountant.record_mac_control(50.0)
        assert accountant.breakdown.mac_control_pj == pytest.approx(50.0)
        assert accountant.breakdown.dynamic_pj == pytest.approx(50.0)

    def test_breakdown_as_dict(self):
        accountant = EnergyAccountant()
        d = accountant.breakdown.as_dict()
        assert set(d) >= {"dynamic_pj", "static_pj", "total_pj"}
