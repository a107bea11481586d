"""Tests of the wire / switch / I/O energy models and accounting."""

import pytest

from repro.energy import (
    EnergyAccountant,
    SerialIoModel,
    SwitchPowerModel,
    WideIoModel,
    WireModel,
)
from repro.energy.technology import DEFAULT_TECHNOLOGY
from repro.noc.link import characterize_link
from repro.topology.graph import LinkKind, LinkSpec


class TestWireModel:
    def test_energy_proportional_to_length(self):
        model = WireModel()
        short = model.characterize(1.0)
        long = model.characterize(4.0)
        assert long.energy_pj_per_flit == pytest.approx(4 * short.energy_pj_per_flit)

    def test_default_mesh_links_are_single_cycle(self):
        """The paper assumes single-cycle intra-chip links; a 2.5 mm hop is."""
        assert WireModel().characterize(2.5).latency_cycles <= 1

    def test_rejects_negative_length(self):
        with pytest.raises(ValueError):
            WireModel().characterize(-1.0)

    def test_interposer_link_energy_above_mesh_hop(self):
        mesh = WireModel().characterize(2.5)
        interposer = characterize_link(
            LinkSpec(link_id=0, src=0, dst=1, kind=LinkKind.INTERPOSER, length_mm=3.0)
        )
        assert interposer.energy_pj_per_flit > mesh.energy_pj_per_flit


class TestSwitchPowerModel:
    def test_reference_profile(self):
        profile = SwitchPowerModel().profile(5, 8, 16)
        assert profile.dynamic_energy_pj_per_flit == pytest.approx(
            DEFAULT_TECHNOLOGY.switch_dynamic_energy_pj_per_flit
        )
        assert profile.static_power_mw == pytest.approx(
            DEFAULT_TECHNOLOGY.switch_static_power_mw, rel=0.01
        )

    def test_bigger_buffers_cost_more_static_power(self):
        model = SwitchPowerModel()
        small = model.profile(5, 8, 16)
        big = model.profile(5, 8, 64)
        assert big.static_power_mw > small.static_power_mw

    def test_static_energy_scales_with_cycles(self):
        profile = SwitchPowerModel().profile(5, 8, 16)
        one = profile.static_energy_pj(1000, 0.4e-9)
        two = profile.static_energy_pj(2000, 0.4e-9)
        assert two == pytest.approx(2 * one)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            SwitchPowerModel().profile(0, 8, 16)
        with pytest.raises(ValueError):
            SwitchPowerModel().traversal_energy_pj(-1)


class TestIoModels:
    def test_serial_io_figures(self):
        io = SerialIoModel().characterize()
        assert io.energy_pj_per_flit == pytest.approx(5.0 * 32)
        assert io.cycles_per_flit == 6
        assert io.rate_gbps == pytest.approx(15.0)

    def test_serial_io_lane_bonding(self):
        bonded = SerialIoModel(lanes=4).characterize()
        assert bonded.rate_gbps == pytest.approx(60.0)
        assert bonded.cycles_per_flit < SerialIoModel().characterize().cycles_per_flit

    def test_wide_io_figures(self):
        io = WideIoModel().characterize()
        assert io.energy_pj_per_flit == pytest.approx(6.5 * 32)
        assert io.cycles_per_flit == 1
        assert io.rate_gbps == pytest.approx(128.0)

    def test_rejects_invalid_lanes(self):
        with pytest.raises(ValueError):
            SerialIoModel(lanes=0)


class TestWirelessEnergyModel:
    def test_per_flit_energy(self):
        link = characterize_link(
            LinkSpec(link_id=0, src=0, dst=1, kind=LinkKind.WIRELESS, length_mm=10.0)
        )
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
