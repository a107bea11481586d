"""Unit tests of the simulator building blocks (links, switches, configs)."""

import pytest

from repro.energy.technology import Technology
from repro.noc.config import NetworkConfig, WirelessConfig
from repro.noc.link import LinkCharacteristics, characterize_link
from repro.noc.switch import Switch
from repro.topology.graph import LinkKind, LinkSpec, SwitchKind, SwitchSpec


def _switch(switch_id=0, num_vcs=2, depth=4):
    spec = SwitchSpec(
        switch_id=switch_id,
        kind=SwitchKind.CORE,
        region_id=0,
        grid_x=0,
        grid_y=0,
        position_mm=(0.0, 0.0),
    )
    return Switch(spec, num_vcs=num_vcs, buffer_depth=depth)


class TestLinkCharacterisation:
    def _spec(self, kind, length=2.5):
        return LinkSpec(link_id=0, src=0, dst=1, kind=kind, length_mm=length)

    def _link(self, kind, config=NetworkConfig()):
        return characterize_link(self._spec(kind), config)

    def test_mesh_link(self):
        link = self._link(LinkKind.MESH)
        assert link.cycles_per_flit == 1
        assert link.latency_cycles >= 3
        assert link.energy_pj_per_flit > 0

    def test_serial_io_is_slowest(self):
        serial = self._link(LinkKind.SERIAL_IO)
        wide = self._link(LinkKind.WIDE_IO)
        mesh = self._link(LinkKind.MESH)
        assert serial.cycles_per_flit > wide.cycles_per_flit == mesh.cycles_per_flit

    def test_serial_io_serialises_at_the_technology_clock(self):
        # 15 Gb/s: 6 bits per 2.5 GHz cycle (6 cycles per 32-bit flit),
        # 15 bits per 1 GHz cycle (3 cycles).
        assert self._link(LinkKind.SERIAL_IO).cycles_per_flit == 6
        slow_clock = NetworkConfig(technology=Technology(clock_frequency_hz=1e9))
        assert self._link(LinkKind.SERIAL_IO, slow_clock).cycles_per_flit == 3

    def test_wireless_settings_respected(self):
        config = NetworkConfig(wireless=WirelessConfig(cycles_per_flit=5, extra_latency_cycles=2))
        link = self._link(LinkKind.WIRELESS, config)
        assert link.is_wireless
        assert link.cycles_per_flit == 5
        assert link.latency_cycles == config.switch_pipeline_stages + 1 + 2

    def test_energy_ordering_per_flit(self):
        wireless = self._link(LinkKind.WIRELESS)
        serial = self._link(LinkKind.SERIAL_IO)
        wide = self._link(LinkKind.WIDE_IO)
        assert wireless.energy_pj_per_flit < serial.energy_pj_per_flit
        assert serial.energy_pj_per_flit < wide.energy_pj_per_flit

    def test_invalid_characteristics_rejected(self):
        with pytest.raises(ValueError):
            LinkCharacteristics(
                kind=LinkKind.MESH,
                cycles_per_flit=0,
                latency_cycles=1,
                energy_pj_per_flit=1.0,
            )


class TestSwitchStructure:
    def test_wired_port_pairs(self):
        a = _switch(0)
        b = _switch(1)
        link = characterize_link(
            LinkSpec(link_id=0, src=0, dst=1, kind=LinkKind.MESH, length_mm=1.0), NetworkConfig()
        )
        a_in, a_out = a.add_wired_port(1, link)
        b_in, b_out = b.add_wired_port(0, link)
        a_out.downstream_port = b_in
        assert a.output_towards(1) is a_out
        assert not a.has_wireless

    def test_wireless_port(self):
        switch = _switch()
        link = characterize_link(
            LinkSpec(link_id=0, src=0, dst=1, kind=LinkKind.WIRELESS), NetworkConfig()
        )
        wi_in, wi_out = switch.add_wireless_port(link)
        assert switch.has_wireless
        assert switch.output_towards(42) is wi_out
        with pytest.raises(Exception):
            switch.add_wireless_port(link)

    def test_output_towards_missing_neighbor(self):
        switch = _switch()
        with pytest.raises(Exception):
            switch.output_towards(3)

    def test_network_config_wi_buffer_depth(self):
        token = NetworkConfig(
            packet_length_flits=64, wireless=WirelessConfig(mac="token")
        )
        control = NetworkConfig(
            packet_length_flits=64, wireless=WirelessConfig(mac="control_packet")
        )
        assert token.wi_buffer_depth >= 64
        assert control.wi_buffer_depth < token.wi_buffer_depth

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            NetworkConfig(virtual_channels=0)
        with pytest.raises(ValueError):
            WirelessConfig(mac="aloha")
        with pytest.raises(ValueError):
            WirelessConfig(num_channels=0)
