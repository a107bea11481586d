"""Tests of the wireless physical layer models."""

import pytest

from repro.noc import NetworkConfig, Switch, WirelessConfig, WirelessFabric, characterize_link
from repro.topology.graph import LinkKind, LinkSpec, SwitchKind, SwitchSpec
from repro.wireless import Transceiver


class TestTransceiver:
    def test_power_gating_controls_sleep(self):
        gated = Transceiver(wi_id=0, power_gating=True)
        gated.set_asleep(True, cycle=0)
        assert gated.asleep
        always_on = Transceiver(wi_id=1, power_gating=False)
        always_on.set_asleep(True, cycle=0)
        assert not always_on.asleep

    def test_static_energy_lower_when_sleeping(self):
        asleep = Transceiver(wi_id=0, power_gating=True)
        asleep.set_asleep(True, cycle=0)
        asleep.settle(1000)
        awake = Transceiver(wi_id=1, power_gating=True)
        awake.settle(1000)
        assert asleep.static_energy_pj() < awake.static_energy_pj()

    def test_sleep_fraction(self):
        transceiver = Transceiver(wi_id=0, power_gating=True)
        transceiver.set_asleep(True, cycle=0)
        transceiver.set_asleep(True, cycle=10)  # no change: the run goes on
        transceiver.set_asleep(False, cycle=30)
        assert (transceiver.total_cycles, transceiver.asleep_cycles) == (30, 30)
        transceiver.settle(100)
        transceiver.settle(100)  # settling twice adds nothing
        assert (transceiver.total_cycles, transceiver.asleep_cycles) == (100, 30)
        assert transceiver.sleep_fraction() == pytest.approx(0.3)
        with pytest.raises(ValueError):
            transceiver.settle(99)


def _fabric(wi_ids, num_channels):
    """A wireless fabric over bare WI switches with the given ids."""
    config = NetworkConfig(wireless=WirelessConfig(num_channels=num_channels))
    link = characterize_link(LinkSpec(link_id=-1, src=-1, dst=-2, kind=LinkKind.WIRELESS), config)
    switches = []
    for wi in wi_ids:
        spec = SwitchSpec(
            switch_id=wi,
            kind=SwitchKind.CORE,
            region_id=0,
            grid_x=wi,
            grid_y=0,
            position_mm=(0.0, 0.0),
        )
        switch = Switch(spec, num_vcs=2, buffer_depth=4)
        switch.add_wireless_port(link)
        switches.append(switch)
    return WirelessFabric(switches, config)


class TestChannelAssignment:
    def test_round_robin_assignment(self):
        fabric = _fabric([5, 3, 1, 4, 2], num_channels=2)
        assert [(mac.channel_id, mac.wi_switch_ids) for mac in fabric.macs] == [
            (0, [1, 3, 5]),
            (1, [2, 4]),
        ]

    def test_every_wi_gets_exactly_one_channel(self):
        wis = list(range(10, 22))
        fabric = _fabric(wis, num_channels=5)
        assigned = [wi for mac in fabric.macs for wi in mac.wi_switch_ids]
        assert sorted(assigned) == wis

    def test_channel_without_a_wi_gets_no_mac(self):
        fabric = _fabric([1, 2, 3], num_channels=5)
        assert [mac.channel_id for mac in fabric.macs] == [0, 1, 2]

    def test_invalid_channel_count(self):
        with pytest.raises(ValueError):
            WirelessConfig(num_channels=0)
