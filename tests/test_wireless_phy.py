"""Tests of the wireless physical layer models."""

import pytest

from repro.wireless import (
    Transceiver,
    assign_channels,
)


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


class TestChannelAssignment:
    def test_round_robin_assignment(self):
        plans = assign_channels([1, 2, 3, 4, 5], num_channels=2)
        assert len(plans) == 2
        assert plans[0].wi_switch_ids == (1, 3, 5)
        assert plans[1].wi_switch_ids == (2, 4)

    def test_every_wi_gets_exactly_one_channel(self):
        wis = list(range(10, 22))
        plans = assign_channels(wis, num_channels=5)
        assigned = [wi for plan in plans for wi in plan.wi_switch_ids]
        assert sorted(assigned) == sorted(wis)

    def test_channel_frequencies_distinct(self):
        plans = assign_channels([1, 2, 3], num_channels=3)
        centres = {plan.centre_frequency_hz for plan in plans}
        assert len(centres) == 3

    def test_invalid_channel_count(self):
        with pytest.raises(ValueError):
            assign_channels([1, 2], 0)
