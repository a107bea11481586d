"""Tests of the 65 nm technology constants and helpers."""


import pytest

from repro.energy import technology as tech


class TestConstants:
    def test_clock_and_cycle_time_are_consistent(self):
        assert tech.CYCLE_TIME_S == pytest.approx(1.0 / tech.CLOCK_FREQUENCY_HZ)
        assert tech.CLOCK_FREQUENCY_HZ == pytest.approx(2.5e9)

    def test_paper_quoted_figures(self):
        """The numbers the paper quotes verbatim must be captured exactly."""
        assert tech.FLIT_WIDTH_BITS == 32
        assert tech.DEFAULT_PACKET_LENGTH_FLITS == 64
        assert tech.DEFAULT_VIRTUAL_CHANNELS == 8
        assert tech.DEFAULT_VC_BUFFER_DEPTH_FLITS == 16
        assert tech.SWITCH_PIPELINE_STAGES == 3
        assert tech.WIRELESS_ENERGY_PJ_PER_BIT == pytest.approx(2.3)
        assert tech.WIRELESS_DATA_RATE_GBPS == pytest.approx(16.0)
        assert tech.WIRELESS_TRANSCEIVER_AREA_MM2 == pytest.approx(0.3)
        assert tech.SERIAL_IO_ENERGY_PJ_PER_BIT == pytest.approx(5.0)
        assert tech.SERIAL_IO_RATE_GBPS == pytest.approx(15.0)
        assert tech.WIDE_IO_ENERGY_PJ_PER_BIT == pytest.approx(6.5)
        assert tech.WIDE_IO_WIDTH_BITS == 128

    def test_energy_ordering_matches_paper(self):
        """Wireless < serial I/O < wide I/O per bit, as the paper argues."""
        assert (
            tech.WIRELESS_ENERGY_PJ_PER_BIT
            < tech.SERIAL_IO_ENERGY_PJ_PER_BIT
            < tech.WIDE_IO_ENERGY_PJ_PER_BIT
        )


class TestHelpers:
    def test_bits_per_cycle(self):
        assert tech.bits_per_cycle(16.0) == pytest.approx(6.4)
        assert tech.bits_per_cycle(80.0) == pytest.approx(32.0)

    def test_cycles_per_flit_serialisation(self):
        # 15 Gb/s serial lane: 32 bits take ceil(32 / 6) = 6 cycles.
        assert tech.cycles_per_flit(15.0) == 6
        # 128 Gb/s wide I/O moves a flit in a single cycle.
        assert tech.cycles_per_flit(128.0) == 1
        # Even an over-provisioned channel takes at least one cycle.
        assert tech.cycles_per_flit(1000.0) == 1
        # At 1 GHz the serial lane moves 15 bits a cycle: ceil(32 / 15) = 3.
        assert tech.cycles_per_flit(15.0, clock_hz=1e9) == 3

    def test_cycles_per_flit_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            tech.cycles_per_flit(0.0)


class TestTechnologyDataclass:
    def test_default_instance_matches_module_constants(self):
        t = tech.Technology()
        assert t.flit_width_bits == tech.FLIT_WIDTH_BITS
        assert t.wireless_energy_pj_per_bit == tech.WIRELESS_ENERGY_PJ_PER_BIT

    def test_flit_energy(self):
        t = tech.Technology()
        assert t.flit_energy_pj(2.3) == pytest.approx(2.3 * 32)

    def test_wire_energy_scales_with_length(self):
        t = tech.Technology()
        one = t.wire_energy_pj_per_flit(1.0)
        five = t.wire_energy_pj_per_flit(5.0)
        assert five == pytest.approx(5 * one)

    def test_wire_energy_rejects_negative_length(self):
        with pytest.raises(ValueError):
            tech.Technology().wire_energy_pj_per_flit(-1.0)

    def test_wire_delay_minimum_one_cycle(self):
        t = tech.Technology()
        assert t.wire_delay_cycles(0.1) == 1
        assert t.wire_delay_cycles(10.0) >= 2

    def test_wide_io_rate(self):
        assert tech.Technology().wide_io_rate_gbps() == pytest.approx(128.0)

    def test_immutability(self):
        t = tech.Technology()
        with pytest.raises(Exception):
            t.flit_width_bits = 64  # type: ignore[misc]
