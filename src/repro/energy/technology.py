"""Technology constants for the 65 nm node used throughout the reproduction.

The paper evaluates every architecture at the 65 nm technology node with a
2.5 GHz clock and a 1 V supply.  All delay and energy figures that the paper
quotes explicitly are captured here verbatim; figures the paper obtained from
Cadence/Synopsys runs (intra-chip wire energy, switch power) are replaced by
documented analytical estimates for the same node.  Only these macro numbers
enter the cycle-accurate simulation, so the substitution preserves the
relative behaviour of the architectures (see DESIGN.md, section 3).

Every constant uses explicit units in its name (``_PJ_PER_BIT``, ``_MW``,
``_GBPS`` ...) so that accounting code cannot silently mix units.
"""

from __future__ import annotations

from dataclasses import dataclass

# ---------------------------------------------------------------------------
# Global digital operating point (Section IV of the paper).
# ---------------------------------------------------------------------------

#: Nominal clock frequency of all digital components (switches, NIs) [Hz].
CLOCK_FREQUENCY_HZ: float = 2.5e9

#: Clock period [s].
CYCLE_TIME_S: float = 1.0 / CLOCK_FREQUENCY_HZ

#: Nominal supply voltage [V].
SUPPLY_VOLTAGE_V: float = 1.0

#: Flit width used by every architecture in the paper [bits].
FLIT_WIDTH_BITS: int = 32

#: Default packet length [flits] ("moderate packet size of 64 flits").
DEFAULT_PACKET_LENGTH_FLITS: int = 64

#: Virtual channels per port ("8 VCs ... for all the architectures").
DEFAULT_VIRTUAL_CHANNELS: int = 8

#: Buffer depth per virtual channel [flits].
DEFAULT_VC_BUFFER_DEPTH_FLITS: int = 16

#: Switch pipeline depth ("three-stage pipeline network switch" [18]).
SWITCH_PIPELINE_STAGES: int = 3


# ---------------------------------------------------------------------------
# NoC switch power (Synopsys synthesis substitute).
# ---------------------------------------------------------------------------

#: Dynamic energy for one flit to traverse one switch (buffer write/read,
#: route computation, arbitration and crossbar) [pJ/flit].  Derived from
#: 65 nm NoC switch syntheses reported around 30 fJ/bit/hop (e.g. Pande et
#: al., IEEE TC 2005 scaled to 65 nm); 32 bit * 0.0306 pJ/bit ~= 0.98 pJ.
SWITCH_DYNAMIC_ENERGY_PJ_PER_FLIT: float = 0.98

#: Static (leakage + clock tree) power of one switch with 5 ports,
#: 8 VCs x 16 flits of buffering at 65 nm [mW].
SWITCH_STATIC_POWER_MW: float = 2.0

#: Additional static power per flit of buffer storage [uW/flit].  Used to
#: model the larger buffers that the token-based wireless MAC requires
#: (whole-packet buffering at the WI, Section III-D).
BUFFER_STATIC_POWER_UW_PER_FLIT: float = 1.6


# ---------------------------------------------------------------------------
# Intra-chip wireline links (Cadence substitute).
# ---------------------------------------------------------------------------

#: Energy of driving one bit over one millimetre of on-chip global wire with
#: repeaters at 65 nm [pJ/bit/mm].
WIRE_ENERGY_PJ_PER_BIT_PER_MM: float = 0.20

#: Delay of a repeated global wire [ps/mm]; used to check the single-cycle
#: link assumption of the paper for the link lengths that occur in a
#: 10 mm x 10 mm die.
WIRE_DELAY_PS_PER_MM: float = 110.0

#: Die edge length of each processing chip in the default system [mm]
#: ("Each chip is considered to be 10mm x 10mm").
CHIP_EDGE_MM: float = 10.0

#: Physical gap between two adjacent chips on the substrate/interposer [mm].
INTER_CHIP_GAP_MM: float = 1.0


# ---------------------------------------------------------------------------
# Off-chip wireline I/O (Section IV-A).
# ---------------------------------------------------------------------------

#: Energy per bit of the chip-to-chip high speed serial I/O [pJ/bit] [8].
SERIAL_IO_ENERGY_PJ_PER_BIT: float = 5.0

#: Data rate of one serial I/O lane [Gb/s] [8].
SERIAL_IO_RATE_GBPS: float = 15.0

#: Energy per bit of the 128-bit wide memory I/O channel [pJ/bit] [19].
WIDE_IO_ENERGY_PJ_PER_BIT: float = 6.5

#: Width of the wide memory I/O channel [bits].
WIDE_IO_WIDTH_BITS: int = 128

#: Clock of the wide memory I/O channel [Hz]; 128 bit @ 1 GHz = 128 Gb/s.
WIDE_IO_CLOCK_HZ: float = 1.0e9

#: Energy per bit of an interposer link between adjacent chips.  The link is
#: an interposer metal trace (a few millimetres) plus two micro-bump
#: crossings; NoC-on-interposer studies [2] place this between on-chip wire
#: energy and serial I/O energy [pJ/bit].
INTERPOSER_LINK_ENERGY_PJ_PER_BIT: float = 1.6

#: Extra latency of an interposer link relative to an on-chip link [cycles].
INTERPOSER_LINK_EXTRA_LATENCY_CYCLES: int = 1

#: Extra latency of a serial I/O link (serialisation + package trace) [cycles].
SERIAL_IO_EXTRA_LATENCY_CYCLES: int = 2

#: Extra latency of a wide memory I/O crossing [cycles].
WIDE_IO_EXTRA_LATENCY_CYCLES: int = 1


# ---------------------------------------------------------------------------
# mm-wave wireless physical layer (Section III-B / IV).
# ---------------------------------------------------------------------------

#: Energy per bit of the 60 GHz OOK transceiver (TX + RX) [pJ/bit] [6].
WIRELESS_ENERGY_PJ_PER_BIT: float = 2.3

#: Sustained data rate of the transceiver [Gb/s] [6].
WIRELESS_DATA_RATE_GBPS: float = 16.0

#: Active silicon area of one transceiver [mm^2].
WIRELESS_TRANSCEIVER_AREA_MM2: float = 0.3

#: Carrier frequency of the wireless channel [Hz].
WIRELESS_CARRIER_FREQUENCY_HZ: float = 60.0e9

#: -3 dB bandwidth of the on-chip zig-zag antenna [Hz] ("bandwidth of 16GHz").
WIRELESS_ANTENNA_BANDWIDTH_HZ: float = 16.0e9

#: Target bit error rate of the wireless link.
WIRELESS_TARGET_BER: float = 1e-15

#: Static power of an active (awake) transceiver [mW]; the product of the
#: 2.3 pJ/bit figure and the 16 Gb/s rate gives 36.8 mW when streaming, of
#: which roughly a third is bias circuitry that burns regardless of data.
WIRELESS_IDLE_POWER_MW: float = 12.0

#: Residual power of a power-gated ("sleepy") transceiver [mW] [17].
WIRELESS_SLEEP_POWER_MW: float = 0.6

#: Size of the MAC control packet broadcast before each transmission burst
#: [bits]: header + up to 8 (DestWI, PktID, NumFlits) 3-tuples.
MAC_CONTROL_PACKET_BITS: int = 96

#: Latency of passing the token in the baseline token MAC [cycles].
TOKEN_PASS_LATENCY_CYCLES: int = 2

#: TSV energy inside a memory stack [pJ/bit]; negligible and identical in all
#: configurations (the paper ignores intra-stack transfer energy).
TSV_ENERGY_PJ_PER_BIT: float = 0.02


def bits_per_cycle(rate_gbps: float, clock_hz: float = CLOCK_FREQUENCY_HZ) -> float:
    """Bits a channel of ``rate_gbps`` can move in one clock of ``clock_hz``."""
    return rate_gbps * 1e9 / clock_hz


def cycles_per_flit(
    rate_gbps: float, flit_bits: int = FLIT_WIDTH_BITS, clock_hz: float = CLOCK_FREQUENCY_HZ
) -> int:
    """Whole cycles of a ``clock_hz`` clock needed to serialise one flit.

    The result is never less than one cycle: even an over-provisioned channel
    is clocked by the network clock.
    """
    if rate_gbps <= 0:
        raise ValueError(f"rate_gbps must be positive, got {rate_gbps}")
    per_cycle = bits_per_cycle(rate_gbps, clock_hz)
    import math

    return max(1, math.ceil(flit_bits / per_cycle))


@dataclass(frozen=True)
class Technology:
    """A bundle of technology constants used by the energy models.

    Instances are immutable so a simulation cannot accidentally drift from
    the parameters it was configured with.  The defaults reproduce the
    65 nm / 2.5 GHz / 1 V operating point of the paper; tests use modified
    instances to check scaling behaviour.
    """

    clock_frequency_hz: float = CLOCK_FREQUENCY_HZ
    supply_voltage_v: float = SUPPLY_VOLTAGE_V
    flit_width_bits: int = FLIT_WIDTH_BITS
    switch_dynamic_energy_pj_per_flit: float = SWITCH_DYNAMIC_ENERGY_PJ_PER_FLIT
    switch_static_power_mw: float = SWITCH_STATIC_POWER_MW
    buffer_static_power_uw_per_flit: float = BUFFER_STATIC_POWER_UW_PER_FLIT
    wire_energy_pj_per_bit_per_mm: float = WIRE_ENERGY_PJ_PER_BIT_PER_MM
    wire_delay_ps_per_mm: float = WIRE_DELAY_PS_PER_MM
    serial_io_energy_pj_per_bit: float = SERIAL_IO_ENERGY_PJ_PER_BIT
    serial_io_rate_gbps: float = SERIAL_IO_RATE_GBPS
    wide_io_energy_pj_per_bit: float = WIDE_IO_ENERGY_PJ_PER_BIT
    wide_io_width_bits: int = WIDE_IO_WIDTH_BITS
    wide_io_clock_hz: float = WIDE_IO_CLOCK_HZ
    interposer_link_energy_pj_per_bit: float = INTERPOSER_LINK_ENERGY_PJ_PER_BIT
    wireless_energy_pj_per_bit: float = WIRELESS_ENERGY_PJ_PER_BIT
    wireless_data_rate_gbps: float = WIRELESS_DATA_RATE_GBPS
    wireless_idle_power_mw: float = WIRELESS_IDLE_POWER_MW
    wireless_sleep_power_mw: float = WIRELESS_SLEEP_POWER_MW
    tsv_energy_pj_per_bit: float = TSV_ENERGY_PJ_PER_BIT

    @property
    def cycle_time_s(self) -> float:
        """Clock period in seconds."""
        return 1.0 / self.clock_frequency_hz

    def flit_energy_pj(self, energy_pj_per_bit: float) -> float:
        """Energy to move one flit at a given per-bit energy [pJ]."""
        return energy_pj_per_bit * self.flit_width_bits

    def wire_energy_pj_per_flit(self, length_mm: float) -> float:
        """Energy to move one flit over ``length_mm`` of on-chip wire [pJ]."""
        if length_mm < 0:
            raise ValueError(f"length_mm must be non-negative, got {length_mm}")
        return self.wire_energy_pj_per_bit_per_mm * length_mm * self.flit_width_bits

    def wire_delay_cycles(self, length_mm: float) -> int:
        """Clock cycles to traverse ``length_mm`` of repeated wire (>= 1)."""
        if length_mm < 0:
            raise ValueError(f"length_mm must be non-negative, got {length_mm}")
        delay_s = self.wire_delay_ps_per_mm * length_mm * 1e-12
        import math

        return max(1, math.ceil(delay_s / self.cycle_time_s))

    def wide_io_rate_gbps(self) -> float:
        """Aggregate data rate of the wide memory I/O channel [Gb/s]."""
        return self.wide_io_width_bits * self.wide_io_clock_hz / 1e9


#: Default technology singleton used when a configuration does not override it.
DEFAULT_TECHNOLOGY = Technology()
