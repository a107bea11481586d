"""Simulator-level configuration.

Groups every knob of the cycle-accurate model with the defaults used in the
paper's evaluation (Section IV): 8 VCs x 16-flit buffers on every port,
64-flit packets of 32-bit flits, three-stage switches clocked at 2.5 GHz.
The wireless-specific entries are the calibration knobs discussed in
DESIGN.md section 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .pool import MAX_PACKET_LENGTH_FLITS
from ..wireless.mac.registry import UnknownMacError, mac_spec
from ..energy.technology import (
    DEFAULT_PACKET_LENGTH_FLITS,
    DEFAULT_TECHNOLOGY,
    DEFAULT_VC_BUFFER_DEPTH_FLITS,
    DEFAULT_VIRTUAL_CHANNELS,
    MAC_CONTROL_PACKET_BITS,
    SWITCH_PIPELINE_STAGES,
    TOKEN_PASS_LATENCY_CYCLES,
    Technology,
)


@dataclass(frozen=True)
class WirelessConfig:
    """Configuration of the wireless channel, transceivers and MAC."""

    #: MAC protocol, any name from the MAC registry
    #: (:func:`repro.wireless.mac.available_macs`): ``"control_packet"``
    #: (the paper's proposal), ``"token"`` (the baseline token-passing MAC
    #: of [7]), ``"tdma"`` (static slotted schedule) or ``"fdma"``
    #: (per-WI dedicated sub-bands).
    mac: str = "control_packet"
    #: Number of orthogonal frequency channels the WIs are divided over.
    #: One 16 GHz-wide channel is the paper's literal physical layer; the
    #: multichip experiments use several channels so the aggregate wireless
    #: bisection is comparable to the interposer baseline (DESIGN.md §4).
    #:
    #: WIs are assigned round-robin in id order, which interleaves the WIs of
    #: different chips over different channels so that chip pairs
    #: communicating heavily do not all contend on one channel.  A channel
    #: left without a WI gets no MAC.
    #:
    #: Note that two WIs can only exchange flits when they share a channel, so
    #: the routing layer must be aware of the assignment when ``num_channels``
    #: exceeds 1.  The simulator sidesteps this by treating the channel
    #: assignment as a *time/frequency slicing of the shared medium*: every WI
    #: can reach every other WI, but at most ``num_channels`` transmissions are
    #: in the air simultaneously.  This models a multi-band transceiver front
    #: end and is the calibration point discussed in DESIGN.md section 4.
    num_channels: int = 6
    #: ``cycles_per_flit`` is the number of clock cycles the channel is
    #: occupied per transferred flit.  The physical transceiver sustains
    #: 16 Gb/s, i.e. 5 network cycles per 32-bit flit; the authors' simulator
    #: (like the WiNoC simulators it builds on [6][7][11]) services the
    #: wireless port at flit granularity, so the default here is 1.  See
    #: DESIGN.md section 4.
    cycles_per_flit: int = 1
    #: Extra latency of a wireless hop beyond the switch pipeline.
    extra_latency_cycles: int = 1
    #: Cycles needed to broadcast one MAC control packet.
    control_packet_cycles: int = 3
    #: Bits of one MAC control packet (energy accounting).
    control_packet_bits: int = MAC_CONTROL_PACKET_BITS
    #: Maximum (DestWI, PktID, NumFlits) tuples per control packet; bounded
    #: by the number of output VCs of the transmitting WI.
    max_control_tuples: int = DEFAULT_VIRTUAL_CHANNELS
    #: Token hand-off latency of the baseline token MAC.
    token_pass_latency_cycles: int = TOKEN_PASS_LATENCY_CYCLES
    #: Slot length of the static TDMA MAC [cycles]; ``None`` sizes the slot
    #: to one packet's serialisation time.
    tdma_slot_cycles: Optional[int] = None
    #: Guard (synchronisation) time at the start of every TDMA slot.
    tdma_guard_cycles: int = 1
    #: Whether receivers not addressed by the current control packet are
    #: power-gated ("sleepy transceivers" [17]).
    sleepy_receivers: bool = True
    #: WI input-buffer depth override.  ``None`` keeps the normal per-VC
    #: depth; the token MAC needs whole-packet buffering and therefore
    #: defaults to the packet length when left unset.
    wi_buffer_depth_flits: Optional[int] = None

    def __post_init__(self) -> None:
        try:
            mac_spec(self.mac)
        except UnknownMacError as error:
            raise ValueError(str(error)) from None
        if self.num_channels <= 0:
            raise ValueError("num_channels must be positive")
        if self.cycles_per_flit <= 0:
            raise ValueError("cycles_per_flit must be positive")
        if self.extra_latency_cycles < 0:
            raise ValueError("extra_latency_cycles must be non-negative")
        if self.control_packet_cycles <= 0:
            raise ValueError("control_packet_cycles must be positive")
        if self.control_packet_bits < 0:
            raise ValueError("control_packet_bits must be non-negative")
        if self.max_control_tuples <= 0:
            raise ValueError("max_control_tuples must be positive")
        if self.tdma_slot_cycles is not None and self.tdma_slot_cycles <= 0:
            raise ValueError("tdma_slot_cycles must be positive")
        if self.wi_buffer_depth_flits is not None and self.wi_buffer_depth_flits <= 0:
            raise ValueError("wi_buffer_depth_flits must be positive")
        if self.tdma_guard_cycles < 0:
            raise ValueError("tdma_guard_cycles must be non-negative")
        if (
            self.tdma_slot_cycles is not None
            and self.tdma_guard_cycles >= self.tdma_slot_cycles
        ):
            raise ValueError(
                "tdma_guard_cycles must be smaller than tdma_slot_cycles "
                f"(got guard={self.tdma_guard_cycles}, "
                f"slot={self.tdma_slot_cycles})"
            )


@dataclass(frozen=True)
class NetworkConfig:
    """Configuration of switches, buffers, packets and the wireless layer."""

    virtual_channels: int = DEFAULT_VIRTUAL_CHANNELS
    buffer_depth_flits: int = DEFAULT_VC_BUFFER_DEPTH_FLITS
    packet_length_flits: int = DEFAULT_PACKET_LENGTH_FLITS
    switch_pipeline_stages: int = SWITCH_PIPELINE_STAGES
    #: Flits a core switch can inject per cycle from its local endpoints.
    injection_width_flits: int = 1
    #: Flits a switch can eject per cycle per attached endpoint.
    ejection_width_per_endpoint: int = 1
    wireless: WirelessConfig = field(default_factory=WirelessConfig)
    technology: Technology = field(default_factory=lambda: DEFAULT_TECHNOLOGY)
    #: Whether static energy is included in average packet energy.
    include_static_energy: bool = True

    def __post_init__(self) -> None:
        if self.virtual_channels <= 0:
            raise ValueError("virtual_channels must be positive")
        if self.buffer_depth_flits <= 0:
            raise ValueError("buffer_depth_flits must be positive")
        if self.packet_length_flits <= 0:
            raise ValueError("packet_length_flits must be positive")
        if self.switch_pipeline_stages <= 0:
            raise ValueError("switch_pipeline_stages must be positive")
        if self.packet_length_flits > MAX_PACKET_LENGTH_FLITS:
            # The packed flit representation reserves FLIT_INDEX_BITS for
            # the flit index; reject oversized packets at configuration
            # time instead of mid-run at the first enqueue.
            raise ValueError(
                "packet_length_flits must be at most "
                f"{MAX_PACKET_LENGTH_FLITS} (the packed flit index "
                f"ceiling), got {self.packet_length_flits}"
            )
        if self.injection_width_flits <= 0:
            raise ValueError("injection_width_flits must be positive")
        if self.ejection_width_per_endpoint <= 0:
            raise ValueError("ejection_width_per_endpoint must be positive")
        if self.wireless.mac == "tdma" and self.wireless.tdma_slot_cycles is None:
            # The default TDMA slot is one packet's serialisation time; the
            # guard must fit inside it, and only this config object knows
            # the packet length — fail here, not at fabric construction.
            derived_slot = self.packet_length_flits * self.wireless.cycles_per_flit
            if self.wireless.tdma_guard_cycles >= derived_slot:
                raise ValueError(
                    "tdma_guard_cycles must be smaller than the derived "
                    f"TDMA slot of {derived_slot} cycle(s) "
                    "(packet_length_flits x cycles_per_flit); set "
                    "tdma_slot_cycles explicitly for longer slots"
                )

    @property
    def wi_buffer_depth(self) -> int:
        """Effective per-VC buffer depth at switches carrying a WI.

        MACs that only transmit whole packets (the registry spec's
        ``whole_packet_buffering`` flag — the token MAC) force their WIs to
        buffer an entire packet (Section III-D); partial-packet MACs need
        far less — two normal buffer windows are enough to keep the channel
        streaming between consecutive bursts.
        """
        if self.wireless.wi_buffer_depth_flits is not None:
            return self.wireless.wi_buffer_depth_flits
        if mac_spec(self.wireless.mac).whole_packet_buffering:
            return max(self.buffer_depth_flits, self.packet_length_flits)
        return 2 * self.buffer_depth_flits
