"""MAC protocols by name: channel-arbitration protocols from a table.

Like the traffic patterns and the fault scenarios, a MAC protocol is one
entry in :data:`MACS` — a :class:`MacSpec` holding its factory and its
scheduling metadata — and is then selectable everywhere a MAC name
appears: the ``WirelessConfig.mac`` field, the experiment CLI's ``--mac``
flag, and the ``fig8_mac_study`` sweep.  ``whole_packet_buffering``
declares whether the protocol only transmits whole packets (the token
MAC's rule), which drives the WI buffer sizing in
:meth:`repro.noc.config.NetworkConfig.wi_buffer_depth`.

The factory receives one :class:`MacBuildContext` per wireless channel, so
multi-channel systems get independent protocol instances with their own
state and statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, TYPE_CHECKING

from .base import MacDataPlane, MacProtocol
from .control_packet import ControlPacketMac
from .fdma import FdmaMac
from .tdma import TdmaMac
from .token import TokenMac

if TYPE_CHECKING:  # pragma: no cover
    from ...noc.config import WirelessConfig


class UnknownMacError(KeyError):
    """Raised when a MAC protocol name is not in :data:`MACS`."""


@dataclass(frozen=True)
class MacBuildContext:
    """Everything a MAC factory needs to build one channel's instance."""

    #: Index of the wireless channel the instance will arbitrate.
    channel_id: int
    #: The WIs sharing the channel, in fixed sequence order.
    wi_switch_ids: Sequence[int]
    #: The hot data plane the instance reads pending traffic from.
    plane: MacDataPlane
    #: The run's wireless configuration (protocol knobs).
    wireless: "WirelessConfig"
    #: Nominal packet length [flits] (for hold/slot sizing).
    packet_length_flits: int


#: Factory signature: one fully-wired protocol instance per call.
MacFactory = Callable[[MacBuildContext], MacProtocol]


@dataclass(frozen=True)
class MacSpec:
    """A MAC protocol: factory plus scheduling metadata."""

    factory: MacFactory
    #: Whether the protocol only transmits whole packets, requiring the WI
    #: input buffers to hold an entire packet (Section III-D's buffer
    #: argument against the token MAC).
    whole_packet_buffering: bool = False
    #: Whether the protocol announces per-burst destinations, enabling
    #: receiver power gating ("sleepy transceivers" [17]).  Drives the
    #: transceiver ``power_gating`` wiring in the wireless fabric.
    supports_sleepy_receivers: bool = False


# ----------------------------------------------------------------------
# Built-in protocols.
# ----------------------------------------------------------------------


def _build_token(context: MacBuildContext) -> MacProtocol:
    wireless = context.wireless
    return TokenMac(
        context.channel_id,
        list(context.wi_switch_ids),
        plane=context.plane,
        token_pass_latency_cycles=wireless.token_pass_latency_cycles,
        max_hold_cycles=4 * context.packet_length_flits * wireless.cycles_per_flit + 64,
    )


def _build_control_packet(context: MacBuildContext) -> MacProtocol:
    wireless = context.wireless
    return ControlPacketMac(
        context.channel_id,
        list(context.wi_switch_ids),
        plane=context.plane,
        control_packet_cycles=wireless.control_packet_cycles,
        control_packet_bits=wireless.control_packet_bits,
        max_tuples=wireless.max_control_tuples,
        cycles_per_flit=wireless.cycles_per_flit,
    )


def _build_tdma(context: MacBuildContext) -> MacProtocol:
    wireless = context.wireless
    slot_cycles = wireless.tdma_slot_cycles
    if slot_cycles is None:
        # One packet's serialisation time per slot, so a saturated owner can
        # stream a whole packet per rotation without slot fragmentation.
        slot_cycles = context.packet_length_flits * wireless.cycles_per_flit
    return TdmaMac(
        context.channel_id,
        list(context.wi_switch_ids),
        plane=context.plane,
        slot_cycles=slot_cycles,
        guard_cycles=wireless.tdma_guard_cycles,
    )


def _build_fdma(context: MacBuildContext) -> MacProtocol:
    return FdmaMac(
        context.channel_id,
        list(context.wi_switch_ids),
        plane=context.plane,
    )


#: Protocol name -> spec.
MACS: Dict[str, MacSpec] = {
    # Baseline token passing, whole-packet transmissions [7].
    "token": MacSpec(_build_token, whole_packet_buffering=True),
    # The paper's control-packet MAC with partial packets (Section III-D).
    "control_packet": MacSpec(_build_control_packet, supports_sleepy_receivers=True),
    # Static slotted schedule with a per-slot guard time.
    "tdma": MacSpec(_build_tdma),
    # Per-WI dedicated sub-bands (cycle-interleaved frequency division).
    "fdma": MacSpec(_build_fdma),
}


def mac_spec(name: str) -> MacSpec:
    """Look up the spec of the protocol named ``name``."""
    try:
        return MACS[name]
    except KeyError:
        known = ", ".join(available_macs())
        raise UnknownMacError(
            f"unknown MAC protocol {name!r}; known protocols: {known}"
        ) from None


def available_macs() -> List[str]:
    """All MAC protocol names, sorted."""
    return sorted(MACS)
