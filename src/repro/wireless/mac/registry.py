"""MAC protocol registry: construct channel-arbitration protocols by name.

Mirrors the traffic and architecture registries (PR 2): a MAC protocol
plugs in with one decorator —

::

    @register_mac("my-mac", description="...", whole_packet_buffering=False)
    def _build_my_mac(context: MacBuildContext) -> MacProtocol:
        return MyMac(context.channel_id, context.wi_switch_ids, context.plane)

— and is then selectable everywhere a MAC name appears: the
``WirelessConfig.mac`` field, the experiment CLI's ``--mac`` flag, and the
``fig8_mac_study`` sweep.  ``whole_packet_buffering`` declares whether the
protocol only transmits whole packets (the token MAC's rule), which drives
the WI buffer sizing in :meth:`repro.noc.config.NetworkConfig.wi_buffer_depth`.

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
    """Raised when a MAC protocol name is not registered."""


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
    """A registered MAC protocol: factory plus scheduling metadata."""

    name: str
    factory: MacFactory
    description: str
    #: Whether the protocol only transmits whole packets, requiring the WI
    #: input buffers to hold an entire packet (Section III-D's buffer
    #: argument against the token MAC).
    whole_packet_buffering: bool = False
    #: Whether the protocol announces per-burst destinations, enabling
    #: receiver power gating ("sleepy transceivers" [17]).  Drives the
    #: transceiver ``power_gating`` wiring in the wireless fabric.
    supports_sleepy_receivers: bool = False


_MACS: Dict[str, MacSpec] = {}


def register_mac(
    name: str,
    description: str = "",
    whole_packet_buffering: bool = False,
    supports_sleepy_receivers: bool = False,
) -> Callable[[MacFactory], MacFactory]:
    """Decorator that registers a MAC factory under a name."""

    def decorator(factory: MacFactory) -> MacFactory:
        if name in _MACS:
            raise ValueError(f"MAC protocol {name!r} is already registered")
        _MACS[name] = MacSpec(
            name=name,
            factory=factory,
            description=description,
            whole_packet_buffering=whole_packet_buffering,
            supports_sleepy_receivers=supports_sleepy_receivers,
        )
        return factory

    return decorator


def mac_spec(name: str) -> MacSpec:
    """Look up the spec registered under ``name``."""
    try:
        return _MACS[name]
    except KeyError:
        known = ", ".join(sorted(_MACS))
        raise UnknownMacError(
            f"unknown MAC protocol {name!r}; known protocols: {known}"
        ) from None


def create_mac(name: str, context: MacBuildContext) -> MacProtocol:
    """Build one channel's protocol instance by registered name."""
    return mac_spec(name).factory(context)


def available_macs() -> List[str]:
    """All registered MAC protocol names, sorted."""
    return sorted(_MACS)


# ----------------------------------------------------------------------
# Built-in protocols.
# ----------------------------------------------------------------------


@register_mac(
    "token",
    description="baseline token passing, whole-packet transmissions [7]",
    whole_packet_buffering=True,
)
def _build_token(context: MacBuildContext) -> MacProtocol:
    wireless = context.wireless
    return TokenMac(
        context.channel_id,
        list(context.wi_switch_ids),
        plane=context.plane,
        token_pass_latency_cycles=wireless.token_pass_latency_cycles,
        max_hold_cycles=4 * context.packet_length_flits * wireless.cycles_per_flit + 64,
    )


@register_mac(
    "control_packet",
    description="the paper's control-packet MAC with partial packets (Section III-D)",
    supports_sleepy_receivers=True,
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


@register_mac(
    "tdma",
    description="static slotted schedule with a per-slot guard time",
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


@register_mac(
    "fdma",
    description="per-WI dedicated sub-bands (cycle-interleaved frequency division)",
)
def _build_fdma(context: MacBuildContext) -> MacProtocol:
    return FdmaMac(
        context.channel_id,
        list(context.wi_switch_ids),
        plane=context.plane,
    )
