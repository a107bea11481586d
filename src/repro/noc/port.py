"""Switch ports.

Each switch has one bidirectional port per attached link plus a local
(injection/ejection) port; switches carrying a wireless interface have one
additional port connected to the WI transceiver (Section III-C: "The WIs
have an additional port equipped with the wireless transceivers to access
the wireless channel").

Input ports own the VC buffers; output ports own the channel occupancy state
(``busy_until``) and, for wired links, a fixed reference to the downstream
input port.  The wireless output port has no fixed downstream — the
destination WI differs per packet — so its downstream is resolved per packet
by the simulator via the wireless fabric.

A port's ``key`` names what it faces: the neighbour switch id of a wired
port, ``"local"`` or ``"wi"``.  Its switch keeps it in a list (input ports)
or under that key (output ports); the kernel holds direct references to
ports and VCs and never looks a port up by key on the per-flit path.
"""

from __future__ import annotations

from typing import List, Optional, TYPE_CHECKING

from .link import LinkCharacteristics
from .virtual_channel import VirtualChannel

if TYPE_CHECKING:  # pragma: no cover
    from .switch import Switch

#: Port key of the local (injection/ejection) port.
LOCAL_PORT = "local"
#: Port key of the wireless-interface port.
WIRELESS_PORT = "wi"


class InputPort:
    """An input port with its virtual-channel buffers."""

    __slots__ = ("switch", "key", "vcs")

    def __init__(
        self,
        switch: "Switch",
        key,
        num_vcs: int,
        buffer_depth: int,
        ordinal_base: int,
    ) -> None:
        if num_vcs <= 0:
            raise ValueError(f"num_vcs must be positive, got {num_vcs}")
        self.switch = switch
        self.key = key
        self.vcs: List[VirtualChannel] = [
            VirtualChannel(self, i, ordinal_base + i, buffer_depth)
            for i in range(num_vcs)
        ]

    def find_vc_for_packet(self, packet_id: int) -> Optional[VirtualChannel]:
        """The VC currently owned by ``packet_id``, if any."""
        for vc in self.vcs:
            if vc.allocated_packet_id == packet_id:
                return vc
        return None

    def find_free_vc(self) -> Optional[VirtualChannel]:
        """An unallocated, empty VC, if any."""
        for vc in self.vcs:
            if vc.allocated_packet_id is None and vc.count == 0 and vc.in_flight == 0:
                return vc
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"InputPort(switch={self.switch.switch_id}, key={self.key!r})"


class OutputPort:
    """An output port driving one link (or the local ejection path)."""

    __slots__ = (
        "switch",
        "key",
        "link",
        "fabric",
        "downstream_switch",
        "downstream_port",
        "busy_until",
        "rr_pointer",
        "is_ejection",
        "is_wireless",
        "width",
        "request_scratch",
    )

    def __init__(
        self,
        switch: "Switch",
        key,
        link: Optional[LinkCharacteristics],
        downstream_switch: Optional[int] = None,
        downstream_port: Optional[InputPort] = None,
        is_ejection: bool = False,
        is_wireless: bool = False,
        width: int = 1,
    ) -> None:
        if width <= 0:
            raise ValueError(f"width must be positive, got {width}")
        self.switch = switch
        self.key = key
        self.link = link
        #: The :class:`~repro.noc.fabric.Fabric` this port transmits over
        #: (set by the network builder; ``None`` for ejection ports, whose
        #: flits leave the network instead of traversing a fabric).
        self.fabric = None
        self.downstream_switch = downstream_switch
        self.downstream_port = downstream_port
        self.busy_until = 0
        self.rr_pointer = 0
        self.is_ejection = is_ejection
        self.is_wireless = is_wireless
        #: Flits the port can move per cycle (ejection ports of memory-stack
        #: switches serve several vaults concurrently).
        self.width = width
        #: Per-cycle allocation scratch: the VCs requesting this port in the
        #: current allocation visit.  Living on the port (instead of a dict
        #: keyed by port objects) keeps the inner loop free of hashing; the
        #: kernel clears it before leaving the switch.
        self.request_scratch: List[VirtualChannel] = []

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"OutputPort(switch={self.switch.switch_id}, key={self.key!r}, "
            f"wireless={self.is_wireless}, ejection={self.is_ejection})"
        )
