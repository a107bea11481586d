"""The wormhole/VC switch model.

Each switch is a three-stage pipelined wormhole router [18] with 8 VCs of
16 flits on every input port.  The pipeline latency is folded into the link
characterisation (see :mod:`repro.noc.link`); the switch object holds the
structural state — ports, VC buffers, arbitration pointers — and the small
amount of per-cycle logic that does not need a global view (the output port
towards a neighbour).  Round-robin arbitration runs inline in the kernel's
allocation pass (:meth:`repro.noc.kernel.KernelState.allocate`).

A switch keeps three tables, each filled as the network builder adds
ports: ``input_ports``, its input ports in construction order (local port
first, then neighbours in link-construction order, then the WI port);
``output_ports``, its output ports keyed by neighbour switch id (or
``"local"`` / ``"wi"``), which neighbour lookups read; and
``vc_by_ordinal``, every VC of the input ports indexed by its switch-wide
ordinal, which the kernel reads when it visits the occupied VCs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..topology.graph import SwitchSpec
from .link import LinkCharacteristics
from .port import LOCAL_PORT, WIRELESS_PORT, InputPort, OutputPort
from .virtual_channel import VirtualChannel


class SwitchConfigError(ValueError):
    """Raised when a switch is built or used inconsistently."""


class Switch:
    """One NoC switch instance in the simulator."""

    def __init__(
        self,
        spec: SwitchSpec,
        num_vcs: int,
        buffer_depth: int,
        injection_width: int = 1,
        ejection_width: int = 1,
    ) -> None:
        self.spec = spec
        self.switch_id = spec.switch_id
        self.num_vcs = num_vcs
        self.buffer_depth = buffer_depth
        self.injection_width = max(1, injection_width)
        #: Input ports in construction order.
        self.input_ports: List[InputPort] = []
        #: Output ports keyed by neighbour switch id (or port key).
        self.output_ports: Dict[object, OutputPort] = {}
        #: Ordinal -> VC table (``vc_by_ordinal[vc.ordinal] is vc``): the VCs
        #: of the input ports in construction order.
        self.vc_by_ordinal: List[VirtualChannel] = []
        #: Modulus of the round-robin rank arithmetic (the switch's VC
        #: count), kept current as input ports are added.
        self.rr_modulus = 1

        self.local_input = self._add_input_port(LOCAL_PORT, buffer_depth)
        self.ejection_port = OutputPort(
            self,
            LOCAL_PORT,
            link=None,
            is_ejection=True,
            width=max(1, ejection_width),
        )
        self.output_ports[LOCAL_PORT] = self.ejection_port
        self.wireless_input: Optional[InputPort] = None
        self.wireless_output: Optional[OutputPort] = None
        #: Endpoint ids attached to this switch (filled by the network builder).
        self.endpoints: List[int] = []
        #: Ordinals of the VCs currently holding at least one flit.  Every
        #: buffer transition (0 -> 1 flit, last flit out) updates this set,
        #: so the allocation phase visits exactly the occupied VCs — in
        #: ascending ordinal order, which equals the historical full-table
        #: scan order — instead of scanning every (mostly empty) buffer.
        self.occupied: set = set()

    # ------------------------------------------------------------------
    # Construction (called by the network builder).
    # ------------------------------------------------------------------

    def _add_input_port(self, key, buffer_depth: Optional[int] = None) -> InputPort:
        if any(port.key == key for port in self.input_ports):
            raise SwitchConfigError(f"switch {self.switch_id} already has input port {key!r}")
        depth = buffer_depth if buffer_depth is not None else self.buffer_depth
        vcs = self.vc_by_ordinal
        port = InputPort(self, key, self.num_vcs, depth, len(vcs))
        vcs.extend(port.vcs)
        self.rr_modulus = len(vcs)
        self.input_ports.append(port)
        return port

    def add_wired_port(
        self,
        neighbor_switch_id: int,
        link: LinkCharacteristics,
    ) -> Tuple[InputPort, OutputPort]:
        """Add the input/output port pair facing a wired neighbour.

        The output port's downstream input port is wired up by the network
        builder once the neighbour's ports exist.
        """
        input_port = self._add_input_port(neighbor_switch_id)
        output_port = OutputPort(
            self,
            neighbor_switch_id,
            link=link,
            downstream_switch=neighbor_switch_id,
        )
        self.output_ports[neighbor_switch_id] = output_port
        return input_port, output_port

    def add_wireless_port(
        self,
        link: LinkCharacteristics,
        buffer_depth: Optional[int] = None,
    ) -> Tuple[InputPort, OutputPort]:
        """Add the WI port pair (shared by all wireless destinations)."""
        if self.wireless_input is not None:
            raise SwitchConfigError(f"switch {self.switch_id} already has a wireless port")
        self.wireless_input = self._add_input_port(WIRELESS_PORT, buffer_depth)
        self.wireless_output = OutputPort(
            self,
            WIRELESS_PORT,
            link=link,
            is_wireless=True,
        )
        self.output_ports[WIRELESS_PORT] = self.wireless_output
        return self.wireless_input, self.wireless_output

    # ------------------------------------------------------------------
    # Per-cycle helpers used by the engine.
    # ------------------------------------------------------------------

    @property
    def has_wireless(self) -> bool:
        """Whether this switch carries a wireless interface."""
        return self.wireless_output is not None

    def output_towards(self, next_switch_id: int) -> OutputPort:
        """The output port a packet must take to reach ``next_switch_id``.

        A wired port keyed by the neighbour id wins over the wireless port;
        if no wired port exists the hop must be a wireless one.
        """
        port = self.output_ports.get(next_switch_id)
        if port is not None:
            return port
        if self.wireless_output is not None:
            return self.wireless_output
        raise SwitchConfigError(
            f"switch {self.switch_id} has no port towards switch {next_switch_id}"
        )

    # The per-WI pending scan the MAC protocols plan from lives on the
    # wireless fabric (:meth:`repro.noc.fabric.WirelessFabric.scan_pending`):
    # it reads this switch's occupied-VC ordinal set and the packet pool's
    # parallel arrays directly, so the switch needs no wireless-specific
    # per-cycle logic of its own.

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Switch(id={self.switch_id}, region={self.spec.region_id}, "
            f"ports={list(self.output_ports)!r})"
        )
