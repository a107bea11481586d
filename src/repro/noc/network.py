"""Instantiation of the simulator network from a topology graph.

``Network`` turns the structural :class:`~repro.topology.graph.TopologyGraph`
into live simulator objects: one :class:`~repro.noc.switch.Switch` per
topology switch, characterised links wired between their ports, and one
:class:`~repro.noc.fabric.Fabric` per transmission medium — a
:class:`~repro.noc.fabric.WiredFabric` behind every wired output port and,
when the topology deploys wireless interfaces, a
:class:`~repro.noc.fabric.WirelessFabric` that owns the shared-medium state
(channel assignment, MAC instances, transceiver power states).  Every
output port carries a reference to its fabric, so the simulation kernel
addresses all media uniformly.

A ``Network`` holds mutable per-run state (buffers, arbitration pointers,
transceiver residency), and building one costs thousands of VC objects.
:meth:`Network.reset` returns every piece of that state to its as-built
value in place and builds a fresh wireless fabric, so one network serves
many runs of the same topology: the simulation engine resets the network
it is handed before each run, and builds a fresh one only when it is
handed none.  The wireless fabric is built for the configuration the reset
is given, so runs whose :class:`~repro.noc.config.NetworkConfig` differ only
in the fabric's fields (MAC, channel count, sleepy receivers) share one
network: :meth:`Network.build_key` lists the fields the constructor reads,
and the runner's build memo keys networks by it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..energy import switch_static_power_mw
from ..topology.graph import LinkKind, LinkSpec, SwitchKind, TopologyGraph
from .config import NetworkConfig
from .fabric import Fabric, WiredFabric, WirelessFabric
from .link import characterize_link
from .switch import Switch


class NetworkBuildError(ValueError):
    """Raised when the topology cannot be instantiated as a network."""


class Network:
    """The instantiated simulator network."""

    @staticmethod
    def build_key(config: NetworkConfig) -> Tuple:
        """The fields of ``config`` that the constructor reads.

        Everything else configures the wireless fabric, which :meth:`reset`
        rebuilds for each run, so one network serves every configuration
        with the same key.  Edit this list with the constructor.
        """
        wireless = config.wireless
        return (
            config.virtual_channels,
            config.buffer_depth_flits,
            config.wi_buffer_depth,
            config.injection_width_flits,
            config.ejection_width_per_endpoint,
            config.switch_pipeline_stages,
            config.technology,
            wireless.cycles_per_flit,
            wireless.extra_latency_cycles,
        )

    def __init__(self, topology: TopologyGraph, config: NetworkConfig) -> None:
        topology.validate()
        self.topology = topology
        self.config = config
        self.switches: Dict[int, Switch] = {}
        self.endpoint_switch: Dict[int, Switch] = {}
        self._static_power_mw = 0.0

        self.wired_fabric = WiredFabric()
        self._build_switches()
        self._build_wired_links()
        self._wi_switches = self._build_wireless_ports()
        self.wireless_fabric: Optional[WirelessFabric] = self._new_wireless_fabric()
        switches = [self.switches[switch_id] for switch_id in sorted(self.switches)]
        #: Every VC of the network, in ascending switch id and ordinal order:
        #: what :meth:`reset` empties and the fault injector's whole-network
        #: walks visit.
        self.vcs = tuple(vc for switch in switches for vc in switch.vc_by_ordinal)
        #: Every output port with its as-built link, in ascending switch id
        #: and construction order: :meth:`reset` restores them (fault
        #: injection degrades ports by replacing their link).
        self._built_links = tuple(
            (port, port.link) for switch in switches for port in switch.output_ports.values()
        )
        self._profile_power()

    # ------------------------------------------------------------------
    # Construction.
    # ------------------------------------------------------------------

    def _build_switches(self) -> None:
        for spec in self.topology.switches:
            endpoints = self.topology.endpoints_at(spec.switch_id)
            buffer_depth = (
                self.config.wi_buffer_depth
                if spec.has_wireless
                else self.config.buffer_depth_flits
            )
            switch = Switch(
                spec,
                num_vcs=self.config.virtual_channels,
                buffer_depth=buffer_depth,
                injection_width=max(
                    self.config.injection_width_flits,
                    self.config.injection_width_flits * max(1, len(endpoints))
                    if spec.kind == SwitchKind.MEMORY
                    else self.config.injection_width_flits,
                ),
                ejection_width=max(1, len(endpoints))
                * self.config.ejection_width_per_endpoint,
            )
            switch.endpoints = [e.endpoint_id for e in endpoints]
            self.switches[spec.switch_id] = switch
            for endpoint in endpoints:
                self.endpoint_switch[endpoint.endpoint_id] = switch

    def _build_wired_links(self) -> None:
        for link in self.topology.links:
            if link.kind == LinkKind.WIRELESS:
                continue
            characteristics = characterize_link(link, self.config)
            src_switch = self.switches[link.src]
            dst_switch = self.switches[link.dst]
            src_in, src_out = src_switch.add_wired_port(link.dst, characteristics)
            dst_in, dst_out = dst_switch.add_wired_port(link.src, characteristics)
            src_out.downstream_port = dst_in
            dst_out.downstream_port = src_in
            src_out.fabric = self.wired_fabric
            dst_out.fabric = self.wired_fabric

    def _build_wireless_ports(self) -> List[Switch]:
        wireless_specs = self.topology.wireless_switches
        if not wireless_specs:
            return []
        pseudo_link = LinkSpec(link_id=-1, src=-1, dst=-2, kind=LinkKind.WIRELESS, length_mm=0.0)
        characteristics = characterize_link(pseudo_link, self.config)
        wi_switches = []
        for spec in wireless_specs:
            switch = self.switches[spec.switch_id]
            switch.add_wireless_port(characteristics, buffer_depth=self.config.wi_buffer_depth)
            wi_switches.append(switch)
        return wi_switches

    def _new_wireless_fabric(self) -> Optional[WirelessFabric]:
        """A fresh shared medium (MACs, transceivers) behind the WI ports."""
        if not self._wi_switches:
            return None
        fabric = WirelessFabric(self._wi_switches, self.config)
        for switch in self._wi_switches:
            switch.wireless_output.fabric = fabric
        return fabric

    def _profile_power(self) -> None:
        total = 0.0
        for switch in self.switches.values():
            total += switch_static_power_mw(
                self.config.technology,
                num_ports=max(1, len(switch.output_ports)),
                virtual_channels=self.config.virtual_channels,
                buffer_depth_flits=switch.buffer_depth,
            )
        self._static_power_mw = total

    # ------------------------------------------------------------------
    # Reuse across runs.
    # ------------------------------------------------------------------

    def reset(self, config: Optional[NetworkConfig] = None) -> None:
        """Return all per-run state to its as-built value, in place.

        Empties every VC and occupied set, rewinds every output port's
        channel occupancy and round-robin pointer, restores the as-built
        link of every port a fault degraded, returns failed wired hops to
        service, and replaces the wireless fabric with a fresh one (new
        MACs, transceivers and channel counters; dead WIs revived).

        ``config`` (by default the current one) becomes the network's
        configuration, and the new wireless fabric is built for it; it must
        have the same :meth:`build_key` as the configuration the network
        was built with.  A reset network is indistinguishable from one
        newly built with ``config`` (``tests/test_build_memo.py``), and the
        reset allocates nothing per VC.
        """
        if config is not None:
            if self.build_key(config) != self.build_key(self.config):
                raise NetworkBuildError(
                    "a network resets only to a configuration with the same "
                    "build fields (Network.build_key) as its own"
                )
            self.config = config
        for switch in self.switches.values():
            switch.occupied.clear()
        for vc in self.vcs:
            vc.reset()
        for port, link in self._built_links:
            port.link = link
            port.busy_until = 0
            port.rr_pointer = 0
        self.wired_fabric.clear_failures()
        self._drop_wireless_fabric()
        self.wireless_fabric = self._new_wireless_fabric()

    def _drop_wireless_fabric(self) -> None:
        """Cut the MACs' back references to the wireless fabric.

        The fabric and its MACs point at each other; cut, the dropped
        fabric (and the switches it holds) is freed by reference counting
        as soon as nothing else refers to it.
        """
        if self.wireless_fabric is not None:
            for mac in self.wireless_fabric.macs:
                mac.plane = None
            self.wireless_fabric = None

    def dispose(self) -> None:
        """Break the network's reference cycles; it is unusable afterwards.

        Switches, ports, VCs and the wireless fabric's MACs point back at
        each other, so a dropped network is cyclic garbage that only a full
        pass of the cycle collector frees.  A holder that drops networks
        one after another (the runner's memo) calls this first, and
        reference counting then frees the network as soon as it is dropped.
        """
        for vc in self.vcs:
            vc.reset()
            vc.port.switch = None
            vc.port = None
        for port, _ in self._built_links:
            port.switch = None
            port.fabric = None
        self._drop_wireless_fabric()

    # ------------------------------------------------------------------
    # Queries used by the engine and by experiments.
    # ------------------------------------------------------------------

    @property
    def fabrics(self) -> List[Fabric]:
        """All transmission media of the network, wired fabric first."""
        media: List[Fabric] = [self.wired_fabric]
        if self.wireless_fabric is not None:
            media.append(self.wireless_fabric)
        return media

    @property
    def switch_dynamic_energy_pj_per_flit(self) -> float:
        """Per-flit dynamic energy of one switch traversal."""
        return self.config.technology.switch_dynamic_energy_pj_per_flit

    @property
    def total_switch_static_power_mw(self) -> float:
        """Summed static power of all switches in the system."""
        return self._static_power_mw

    def switch_for_endpoint(self, endpoint_id: int) -> Switch:
        """The switch an endpoint is attached to."""
        try:
            return self.endpoint_switch[endpoint_id]
        except KeyError:
            raise NetworkBuildError(f"unknown endpoint {endpoint_id}") from None

    def total_buffered_flits(self) -> int:
        """Flits currently buffered anywhere in the network."""
        return sum(vc.count for vc in self.vcs)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        wireless = len(self.wireless_fabric.wi_switch_ids) if self.wireless_fabric else 0
        return (
            f"Network(switches={len(self.switches)}, "
            f"endpoints={len(self.endpoint_switch)}, wireless_interfaces={wireless})"
        )
