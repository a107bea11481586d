"""Architecture factories: build the multichip systems of the paper.

``build_system`` turns a :class:`~repro.core.config.SystemConfig` into a
fully connected topology (chips + memory stacks + the architecture's
inter-die links), a router over that topology, and the bookkeeping needed by
experiments (WI count, area overhead, off-chip link inventory).

The inter-die interconnect of each architecture is applied by its
*overlay builder*, looked up by the configured
:class:`~repro.core.config.Architecture` in ``_OVERLAYS``; a new
architecture is one more enum member and one more entry in that table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from ..energy.technology import WIRELESS_TRANSCEIVER_AREA_MM2
from ..routing import BaseRouter, ShortestPathRouter
from ..topology import (
    LinkSpec,
    MultichipSystem,
    TopologyGraph,
    apply_interposer_overlay,
    apply_substrate_overlay,
    apply_wireless_overlay,
    build_multichip_base,
)
from .config import Architecture, SystemConfig


@dataclass
class BuiltSystem:
    """A constructed multichip system ready to simulate."""

    config: SystemConfig
    multichip: MultichipSystem
    router: BaseRouter

    @property
    def topology(self) -> TopologyGraph:
        """The topology graph of the system."""
        return self.multichip.graph

    @property
    def name(self) -> str:
        """Paper-style configuration name."""
        return self.config.name

    @property
    def num_cores(self) -> int:
        """Total number of core endpoints."""
        return len(self.topology.cores)

    @property
    def num_wireless_interfaces(self) -> int:
        """Number of deployed WIs (0 for the wired architectures)."""
        return len(self.topology.wireless_switches)

    def wireless_area_overhead_mm2(self) -> float:
        """Total active-area overhead of the deployed transceivers [mm^2].

        The paper reports "negligible active area overhead of 0.3 mm^2 per
        transceiver"; this is the total for the system.
        """
        return self.num_wireless_interfaces * WIRELESS_TRANSCEIVER_AREA_MM2

    def link_inventory(self) -> Dict[str, int]:
        """Number of links of each kind (useful in reports and tests)."""
        inventory: Dict[str, int] = {}
        for link in self.topology.links:
            inventory[link.kind.value] = inventory.get(link.kind.value, 0) + 1
        return inventory

    def offchip_link_count(self) -> int:
        """Number of links crossing a die boundary."""
        return len(self.topology.inter_region_links())


# ----------------------------------------------------------------------
# Overlay builders.
# ----------------------------------------------------------------------

#: Overlay-builder signature: add the architecture's inter-die interconnect
#: to ``multichip``'s graph, in place, and return the links it created.
OverlayBuilder = Callable[[MultichipSystem, SystemConfig], List[LinkSpec]]

_OVERLAYS: Dict[Architecture, OverlayBuilder] = {
    Architecture.SUBSTRATE: apply_substrate_overlay,
    Architecture.INTERPOSER: apply_interposer_overlay,
    Architecture.WIRELESS: apply_wireless_overlay,
}


def build_system(config: SystemConfig) -> BuiltSystem:
    """Construct the topology and router for one system configuration.

    The router is a :class:`~repro.routing.ShortestPathRouter` over the
    built topology.
    """
    multichip = build_multichip_base(
        num_chips=config.num_chips,
        cores_per_chip=config.cores_per_chip,
        num_memory_stacks=config.num_memory_stacks,
        vaults_per_stack=config.vaults_per_stack,
        total_processing_area_mm2=config.total_processing_area_mm2,
    )

    _OVERLAYS[config.architecture](multichip, config)

    multichip.graph.validate()
    router = ShortestPathRouter(multichip.graph)
    return BuiltSystem(config=config, multichip=multichip, router=router)
