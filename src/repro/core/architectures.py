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
from typing import Callable, Dict

from ..routing import BaseRouter, ShortestPathRouter
from ..topology import (
    InterposerOverlayConfig,
    MultichipSystem,
    SubstrateOverlayConfig,
    TopologyGraph,
    WirelessOverlayConfig,
    apply_interposer_overlay,
    apply_substrate_overlay,
    apply_wireless_overlay,
    build_multichip_base,
    wireless_area_overhead_mm2,
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
        """Total transceiver area overhead of the system [mm^2]."""
        return wireless_area_overhead_mm2(self.topology)

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

#: Overlay-builder signature: mutate ``multichip`` in place so its graph
#: carries the architecture's inter-die interconnect.
OverlayBuilder = Callable[[MultichipSystem, SystemConfig], None]


def _apply_substrate(multichip: MultichipSystem, config: SystemConfig) -> None:
    apply_substrate_overlay(
        multichip,
        SubstrateOverlayConfig(
            serial_links_per_boundary=config.substrate_serial_links,
            wide_io_links_per_stack=config.wide_io_links_per_stack,
        ),
    )


def _apply_interposer(multichip: MultichipSystem, config: SystemConfig) -> None:
    apply_interposer_overlay(
        multichip,
        InterposerOverlayConfig(
            links_per_boundary=config.interposer_links_per_boundary,
            wide_io_links_per_stack=config.wide_io_links_per_stack,
        ),
    )


def _apply_wireless(multichip: MultichipSystem, config: SystemConfig) -> None:
    apply_wireless_overlay(
        multichip,
        WirelessOverlayConfig(cores_per_wi=config.cores_per_wi),
    )


_OVERLAYS: Dict[Architecture, OverlayBuilder] = {
    Architecture.SUBSTRATE: _apply_substrate,
    Architecture.INTERPOSER: _apply_interposer,
    Architecture.WIRELESS: _apply_wireless,
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
