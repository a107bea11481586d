"""Wireless architecture overlay — ``XCYM (Wireless)``.

Implements the WI deployment strategy of Section III-A: a single WI is
shared by a cluster of cores (the *wireless density* is the number of cores
serviced by one WI), WIs sit at the central switch of each cluster
(minimum-average-distance placement [15]), and every memory stack's base
logic die carries one WI.  All chip-to-chip and memory-to-chip traffic then
uses the shared 60 GHz channel; no wired inter-die links exist in this
architecture.

Wireless links are added pairwise between all WI switches so that graph
algorithms (routing, connectivity checks) see the single-hop reachability;
the simulator maps every wireless link of a switch onto that switch's single
WI port and enforces the shared-medium constraint through the MAC.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .geometry import euclidean_mm
from .graph import LinkKind, LinkSpec, TopologyGraph
from .mesh import cluster_centers
from .multichip import MultichipSystem


@dataclass(frozen=True)
class WirelessOverlayConfig:
    """Parameters of the WI deployment."""

    #: Number of cores serviced by one WI inside each processing chip
    #: ("wireless deployment density of 1WI per 16 cores").
    cores_per_wi: int = 16
    #: Whether every chip gets at least one WI even if it has fewer cores
    #: than ``cores_per_wi`` (required for inter-chip connectivity).
    at_least_one_per_chip: bool = True
    #: Whether memory stacks carry a WI on their base logic die (paper: yes).
    memory_wi: bool = True
    #: Whether wireless links between WIs of the *same* chip are added;
    #: intra-chip traffic may then use the wireless shortcut when it reduces
    #: the path length, as observed for the 1C4M configuration.
    connect_same_region: bool = True


def apply_wireless_overlay(
    system: MultichipSystem,
    config: WirelessOverlayConfig = WirelessOverlayConfig(),
) -> List[LinkSpec]:
    """Deploy WIs and add pairwise wireless links; return created links."""
    if config.cores_per_wi <= 0:
        raise ValueError("cores_per_wi must be positive")

    graph = system.graph

    for chip_index, region_id in enumerate(system.chip_region_ids):
        cores_in_chip = sum(
            len(graph.endpoints_at(s.switch_id))
            for s in graph.switches_in_region(region_id)
        )
        num_wis = cores_in_chip // config.cores_per_wi
        if num_wis == 0 and config.at_least_one_per_chip:
            num_wis = 1
        if num_wis == 0:
            continue
        for switch_id in cluster_centers(graph, region_id, num_wis):
            graph.set_wireless(switch_id, True)

    if config.memory_wi:
        for memory_index in range(system.num_memory_stacks):
            graph.set_wireless(system.memory_switch(memory_index), True)

    return connect_wireless_interfaces(
        graph, connect_same_region=config.connect_same_region
    )


def connect_wireless_interfaces(
    graph: TopologyGraph, connect_same_region: bool = True
) -> List[LinkSpec]:
    """Add a wireless link between every pair of WI switches."""
    created: List[LinkSpec] = []
    wireless = graph.wireless_switches
    for i, first in enumerate(wireless):
        for second in wireless[i + 1 :]:
            if (
                not connect_same_region
                and first.region_id == second.region_id
            ):
                continue
            if graph.find_link(first.switch_id, second.switch_id) is not None:
                continue
            length = euclidean_mm(first.position_mm, second.position_mm)
            created.append(
                graph.add_link(
                    first.switch_id,
                    second.switch_id,
                    LinkKind.WIRELESS,
                    length_mm=length,
                )
            )
    return created


def wireless_interface_count(graph: TopologyGraph) -> int:
    """Number of deployed WIs (used for area-overhead reporting)."""
    return len(graph.wireless_switches)


def wireless_area_overhead_mm2(
    graph: TopologyGraph, transceiver_area_mm2: float = 0.3
) -> float:
    """Total active-area overhead of the deployed transceivers [mm^2].

    The paper reports "negligible active area overhead of 0.3 mm^2 per
    transceiver"; this helper lets reports quote the total for a system.
    """
    if transceiver_area_mm2 < 0:
        raise ValueError("transceiver_area_mm2 must be non-negative")
    return wireless_interface_count(graph) * transceiver_area_mm2
