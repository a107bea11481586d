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
    #: ("wireless deployment density of 1WI per 16 cores").  A chip with
    #: fewer cores still gets one WI, which inter-chip connectivity needs.
    cores_per_wi: int = 16


def apply_wireless_overlay(
    system: MultichipSystem,
    config: WirelessOverlayConfig = WirelessOverlayConfig(),
) -> List[LinkSpec]:
    """Deploy WIs and add pairwise wireless links; return created links.

    Every chip gets at least one WI and every memory stack's base logic die
    carries one (the paper's deployment).
    """
    if config.cores_per_wi <= 0:
        raise ValueError("cores_per_wi must be positive")

    graph = system.graph

    for region_id in system.chip_region_ids:
        cores_in_chip = sum(
            len(graph.endpoints_at(s.switch_id))
            for s in graph.switches_in_region(region_id)
        )
        num_wis = max(1, cores_in_chip // config.cores_per_wi)
        for switch_id in cluster_centers(graph, region_id, num_wis):
            graph.set_wireless(switch_id, True)

    for memory_index in range(system.num_memory_stacks):
        graph.set_wireless(system.memory_switch(memory_index), True)

    return connect_wireless_interfaces(graph)


def connect_wireless_interfaces(graph: TopologyGraph) -> List[LinkSpec]:
    """Add a wireless link between every pair of WI switches.

    WIs of the same chip are linked too, so intra-chip traffic may take the
    wireless shortcut when it shortens the path, as observed for the 1C4M
    configuration.
    """
    created: List[LinkSpec] = []
    wireless = graph.wireless_switches
    for i, first in enumerate(wireless):
        for second in wireless[i + 1 :]:
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
