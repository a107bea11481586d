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

from typing import TYPE_CHECKING, List

from .geometry import euclidean_mm
from .graph import LinkKind, LinkSpec, TopologyGraph
from .mesh import cluster_centers
from .multichip import MultichipSystem

if TYPE_CHECKING:  # pragma: no cover
    from ..core.config import SystemConfig


def apply_wireless_overlay(system: MultichipSystem, config: "SystemConfig") -> List[LinkSpec]:
    """Deploy WIs and add pairwise wireless links; return created links.

    Each chip gets one WI per ``config.cores_per_wi`` cores, and at least
    one, which inter-chip connectivity needs; every memory stack's base
    logic die carries one (the paper's deployment).
    """
    graph = system.graph

    for region_id in system.chip_region_ids:
        cores_in_chip = sum(
            len(graph.endpoints_at(s.switch_id)) for s in graph.switches_in_region(region_id)
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

