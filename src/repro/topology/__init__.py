"""Topology construction for multichip systems with in-package memory.

The subpackage builds the physical structure the simulator runs on: intra-
chip meshes, memory-stack logic dies, and the three inter-die connectivity
overlays evaluated in the paper (substrate serial I/O, interposer extended
mesh, and the proposed wireless interconnection).
"""

from .geometry import (
    ChipPlacement,
    MemoryPlacement,
    PackageLayout,
    euclidean_mm,
    mesh_shape_for_cores,
    plan_package,
    switch_position_mm,
)
from .graph import (
    EndpointKind,
    EndpointSpec,
    LinkKind,
    LinkSpec,
    RegionKind,
    RegionSpec,
    SwitchKind,
    SwitchSpec,
    TopologyError,
    TopologyGraph,
)
from .interposer import InterposerOverlayConfig, apply_interposer_overlay
from .mesh import boundary_switches, build_processor_chip, cluster_centers, evenly_spaced
from .multichip import (
    MultichipSystem,
    build_memory_stack_die,
    build_multichip_base,
    memory_anchor_switch,
)
from .substrate import SubstrateOverlayConfig, apply_substrate_overlay
from .wireless_overlay import (
    WirelessOverlayConfig,
    apply_wireless_overlay,
    connect_wireless_interfaces,
    wireless_area_overhead_mm2,
    wireless_interface_count,
)

__all__ = [
    "ChipPlacement",
    "EndpointKind",
    "EndpointSpec",
    "InterposerOverlayConfig",
    "LinkKind",
    "LinkSpec",
    "MemoryPlacement",
    "MultichipSystem",
    "PackageLayout",
    "RegionKind",
    "RegionSpec",
    "SubstrateOverlayConfig",
    "SwitchKind",
    "SwitchSpec",
    "TopologyError",
    "TopologyGraph",
    "WirelessOverlayConfig",
    "apply_interposer_overlay",
    "apply_substrate_overlay",
    "apply_wireless_overlay",
    "boundary_switches",
    "build_memory_stack_die",
    "build_multichip_base",
    "build_processor_chip",
    "cluster_centers",
    "connect_wireless_interfaces",
    "euclidean_mm",
    "evenly_spaced",
    "memory_anchor_switch",
    "mesh_shape_for_cores",
    "plan_package",
    "switch_position_mm",
    "wireless_area_overhead_mm2",
    "wireless_interface_count",
]
