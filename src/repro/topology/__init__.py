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
from .interposer import apply_interposer_overlay
from .mesh import boundary_switches, build_processor_chip, cluster_centers, evenly_spaced
from .multichip import (
    MultichipSystem,
    build_memory_stack_die,
    build_multichip_base,
    memory_anchor_switch,
)
from .substrate import apply_substrate_overlay
from .wireless_overlay import apply_wireless_overlay, connect_wireless_interfaces

__all__ = [
    "ChipPlacement",
    "EndpointKind",
    "EndpointSpec",
    "LinkKind",
    "LinkSpec",
    "MemoryPlacement",
    "MultichipSystem",
    "PackageLayout",
    "RegionKind",
    "RegionSpec",
    "SwitchKind",
    "SwitchSpec",
    "TopologyError",
    "TopologyGraph",
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
]
