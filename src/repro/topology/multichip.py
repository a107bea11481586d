"""Composition of processing chips and memory stacks into one package.

``build_multichip_base`` produces the architecture-independent part of the
topology: the chip array (each an intra-chip mesh with one core per switch)
and the memory stacks (each a base logic die switch with its DRAM vaults).
The three architecture overlays (substrate, interposer, wireless) then add
their inter-die connectivity on top of this base; the two wired ones share
the boundary and wide I/O link builders at the end of this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from .geometry import PackageLayout, euclidean_mm, plan_package
from .graph import (
    EndpointKind,
    LinkKind,
    LinkSpec,
    RegionKind,
    SwitchKind,
    TopologyGraph,
)
from .mesh import boundary_switches, build_processor_chip


@dataclass
class MultichipSystem:
    """A package topology plus bookkeeping used by the architecture overlays."""

    graph: TopologyGraph
    layout: PackageLayout
    chip_region_ids: List[int] = field(default_factory=list)
    memory_region_ids: List[int] = field(default_factory=list)
    memory_switch_ids: Dict[int, int] = field(default_factory=dict)

    @property
    def num_chips(self) -> int:
        """Number of processing chips."""
        return len(self.chip_region_ids)

    @property
    def num_memory_stacks(self) -> int:
        """Number of in-package memory stacks."""
        return len(self.memory_region_ids)

    @property
    def num_cores(self) -> int:
        """Total number of processing cores across all chips."""
        return len(self.graph.cores)

    def chip_boundary(self, chip_index: int, side: str) -> List[int]:
        """Boundary switch ids of a chip, ordered by row/column."""
        region_id = self.chip_region_ids[chip_index]
        return boundary_switches(self.graph, region_id, side)

    def memory_switch(self, memory_index: int) -> int:
        """Switch id of the base logic die of a memory stack."""
        region_id = self.memory_region_ids[memory_index]
        return self.memory_switch_ids[region_id]

    def adjacent_chip_pairs(self) -> List[Tuple[int, int]]:
        """Indices of physically adjacent chip pairs in the array."""
        return [(i, i + 1) for i in range(self.num_chips - 1)]


def build_memory_stack_die(
    graph: TopologyGraph,
    placement,
    vaults: int,
    name: Optional[str] = None,
) -> Tuple[int, int]:
    """Add one memory stack's base logic die to the graph.

    The stack is "a stacked DRAM mounted on top of a base logic die"; the
    logic die carries a single NoC switch which terminates either the wide
    I/O channel (wired architectures) or the wireless interface (wireless
    architecture).  The DRAM channels/vaults appear as memory endpoints
    attached to that switch; intra-stack TSV transfers are not simulated,
    and the paper ignores their energy.

    Returns ``(region_id, switch_id)``.
    """
    if vaults <= 0:
        raise ValueError(f"vaults must be positive, got {vaults}")
    region = graph.add_region(
        kind=RegionKind.MEMORY_STACK,
        name=name or f"memory{placement.index}",
        mesh_cols=1,
        mesh_rows=1,
        origin_mm=placement.origin_mm,
        edge_mm=placement.edge_mm,
    )
    centre = (
        placement.origin_mm[0] + placement.edge_mm / 2,
        placement.origin_mm[1] + placement.edge_mm / 2,
    )
    switch = graph.add_switch(
        kind=SwitchKind.MEMORY,
        region_id=region.region_id,
        grid_x=placement.grid_x,
        grid_y=placement.grid_y,
        position_mm=centre,
    )
    for _ in range(vaults):
        graph.add_endpoint(EndpointKind.MEMORY_VAULT, switch.switch_id)
    return region.region_id, switch.switch_id


def build_multichip_base(
    num_chips: int,
    cores_per_chip: int,
    num_memory_stacks: int,
    vaults_per_stack: int = 4,
    chip_edge_mm: Optional[float] = None,
    total_processing_area_mm2: Optional[float] = None,
    gap_mm: Optional[float] = None,
) -> MultichipSystem:
    """Build the architecture-independent multichip topology.

    Parameters mirror the ``XCYM`` naming of the paper: ``num_chips`` is X,
    ``num_memory_stacks`` is Y.  ``total_processing_area_mm2`` keeps the
    combined active processing area constant across disintegration levels
    (Section IV-C); when omitted, every chip uses ``chip_edge_mm``
    (default 10 mm).
    """
    layout = plan_package(
        num_chips=num_chips,
        cores_per_chip=cores_per_chip,
        num_memory_stacks=num_memory_stacks,
        chip_edge_mm=chip_edge_mm,
        gap_mm=gap_mm,
        total_processing_area_mm2=total_processing_area_mm2,
    )
    graph = TopologyGraph()
    system = MultichipSystem(graph=graph, layout=layout)

    for chip in layout.chips:
        region = build_processor_chip(graph, chip)
        system.chip_region_ids.append(region.region_id)

    # Keep grid coordinates unique even when several stacks share a side and
    # a row would collide (small meshes): nudge the row of later stacks.
    used_grid = {(s.grid_x, s.grid_y) for s in graph.switches}
    for memory in layout.memories:
        grid_y = memory.grid_y
        while (memory.grid_x, grid_y) in used_grid:
            grid_y += 1
        placement = memory if grid_y == memory.grid_y else _with_row(memory, grid_y)
        region_id, switch_id = build_memory_stack_die(graph, placement, vaults=vaults_per_stack)
        used_grid.add((placement.grid_x, placement.grid_y))
        system.memory_region_ids.append(region_id)
        system.memory_switch_ids[region_id] = switch_id

    return system


def _with_row(memory, grid_y: int):
    """Copy of a memory placement with a different grid row."""
    from .geometry import MemoryPlacement

    return MemoryPlacement(
        index=memory.index,
        side=memory.side,
        origin_mm=memory.origin_mm,
        edge_mm=memory.edge_mm,
        grid_x=memory.grid_x,
        grid_y=grid_y,
        adjacent_chip_index=memory.adjacent_chip_index,
        adjacent_chip_column=memory.adjacent_chip_column,
    )


def memory_anchor_switch(system: MultichipSystem, memory_index: int) -> int:
    """The processing-chip switch a memory stack's wide I/O attaches to.

    The stack attaches to its *neighbouring* chip at the boundary switch of
    the chip edge it sits next to (top or bottom of the array), in the
    column the stack is placed over, so every stack is one wide-I/O hop from
    its chip in the wired architectures.
    """
    placement = system.layout.memories[memory_index]
    chip_index = placement.adjacent_chip_index
    boundary = system.chip_boundary(chip_index, placement.side)
    if not boundary:
        raise ValueError(f"chip {chip_index} has no {placement.side} boundary switches")
    column = min(placement.adjacent_chip_column, len(boundary) - 1)
    return boundary[column]


def add_boundary_links(
    system: MultichipSystem,
    kind: LinkKind,
    pick_rows: Callable[[int, int], List[int]],
) -> List[LinkSpec]:
    """Link every adjacent chip pair across their shared boundary.

    ``pick_rows(right_rows, left_rows)`` picks the rows of the left chip's
    right boundary that get a link; each lands on the same row of the right
    chip's left boundary (its last row if it has fewer).
    """
    graph = system.graph
    created: List[LinkSpec] = []
    for left_index, right_index in system.adjacent_chip_pairs():
        right_boundary = system.chip_boundary(left_index, "right")
        left_boundary = system.chip_boundary(right_index, "left")
        for row in pick_rows(len(right_boundary), len(left_boundary)):
            src = right_boundary[row]
            dst = left_boundary[min(row, len(left_boundary) - 1)]
            created.append(_add_link(graph, src, dst, kind))
    return created


def add_wide_io_links(system: MultichipSystem, links_per_stack: int) -> List[LinkSpec]:
    """Attach every memory stack to its neighbouring chip over wide I/O.

    The first channel lands on the stack's anchor switch; further
    (non-default) channels attach to further boundary switches of the same
    chip side.  Both wired architectures use this memory interface, as the
    paper keeps it the same across wired configurations.
    """
    graph = system.graph
    created: List[LinkSpec] = []
    for memory_index in range(system.num_memory_stacks):
        memory_switch = system.memory_switch(memory_index)
        anchor = memory_anchor_switch(system, memory_index)
        targets = [anchor]
        if links_per_stack > 1:
            placement = system.layout.memories[memory_index]
            boundary = system.chip_boundary(placement.adjacent_chip_index, placement.side)
            targets += [s for s in boundary if s != anchor][: links_per_stack - 1]
        for target in targets:
            created.append(_add_link(graph, memory_switch, target, LinkKind.WIDE_IO))
    return created


def _add_link(graph: TopologyGraph, src: int, dst: int, kind: LinkKind) -> LinkSpec:
    """Add a link as long as the distance between its two switches."""
    length = euclidean_mm(graph.switch(src).position_mm, graph.switch(dst).position_mm)
    return graph.add_link(src, dst, kind, length_mm=length)
