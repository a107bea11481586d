"""Intra-chip mesh construction.

Each processing chip uses "a traditional Mesh based NoC with switches and
links" where "each core in the system is considered to be attached to its NoC
switch" (Section III-A).  This module adds one chip's worth of switches,
core endpoints and mesh links to a :class:`~repro.topology.graph.TopologyGraph`.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .geometry import ChipPlacement, switch_position_mm
from .graph import (
    EndpointKind,
    LinkKind,
    RegionKind,
    RegionSpec,
    SwitchKind,
    TopologyGraph,
)


def build_processor_chip(
    graph: TopologyGraph,
    placement: ChipPlacement,
    name: str = None,
) -> RegionSpec:
    """Add one processing chip (mesh NoC + one core per switch) to the graph.

    Returns the created region.  Switch grid coordinates are global package
    coordinates: ``placement.grid_offset_x + col`` / ``grid_offset_y + row``,
    so the XY router can treat the whole chip array as one coordinate system.
    """
    cols, rows = placement.mesh_cols, placement.mesh_rows
    region = graph.add_region(
        kind=RegionKind.PROCESSOR_CHIP,
        name=name or f"chip{placement.index}",
        mesh_cols=cols,
        mesh_rows=rows,
        origin_mm=placement.origin_mm,
        edge_mm=placement.edge_mm,
    )

    local_index: Dict[Tuple[int, int], int] = {}
    for row in range(rows):
        for col in range(cols):
            position = switch_position_mm(
                placement.origin_mm, placement.edge_mm, cols, rows, col, row
            )
            switch = graph.add_switch(
                kind=SwitchKind.CORE,
                region_id=region.region_id,
                grid_x=placement.grid_offset_x + col,
                grid_y=placement.grid_offset_y + row,
                position_mm=position,
            )
            graph.add_endpoint(EndpointKind.CORE, switch.switch_id)
            local_index[(col, row)] = switch.switch_id

    pitch_x = placement.edge_mm / cols
    pitch_y = placement.edge_mm / rows
    for row in range(rows):
        for col in range(cols):
            here = local_index[(col, row)]
            if col + 1 < cols:
                graph.add_link(here, local_index[(col + 1, row)], LinkKind.MESH, length_mm=pitch_x)
            if row + 1 < rows:
                graph.add_link(here, local_index[(col, row + 1)], LinkKind.MESH, length_mm=pitch_y)
    return region


def boundary_switches(graph: TopologyGraph, region_id: int, side: str) -> List[int]:
    """Switch ids on the ``side`` ("left"/"right"/"top"/"bottom") boundary.

    Ordered by row (for left/right) or by column (for top/bottom) so callers
    can pick evenly spaced subsets for boundary links.
    """
    switches = graph.switches_in_region(region_id)
    if not switches:
        return []
    xs = [s.grid_x for s in switches]
    ys = [s.grid_y for s in switches]
    if side == "left":
        edge = min(xs)
        selected = [s for s in switches if s.grid_x == edge]
        selected.sort(key=lambda s: s.grid_y)
    elif side == "right":
        edge = max(xs)
        selected = [s for s in switches if s.grid_x == edge]
        selected.sort(key=lambda s: s.grid_y)
    elif side == "top":
        edge = min(ys)
        selected = [s for s in switches if s.grid_y == edge]
        selected.sort(key=lambda s: s.grid_x)
    elif side == "bottom":
        edge = max(ys)
        selected = [s for s in switches if s.grid_y == edge]
        selected.sort(key=lambda s: s.grid_x)
    else:
        raise ValueError(f"unknown side {side!r}")
    return [s.switch_id for s in selected]


def evenly_spaced(items: List[int], count: int) -> List[int]:
    """Pick ``count`` evenly spaced entries from ``items`` (at least one)."""
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    if not items:
        return []
    if count >= len(items):
        return list(items)
    step = len(items) / count
    picked = []
    for i in range(count):
        index = int(i * step + step / 2)
        picked.append(items[min(index, len(items) - 1)])
    return picked


def cluster_centers(graph: TopologyGraph, region_id: int, num_clusters: int) -> List[int]:
    """Switch ids at the centres of ``num_clusters`` equal tiles of a chip mesh.

    Implements the WI deployment strategy of Section III-A: a single WI is
    shared by a cluster of cores, deployed "at one of the central switches of
    each cluster", which minimises the average distance between the cores of
    the cluster and their WI.
    """
    if num_clusters <= 0:
        raise ValueError(f"num_clusters must be positive, got {num_clusters}")
    region = graph.region(region_id)
    switches = graph.switches_in_region(region_id)
    index = {(s.grid_x, s.grid_y): s.switch_id for s in switches}
    min_x = min(s.grid_x for s in switches)
    min_y = min(s.grid_y for s in switches)
    cols, rows = region.mesh_cols, region.mesh_rows

    # Factor the cluster count into a tile grid as square as possible.
    tiles_x = 1
    for candidate in range(1, num_clusters + 1):
        if num_clusters % candidate == 0 and candidate * candidate <= num_clusters:
            tiles_x = candidate
    tiles_y = num_clusters // tiles_x
    if tiles_x > cols or tiles_y > rows:
        tiles_x, tiles_y = tiles_y, tiles_x
    tiles_x = min(tiles_x, cols)
    tiles_y = min(tiles_y, rows)

    centers = []
    for ty in range(tiles_y):
        for tx in range(tiles_x):
            tile_cols = cols // tiles_x
            tile_rows = rows // tiles_y
            center_col = min_x + tx * tile_cols + (tile_cols - 1) // 2
            center_row = min_y + ty * tile_rows + (tile_rows - 1) // 2
            centers.append(index[(center_col, center_row)])
    # If the factorisation produced fewer tiles than requested (non-divisible
    # cluster counts), fill the remainder with distinct switches closest to
    # the chip centre.
    if len(centers) < num_clusters:
        centre_col = min_x + (cols - 1) / 2
        centre_row = min_y + (rows - 1) / 2
        remaining = sorted(
            (s for s in switches if s.switch_id not in centers),
            key=lambda s: abs(s.grid_x - centre_col) + abs(s.grid_y - centre_row),
        )
        for spec in remaining[: num_clusters - len(centers)]:
            centers.append(spec.switch_id)
    return centers[:num_clusters]
