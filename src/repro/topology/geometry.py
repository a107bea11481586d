"""Physical placement helpers for the multichip package.

The default package geometry follows Fig. 1 of the paper: the processing
chips form a horizontal array on the substrate/interposer and the DRAM
stacks are mounted on both sides (left and right) of that array.  All
placement maths is concentrated here so the topology builders stay simple
and so tests can check geometric invariants (die sizes, link lengths)
independently of graph construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from ..energy.technology import CHIP_EDGE_MM, INTER_CHIP_GAP_MM


def mesh_shape_for_cores(num_cores: int) -> Tuple[int, int]:
    """Choose a (columns, rows) mesh shape for a chip with ``num_cores`` cores.

    The shape is the most square factorisation, preferring more rows than
    columns so that disintegrating a 64-core system into many chips keeps the
    chip-array height (and therefore the number of parallel inter-chip links)
    constant: 64 -> 8x8, 16 -> 4x4, 8 -> 2 columns x 4 rows.
    """
    if num_cores <= 0:
        raise ValueError(f"num_cores must be positive, got {num_cores}")
    rows = num_cores  # fallback for primes: a 1-wide column
    best = None
    for candidate in range(1, num_cores + 1):
        if num_cores % candidate:
            continue
        if candidate >= math.sqrt(num_cores):
            best = candidate
            break
    rows = best if best is not None else num_cores
    cols = num_cores // rows
    return cols, rows


@dataclass(frozen=True)
class ChipPlacement:
    """Placement of one processing chip in the package."""

    index: int
    origin_mm: Tuple[float, float]
    edge_mm: float
    grid_offset_x: int
    grid_offset_y: int
    mesh_cols: int
    mesh_rows: int


@dataclass(frozen=True)
class MemoryPlacement:
    """Placement of one memory stack in the package."""

    index: int
    side: str  # "top" or "bottom" of the processing chip array
    origin_mm: Tuple[float, float]
    edge_mm: float
    grid_x: int
    grid_y: int
    adjacent_chip_index: int
    adjacent_chip_column: int


@dataclass(frozen=True)
class PackageLayout:
    """Complete placement of chips and memory stacks."""

    chips: Tuple[ChipPlacement, ...]
    memories: Tuple[MemoryPlacement, ...]
    chip_edge_mm: float
    gap_mm: float

    @property
    def total_grid_columns(self) -> int:
        """Number of grid columns occupied by processing chips."""
        return sum(c.mesh_cols for c in self.chips)

    @property
    def mesh_rows(self) -> int:
        """Rows of the chip meshes (identical across chips by construction)."""
        return self.chips[0].mesh_rows if self.chips else 0


def switch_position_mm(
    origin_mm: Tuple[float, float],
    edge_mm: float,
    mesh_cols: int,
    mesh_rows: int,
    col: int,
    row: int,
) -> Tuple[float, float]:
    """Physical position of the switch at (col, row) of a chip mesh."""
    pitch_x = edge_mm / mesh_cols
    pitch_y = edge_mm / mesh_rows
    return (
        origin_mm[0] + (col + 0.5) * pitch_x,
        origin_mm[1] + (row + 0.5) * pitch_y,
    )


def euclidean_mm(a: Tuple[float, float], b: Tuple[float, float]) -> float:
    """Euclidean distance between two package positions [mm]."""
    return math.hypot(a[0] - b[0], a[1] - b[1])


def plan_package(
    num_chips: int,
    cores_per_chip: int,
    num_memory_stacks: int,
    chip_edge_mm: float = None,
    gap_mm: float = None,
    memory_edge_mm: float = None,
    total_processing_area_mm2: float = None,
) -> PackageLayout:
    """Plan the placement of every die in the package.

    Chips are laid out left-to-right; memory stacks are "mounted on both
    sides of the processing chip array" (Fig. 1): they alternate between the
    top and the bottom edge of the chip row, each stack sitting next to the
    chip it is paired with (stacks are distributed round-robin over the
    chips).  This keeps every stack one wide-I/O hop away from a processing
    chip in the wired architectures, as the paper assumes.

    If ``total_processing_area_mm2`` is given, the chip edge is derived from
    it so disintegrated configurations keep the combined active processing
    area constant, as in Section IV-C of the paper; otherwise
    ``chip_edge_mm`` (default 10 mm) is used directly.
    """
    if num_chips <= 0:
        raise ValueError(f"num_chips must be positive, got {num_chips}")
    if num_memory_stacks < 0:
        raise ValueError(f"num_memory_stacks must be non-negative, got {num_memory_stacks}")
    gap = INTER_CHIP_GAP_MM if gap_mm is None else gap_mm
    if total_processing_area_mm2 is not None:
        edge = math.sqrt(total_processing_area_mm2 / num_chips)
    else:
        edge = CHIP_EDGE_MM if chip_edge_mm is None else chip_edge_mm
    memory_edge = edge * 0.6 if memory_edge_mm is None else memory_edge_mm

    cols, rows = mesh_shape_for_cores(cores_per_chip)

    chips: List[ChipPlacement] = []
    grid_offset = 0
    for index in range(num_chips):
        origin_x = index * (edge + gap)
        chips.append(
            ChipPlacement(
                index=index,
                origin_mm=(origin_x, 0.0),
                edge_mm=edge,
                grid_offset_x=grid_offset,
                grid_offset_y=0,
                mesh_cols=cols,
                mesh_rows=rows,
            )
        )
        grid_offset += cols

    memories: List[MemoryPlacement] = []
    for index in range(num_memory_stacks):
        chip_index = (index * num_chips) // max(1, num_memory_stacks)
        chip_index = min(chip_index, num_chips - 1)
        chip = chips[chip_index]
        side = "top" if index % 2 == 0 else "bottom"
        # Stacks paired with the same chip spread over its columns; a single
        # stack sits over the chip's central column.
        stacks_on_chip = [
            i
            for i in range(num_memory_stacks)
            if min((i * num_chips) // max(1, num_memory_stacks), num_chips - 1)
            == chip_index and (i % 2 == 0) == (index % 2 == 0)
        ]
        position_in_chip = stacks_on_chip.index(index)
        column_step = max(1, cols // (len(stacks_on_chip) + 1))
        column = min(cols - 1, (position_in_chip + 1) * column_step)
        grid_x = chip.grid_offset_x + column
        if side == "top":
            grid_y = -1 - (position_in_chip // max(1, cols))
            origin_y = -(memory_edge + gap)
        else:
            grid_y = rows + (position_in_chip // max(1, cols))
            origin_y = edge + gap
        origin_x = chip.origin_mm[0] + column * (edge / cols)
        memories.append(
            MemoryPlacement(
                index=index,
                side=side,
                origin_mm=(origin_x, origin_y),
                edge_mm=memory_edge,
                grid_x=grid_x,
                grid_y=grid_y,
                adjacent_chip_index=chip_index,
                adjacent_chip_column=column,
            )
        )

    return PackageLayout(
        chips=tuple(chips),
        memories=tuple(memories),
        chip_edge_mm=edge,
        gap_mm=gap,
    )
