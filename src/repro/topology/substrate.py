"""Substrate-based wireline architecture overlay — ``XCYM (Substrate)``.

In this baseline the chips and memory modules sit on an organic substrate.
Chip-to-chip traffic uses high speed serial I/O with "only a single
inter-chip link between switches at the center of the adjacent boundaries to
eliminate signal crosstalk between parallel high-speed I/Os"; memory-to-chip
traffic uses the 128-bit wide I/O channel of the neighbouring chip
(Section IV-A, architecture 1).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from .graph import LinkKind, LinkSpec
from .multichip import MultichipSystem, add_boundary_links, add_wide_io_links

if TYPE_CHECKING:  # pragma: no cover
    from ..core.config import SystemConfig


def apply_substrate_overlay(system: MultichipSystem, config: "SystemConfig") -> List[LinkSpec]:
    """Add substrate C-C and M-C links; return the created links.

    Each adjacent chip pair gets ``config.substrate_serial_links`` serial
    I/O links at its central boundary rows, and each memory stack
    ``config.wide_io_links_per_stack`` wide I/O channels.
    """
    links = config.substrate_serial_links

    def central(right_rows: int, left_rows: int) -> List[int]:
        return _central_rows(right_rows, min(links, right_rows, left_rows))

    created = add_boundary_links(system, LinkKind.SERIAL_IO, central)
    return created + add_wide_io_links(system, config.wide_io_links_per_stack)


def _central_rows(total_rows: int, count: int) -> List[int]:
    """Pick ``count`` rows centred on the middle of the boundary."""
    if total_rows <= 0:
        return []
    count = min(count, total_rows)
    centre = (total_rows - 1) // 2
    rows = [centre]
    offset = 1
    while len(rows) < count:
        if centre + offset < total_rows:
            rows.append(centre + offset)
        if len(rows) < count and centre - offset >= 0:
            rows.append(centre - offset)
        offset += 1
    return sorted(rows[:count])
