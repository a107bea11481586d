"""Interposer-based wireline architecture overlay — ``XCYM (Interposer)``.

Adopted from NoC-on-interposer work [2]: the chips and memory stacks are
placed on a silicon interposer whose metal layers provide point-to-point
links between *adjacent* chips, "extending the mesh NoC over two separate
layers of silicon spanning multiple chips" (Section IV-A, architecture 2).

The number of parallel links that can cross one chip boundary is limited by
the micro-bump pitch; it is exposed as
``SystemConfig.interposer_links_per_boundary`` and is one of the two
calibration knobs discussed in DESIGN.md section 4.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from .graph import LinkKind, LinkSpec
from .mesh import evenly_spaced
from .multichip import MultichipSystem, add_boundary_links, add_wide_io_links

if TYPE_CHECKING:  # pragma: no cover
    from ..core.config import SystemConfig


def apply_interposer_overlay(system: MultichipSystem, config: "SystemConfig") -> List[LinkSpec]:
    """Add interposer C-C links and wide I/O M-C links; return created links.

    Each adjacent chip pair gets ``config.interposer_links_per_boundary``
    interposer links at evenly spaced boundary rows (one per row for 0),
    and each memory stack ``config.wide_io_links_per_stack`` wide I/O
    channels.
    """
    links = config.interposer_links_per_boundary

    def spread(rows: int, _left_rows: int) -> List[int]:
        return evenly_spaced(list(range(rows)), rows if links == 0 else min(links, rows))

    created = add_boundary_links(system, LinkKind.INTERPOSER, spread)
    return created + add_wide_io_links(system, config.wide_io_links_per_stack)
