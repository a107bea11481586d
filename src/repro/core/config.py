"""System-level configuration: the ``XCYM (Architecture)`` naming of the paper.

A :class:`SystemConfig` fully describes one multichip system to evaluate:
how many processing chips and memory stacks it has, how they are
interconnected (substrate serial I/O, interposer extended mesh, or the
proposed wireless framework), the WI deployment density, and the NoC
parameters shared by every architecture.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Optional

from ..noc.config import NetworkConfig


class Architecture(str, Enum):
    """Inter-chip interconnection style (Section IV-A)."""

    SUBSTRATE = "substrate"
    INTERPOSER = "interposer"
    WIRELESS = "wireless"


@dataclass(frozen=True)
class SystemConfig:
    """One multichip system configuration."""

    architecture: Architecture = Architecture.WIRELESS
    #: Number of processing chips (the X of ``XCYM``).
    num_chips: int = 4
    #: Cores per processing chip; the default 4C x 16 cores keeps the 64-core
    #: total of the paper's evaluation.
    cores_per_chip: int = 16
    #: Number of in-package DRAM stacks (the Y of ``XCYM``).
    num_memory_stacks: int = 4
    #: DRAM channels (vaults) per stack.
    vaults_per_stack: int = 4
    #: Wireless deployment density: cores serviced by one WI.
    cores_per_wi: int = 16
    #: Combined active processing area kept constant under disintegration
    #: (Section IV-C); ``None`` uses a 10 mm die edge per chip instead.
    total_processing_area_mm2: Optional[float] = 400.0
    #: Parallel interposer links between each pair of adjacent chips.  ``0``
    #: means "one per boundary row" (a full mesh extension); the default of 1
    #: models a micro-bump-pitch-limited boundary (see DESIGN.md section 4).
    interposer_links_per_boundary: int = 1
    #: Serial I/O links per adjacent chip boundary in the substrate system.
    substrate_serial_links: int = 1
    #: Wide I/O channels per memory stack in the wired systems.
    wide_io_links_per_stack: int = 1
    #: Shared NoC parameters (VCs, buffers, packet length, wireless PHY/MAC).
    network: NetworkConfig = field(default_factory=NetworkConfig)

    def __post_init__(self) -> None:
        if self.num_chips <= 0:
            raise ValueError("num_chips must be positive")
        if self.cores_per_chip <= 0:
            raise ValueError("cores_per_chip must be positive")
        if self.num_memory_stacks < 0:
            raise ValueError("num_memory_stacks must be non-negative")
        if self.vaults_per_stack <= 0:
            raise ValueError("vaults_per_stack must be positive")
        if self.cores_per_wi <= 0:
            raise ValueError("cores_per_wi must be positive")
        area = self.total_processing_area_mm2
        if area is not None and not 0 < area < math.inf:
            raise ValueError("total_processing_area_mm2 must be positive and finite")
        if self.interposer_links_per_boundary < 0:
            raise ValueError("interposer_links_per_boundary must be non-negative")
        if self.substrate_serial_links <= 0:
            raise ValueError("substrate_serial_links must be positive")
        if self.wide_io_links_per_stack <= 0:
            raise ValueError("wide_io_links_per_stack must be positive")

    # ------------------------------------------------------------------
    # Naming / derived quantities.
    # ------------------------------------------------------------------

    @property
    def total_cores(self) -> int:
        """Total processing cores in the system."""
        return self.num_chips * self.cores_per_chip

    @property
    def name(self) -> str:
        """Paper-style name, e.g. ``4C4M (Wireless)``."""
        return (
            f"{self.num_chips}C{self.num_memory_stacks}M "
            f"({self.architecture.value.capitalize()})"
        )

    def with_architecture(self, architecture: Architecture) -> "SystemConfig":
        """The same system with a different interconnection architecture."""
        return replace(self, architecture=architecture)

    def with_network(self, **kwargs) -> "SystemConfig":
        """The same system with modified network parameters."""
        return replace(self, network=replace(self.network, **kwargs))

    def with_wireless(self, **kwargs) -> "SystemConfig":
        """The same system with modified wireless (PHY/MAC) parameters."""
        wireless = replace(self.network.wireless, **kwargs)
        return replace(self, network=replace(self.network, wireless=wireless))


def paper_4c4m(architecture: Architecture = Architecture.WIRELESS) -> SystemConfig:
    """The 64-core, 4-chip, 4-stack system of Figs. 2 and 3."""
    return SystemConfig(architecture=architecture)


def paper_1c4m(architecture: Architecture = Architecture.WIRELESS) -> SystemConfig:
    """The single-chip, 4-stack system of Fig. 4 (1 WI per 16 cores)."""
    return SystemConfig(
        architecture=architecture,
        num_chips=1,
        cores_per_chip=64,
        cores_per_wi=16,
    )


def paper_8c4m(architecture: Architecture = Architecture.WIRELESS) -> SystemConfig:
    """The eight-chip, 4-stack system of Fig. 4 (1 WI per 8 cores)."""
    return SystemConfig(
        architecture=architecture,
        num_chips=8,
        cores_per_chip=8,
        cores_per_wi=8,
    )
