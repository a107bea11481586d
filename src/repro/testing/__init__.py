"""Small, fast system configurations shared by tests, benchmarks and docs.

These helpers build deliberately tiny systems (a few cores per chip, short
packets) that still exercise every architecture and code path of the
cycle-accurate simulator, so a full run takes milliseconds.  They live in
the package — rather than in a ``conftest.py`` — so the test suite, the
orchestration-layer tests and the documentation examples can all import
them unambiguously (``from repro.testing import small_system_config``).
"""

from __future__ import annotations

from ..core.config import Architecture, SystemConfig
from ..noc.config import NetworkConfig, WirelessConfig

__all__ = ["small_network_config", "small_system_config"]


def small_network_config(
    mac: str = "control_packet", packet_length: int = 8
) -> NetworkConfig:
    """A small-but-complete NoC configuration for fast tests."""
    return NetworkConfig(
        virtual_channels=4,
        buffer_depth_flits=4,
        packet_length_flits=packet_length,
        wireless=WirelessConfig(mac=mac, num_channels=2),
    )


def small_system_config(
    architecture: Architecture = Architecture.WIRELESS,
    num_chips: int = 2,
    cores_per_chip: int = 4,
    num_memory_stacks: int = 2,
    mac: str = "control_packet",
    packet_length: int = 8,
) -> SystemConfig:
    """A 2-chip, 2-stack system that still exercises every architecture."""
    return SystemConfig(
        architecture=architecture,
        num_chips=num_chips,
        cores_per_chip=cores_per_chip,
        num_memory_stacks=num_memory_stacks,
        vaults_per_stack=2,
        cores_per_wi=4,
        total_processing_area_mm2=100.0,
        network=small_network_config(mac=mac, packet_length=packet_length),
    )
