"""Per-link characterisation consumed by the cycle-accurate simulator.

Every physical link kind of the topology is reduced to three figures the
simulator needs each time a flit crosses it: how many cycles the channel is
occupied per flit (throughput), how many cycles later the flit arrives at the
downstream buffer (latency, including the downstream switch pipeline), and
how much dynamic energy the traversal costs.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..energy.technology import (
    INTERPOSER_LINK_EXTRA_LATENCY_CYCLES,
    SERIAL_IO_EXTRA_LATENCY_CYCLES,
    WIDE_IO_EXTRA_LATENCY_CYCLES,
    cycles_per_flit,
)
from ..topology.graph import LinkKind, LinkSpec
from .config import NetworkConfig


@dataclass(frozen=True)
class LinkCharacteristics:
    """Simulation-facing description of one link direction."""

    kind: LinkKind
    cycles_per_flit: int
    latency_cycles: int
    energy_pj_per_flit: float
    length_mm: float = 0.0

    def __post_init__(self) -> None:
        if self.cycles_per_flit < 1:
            raise ValueError("cycles_per_flit must be at least 1")
        if self.latency_cycles < 1:
            raise ValueError("latency_cycles must be at least 1")
        if self.energy_pj_per_flit < 0:
            raise ValueError("energy_pj_per_flit must be non-negative")

    @property
    def is_wireless(self) -> bool:
        """Whether this link is realised by the shared wireless channel."""
        return self.kind == LinkKind.WIRELESS


def characterize_link(spec: LinkSpec, config: NetworkConfig) -> LinkCharacteristics:
    """Characterise a topology link for the simulator.

    Every figure comes from ``config.technology``, except the wireless
    channel's service rate and extra latency (``config.wireless``).  On-chip
    wire and TSV hops take the repeated-wire delay of their length; the
    off-chip hops take one cycle plus their extra latency.  The latency
    figure includes the downstream switch pipeline
    (``config.switch_pipeline_stages``) so a hop's zero-load cost is fully
    captured by the link the flit crosses to get there.
    """
    tech = config.technology
    kind = spec.kind
    cycles = 1
    if kind == LinkKind.MESH or kind == LinkKind.TSV:
        latency = tech.wire_delay_cycles(spec.length_mm)
        if kind == LinkKind.MESH:
            energy = tech.wire_energy_pj_per_flit(spec.length_mm)
        else:
            energy = tech.flit_energy_pj(tech.tsv_energy_pj_per_bit)
    elif kind == LinkKind.INTERPOSER:
        latency = 1 + INTERPOSER_LINK_EXTRA_LATENCY_CYCLES
        energy = tech.flit_energy_pj(tech.interposer_link_energy_pj_per_bit)
    elif kind == LinkKind.SERIAL_IO:
        cycles = cycles_per_flit(
            tech.serial_io_rate_gbps, tech.flit_width_bits, tech.clock_frequency_hz
        )
        latency = 1 + SERIAL_IO_EXTRA_LATENCY_CYCLES
        energy = tech.flit_energy_pj(tech.serial_io_energy_pj_per_bit)
    elif kind == LinkKind.WIDE_IO:
        cycles = cycles_per_flit(
            tech.wide_io_rate_gbps(), tech.flit_width_bits, tech.clock_frequency_hz
        )
        latency = 1 + WIDE_IO_EXTRA_LATENCY_CYCLES
        energy = tech.flit_energy_pj(tech.wide_io_energy_pj_per_bit)
    elif kind == LinkKind.WIRELESS:
        cycles = config.wireless.cycles_per_flit
        latency = 1 + config.wireless.extra_latency_cycles
        energy = tech.flit_energy_pj(tech.wireless_energy_pj_per_bit)
    else:
        raise ValueError(f"unknown link kind {kind!r}")
    return LinkCharacteristics(
        kind=kind,
        cycles_per_flit=cycles,
        latency_cycles=config.switch_pipeline_stages + latency,
        energy_pj_per_flit=energy,
        length_mm=spec.length_mm,
    )
