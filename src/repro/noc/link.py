"""Per-link characterisation consumed by the cycle-accurate simulator.

Every physical link kind of the topology is reduced to three figures the
simulator needs each time a flit crosses it: how many cycles the channel is
occupied per flit (throughput), how many cycles later the flit arrives at the
downstream buffer (latency, including the downstream switch pipeline), and
how much dynamic energy the traversal costs.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..energy import SerialIoModel, Technology, WideIoModel, WireModel
from ..energy.technology import (
    DEFAULT_TECHNOLOGY,
    INTERPOSER_LINK_EXTRA_LATENCY_CYCLES,
    SWITCH_PIPELINE_STAGES,
)
from ..topology.graph import LinkKind, LinkSpec


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


@dataclass(frozen=True)
class WirelessLinkSettings:
    """Calibration of the wireless channel's simulator-facing service rate.

    ``cycles_per_flit`` is the number of clock cycles the channel is occupied
    per transferred flit.  The physical transceiver sustains 16 Gb/s, i.e.
    5 network cycles per 32-bit flit; the authors' simulator (like the WiNoC
    simulators it builds on [6][7][11]) services the wireless port at flit
    granularity, so the default here is 1.  See DESIGN.md section 4.
    """

    cycles_per_flit: int = 1
    extra_latency_cycles: int = 1


def characterize_link(
    spec: LinkSpec,
    technology: Technology = DEFAULT_TECHNOLOGY,
    wireless: WirelessLinkSettings = WirelessLinkSettings(),
    switch_pipeline_stages: int = SWITCH_PIPELINE_STAGES,
) -> LinkCharacteristics:
    """Characterise a topology link for the simulator.

    The latency figure includes the downstream switch pipeline
    (``switch_pipeline_stages``) so a hop's zero-load cost is fully captured
    by the link the flit crosses to get there.
    """
    if spec.kind == LinkKind.MESH or spec.kind == LinkKind.TSV:
        wire = WireModel(technology).characterize(spec.length_mm)
        return LinkCharacteristics(
            kind=spec.kind,
            cycles_per_flit=1,
            latency_cycles=switch_pipeline_stages + wire.latency_cycles,
            energy_pj_per_flit=wire.energy_pj_per_flit
            if spec.kind == LinkKind.MESH
            else technology.flit_energy_pj(technology.tsv_energy_pj_per_bit),
            length_mm=spec.length_mm,
        )
    if spec.kind == LinkKind.INTERPOSER:
        energy = technology.flit_energy_pj(technology.interposer_link_energy_pj_per_bit)
        return LinkCharacteristics(
            kind=spec.kind,
            cycles_per_flit=1,
            latency_cycles=switch_pipeline_stages + 1 + INTERPOSER_LINK_EXTRA_LATENCY_CYCLES,
            energy_pj_per_flit=energy,
            length_mm=spec.length_mm,
        )
    if spec.kind == LinkKind.SERIAL_IO:
        io = SerialIoModel(technology).characterize()
        return LinkCharacteristics(
            kind=spec.kind,
            cycles_per_flit=io.cycles_per_flit,
            latency_cycles=switch_pipeline_stages + 1 + io.extra_latency_cycles,
            energy_pj_per_flit=io.energy_pj_per_flit,
            length_mm=spec.length_mm,
        )
    if spec.kind == LinkKind.WIDE_IO:
        io = WideIoModel(technology).characterize()
        return LinkCharacteristics(
            kind=spec.kind,
            cycles_per_flit=io.cycles_per_flit,
            latency_cycles=switch_pipeline_stages + 1 + io.extra_latency_cycles,
            energy_pj_per_flit=io.energy_pj_per_flit,
            length_mm=spec.length_mm,
        )
    if spec.kind == LinkKind.WIRELESS:
        energy = technology.flit_energy_pj(technology.wireless_energy_pj_per_bit)
        return LinkCharacteristics(
            kind=spec.kind,
            cycles_per_flit=wireless.cycles_per_flit,
            latency_cycles=switch_pipeline_stages + 1 + wireless.extra_latency_cycles,
            energy_pj_per_flit=energy,
            length_mm=spec.length_mm,
        )
    raise ValueError(f"unknown link kind {spec.kind!r}")
