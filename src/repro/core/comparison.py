"""Relative-gain computations between architectures.

Figures 4, 5 and 6 of the paper report percentage *gains* of the wireless
multichip system over the interposer baseline: an increase in bandwidth, and
reductions in average packet energy and latency.  This module defines those
gains once so every experiment and test computes them identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..metrics.saturation import LoadPointSummary, SweepSummary


@dataclass(frozen=True)
class ArchitectureMetrics:
    """Headline metrics of one architecture under one workload."""

    name: str
    bandwidth_gbps_per_core: float
    average_packet_energy_nj: float
    average_packet_latency_cycles: float

    @classmethod
    def from_point_summary(
        cls, name: str, point: LoadPointSummary
    ) -> "ArchitectureMetrics":
        """Metrics of one runner task result, fresh or cached.

        Energy is the totals-based ``system_packet_energy_nj``, so saturated
        runs are not biased towards the shorter-path packets that manage to
        complete.
        """
        return cls(
            name=name,
            bandwidth_gbps_per_core=point.bandwidth_gbps_per_core,
            average_packet_energy_nj=point.system_packet_energy_nj,
            average_packet_latency_cycles=point.average_latency_cycles,
        )

    @classmethod
    def from_sweep_summary(
        cls, name: str, summary: SweepSummary, acceptance: float = 0.9
    ) -> "ArchitectureMetrics":
        """Metrics at the sustainable-saturation point of a load sweep.

        Bandwidth is the peak *sustainable* rate (the offered traffic mix is
        still delivered), and energy/latency are measured at that same
        operating point, mirroring the paper's "at saturation with maximum
        load".
        """
        return cls.from_point_summary(
            name, summary.point_at_sustainable_peak(acceptance)
        )

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view used by reports."""
        return {
            "bandwidth_gbps_per_core": self.bandwidth_gbps_per_core,
            "avg_packet_energy_nj": self.average_packet_energy_nj,
            "avg_packet_latency_cycles": self.average_packet_latency_cycles,
        }


def percentage_gain(value: float, baseline: float, higher_is_better: bool) -> float:
    """Relative gain of ``value`` over ``baseline`` in percent.

    For higher-is-better metrics (bandwidth) this is the relative increase;
    for lower-is-better metrics (energy, latency) it is the relative
    reduction, so a positive number always means "the wireless system wins".
    """
    if baseline == 0:
        return 0.0
    if higher_is_better:
        return (value - baseline) / baseline * 100.0
    return (baseline - value) / baseline * 100.0


@dataclass(frozen=True)
class GainReport:
    """Percentage gains of one architecture over a baseline."""

    name: str
    baseline_name: str
    bandwidth_gain_pct: float
    energy_gain_pct: float
    latency_gain_pct: float

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view used by reports."""
        return {
            "bandwidth_gain_pct": self.bandwidth_gain_pct,
            "energy_gain_pct": self.energy_gain_pct,
            "latency_gain_pct": self.latency_gain_pct,
        }


def compare(
    candidate: ArchitectureMetrics, baseline: ArchitectureMetrics
) -> GainReport:
    """Gains of ``candidate`` relative to ``baseline``."""
    return GainReport(
        name=candidate.name,
        baseline_name=baseline.name,
        bandwidth_gain_pct=percentage_gain(
            candidate.bandwidth_gbps_per_core,
            baseline.bandwidth_gbps_per_core,
            higher_is_better=True,
        ),
        energy_gain_pct=percentage_gain(
            candidate.average_packet_energy_nj,
            baseline.average_packet_energy_nj,
            higher_is_better=False,
        ),
        latency_gain_pct=percentage_gain(
            candidate.average_packet_latency_cycles,
            baseline.average_packet_latency_cycles,
            higher_is_better=False,
        ),
    )
