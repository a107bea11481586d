"""Fig. 2 — peak bandwidth per core and average packet energy, uniform traffic.

Reproduces the bar chart of Section IV-B: the 64-core 4C4M system under
uniform random traffic with a 20 % memory-access proportion, evaluated at
network saturation for the substrate, interposer and wireless architectures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..core.comparison import ArchitectureMetrics
from ..core.config import Architecture
from ..metrics.report import format_heading, format_table
from ..parallel.runner import SimulationTask
from ..scenario import ScenarioSpec
from ..scenario.fidelity import architectures_for_comparison
from .common import Summaries, fold_sweeps, mac_faults_suffix, put_once


@dataclass
class Fig2Result:
    """Per-architecture saturation metrics of the 4C4M system."""

    spec: ScenarioSpec
    metrics: Dict[Architecture, ArchitectureMetrics] = field(default_factory=dict)

    def rows(self) -> List[List[object]]:
        """Table rows in the order the paper's figure lists the bars."""
        ordered = []
        for architecture in architectures_for_comparison():
            metric = self.metrics[architecture]
            ordered.append(
                [
                    metric.name,
                    metric.bandwidth_gbps_per_core,
                    metric.average_packet_energy_nj,
                ]
            )
        return ordered

    def wireless_wins_bandwidth(self) -> bool:
        """Whether the wireless system has the highest bandwidth per core."""
        wireless = self.metrics[Architecture.WIRELESS].bandwidth_gbps_per_core
        return all(
            wireless >= m.bandwidth_gbps_per_core
            for a, m in self.metrics.items()
            if a != Architecture.WIRELESS
        )

    def wireless_wins_energy(self) -> bool:
        """Whether the wireless system has the lowest average packet energy."""
        wireless = self.metrics[Architecture.WIRELESS].average_packet_energy_nj
        return all(
            wireless <= m.average_packet_energy_nj
            for a, m in self.metrics.items()
            if a != Architecture.WIRELESS
        )


def fold(spec: ScenarioSpec, tasks: List[SimulationTask], summaries: Summaries) -> Fig2Result:
    """Fold a ``fig2`` document's summaries into per-architecture metrics.

    Each system's load sweep (all its tasks) becomes one
    :class:`ArchitectureMetrics` at its sustainable saturation point.
    """
    result = Fig2Result(spec)
    for config, sweep in fold_sweeps(tasks, summaries, lambda task: task.config).items():
        metrics = ArchitectureMetrics.from_sweep_summary(config.name, sweep)
        put_once(result.metrics, config.architecture, metrics, config.name)
    return result


def format_report(result: Fig2Result) -> str:
    """Text report with the same rows as the paper's Fig. 2."""
    table = format_table(
        ["Configuration", "Peak bandwidth/core (Gbps)", "Avg packet energy (nJ)"],
        result.rows(),
    )
    traffic = result.spec.traffic
    if traffic.pattern == "uniform":
        workload = (
            "uniform random traffic, 4C4M, "
            f"{int(traffic.memory_fractions[0] * 100)}% memory access"
        )
    else:
        workload = f"{traffic.pattern} traffic, 4C4M"
    heading = format_heading(
        f"Fig. 2 - {workload}{mac_faults_suffix(result.spec)} "
        f"{result.spec.fidelity_tag()}"
    )
    return f"{heading}\n{table}"
