"""Fig. 6 — gains under application-specific (PARSEC / SPLASH-2) traffic.

Reproduces Section IV-D: the 4C4M wireless system is compared against the
interposer baseline under application traffic generated by the SynFull-
substitute models, with each processing chip executing one thread of the
application and the DRAM stacks shared among threads.  Because the network
is not saturated in steady state, the headline metrics are the percentage
*reductions* in average packet latency and average packet energy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..core.comparison import ArchitectureMetrics, GainReport
from ..core.config import Architecture
from ..metrics.report import format_heading, format_percentage, format_table
from ..parallel.runner import SimulationTask
from ..scenario import ScenarioSpec
from .common import Summaries, put_once, wireless_gains


@dataclass
class Fig6Result:
    """Per-application wireless-versus-interposer gains."""

    spec: ScenarioSpec
    gains: Dict[str, GainReport] = field(default_factory=dict)
    metrics: Dict[str, Dict[Architecture, ArchitectureMetrics]] = field(
        default_factory=dict
    )

    def rows(self) -> List[List[object]]:
        """Table rows, one per application, plus the average row."""
        rows = []
        for application in sorted(self.gains):
            gain = self.gains[application]
            rows.append(
                [
                    application,
                    format_percentage(gain.latency_gain_pct),
                    format_percentage(gain.energy_gain_pct),
                ]
            )
        rows.append(
            [
                "average",
                format_percentage(self.average_latency_gain_pct()),
                format_percentage(self.average_energy_gain_pct()),
            ]
        )
        return rows

    def average_latency_gain_pct(self) -> float:
        """Mean latency reduction over the application set."""
        if not self.gains:
            return 0.0
        return sum(g.latency_gain_pct for g in self.gains.values()) / len(self.gains)

    def average_energy_gain_pct(self) -> float:
        """Mean packet-energy reduction over the application set."""
        if not self.gains:
            return 0.0
        return sum(g.energy_gain_pct for g in self.gains.values()) / len(self.gains)

    def all_applications_improve(self) -> bool:
        """Whether the wireless system wins latency and energy for every app."""
        return all(
            g.latency_gain_pct > 0 and g.energy_gain_pct > 0
            for g in self.gains.values()
        )


def fold(spec: ScenarioSpec, tasks: List[SimulationTask], summaries: Summaries) -> Fig6Result:
    """Fold a ``fig6`` document's summaries into per-application wireless gains."""
    result = Fig6Result(spec)
    for task in dict.fromkeys(tasks):
        per_arch = result.metrics.setdefault(task.application, {})
        metrics = ArchitectureMetrics.from_point_summary(task.config.name, summaries[task])
        put_once(per_arch, task.config.architecture, metrics, task.label)
    result.gains = wireless_gains(result.metrics)
    return result


def format_report(result: Fig6Result) -> str:
    """Text report with the Fig. 6 gain bars."""
    table = format_table(
        ["Application", "% gain in packet latency", "% gain in packet energy"],
        result.rows(),
    )
    heading = format_heading(
        "Fig. 6 - wireless vs interposer gains with application traffic, 4C4M "
        f"{result.spec.fidelity_tag()}"
    )
    return f"{heading}\n{table}"
