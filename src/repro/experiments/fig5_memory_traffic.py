"""Fig. 5 — gains versus memory-access proportion.

Reproduces Section IV-C's second experiment: the 4C4M system is evaluated
while the fraction of traffic addressed to the DRAM stacks is swept from
20 % to 80 %; the percentage gain in saturation bandwidth and packet energy
of the wireless system over the interposer baseline is reported at each
point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..core.comparison import ArchitectureMetrics, GainReport
from ..core.config import Architecture
from ..metrics.report import format_heading, format_percentage, format_table
from ..parallel.runner import SimulationTask
from ..scenario import ScenarioSpec
from .common import Summaries, fold_sweeps, put_once, wireless_gains


@dataclass
class Fig5Result:
    """Wireless-versus-interposer gains at each memory-access proportion."""

    spec: ScenarioSpec
    gains: Dict[float, GainReport] = field(default_factory=dict)
    metrics: Dict[float, Dict[Architecture, ArchitectureMetrics]] = field(
        default_factory=dict
    )

    def rows(self) -> List[List[object]]:
        """Table rows matching the paper's bar groups."""
        rows = []
        for fraction in sorted(self.gains):
            gain = self.gains[fraction]
            rows.append(
                [
                    f"{int(fraction * 100)}%",
                    format_percentage(gain.bandwidth_gain_pct),
                    format_percentage(gain.energy_gain_pct),
                ]
            )
        return rows

    def energy_gains_all_positive(self) -> bool:
        """Whether the wireless system saves energy at every memory fraction."""
        return all(g.energy_gain_pct > 0 for g in self.gains.values())

    def bandwidth_gain_flattens(self) -> bool:
        """Whether the bandwidth gain does not grow as memory traffic rises.

        The paper observes the relative gains *decrease* (and asymptote) as
        the interposer's memory-side bandwidth becomes more useful.
        """
        fractions = sorted(self.gains)
        first = self.gains[fractions[0]].bandwidth_gain_pct
        last = self.gains[fractions[-1]].bandwidth_gain_pct
        return last <= first + 5.0


def fold(spec: ScenarioSpec, tasks: List[SimulationTask], summaries: Summaries) -> Fig5Result:
    """Fold a ``fig5`` document's summaries into per-memory-fraction wireless gains."""
    result = Fig5Result(spec)
    sweeps = fold_sweeps(
        tasks, summaries, lambda task: (task.memory_access_fraction, task.config)
    )
    for (fraction, config), sweep in sweeps.items():
        per_arch = result.metrics.setdefault(fraction, {})
        metrics = ArchitectureMetrics.from_sweep_summary(config.name, sweep)
        put_once(per_arch, config.architecture, metrics, config.name)
    result.gains = wireless_gains(result.metrics)
    return result


def format_report(result: Fig5Result) -> str:
    """Text report with the Fig. 5 gain bars."""
    table = format_table(
        ["% Memory access", "% gain in bandwidth", "% gain in packet energy"],
        result.rows(),
    )
    heading = format_heading(
        "Fig. 5 - wireless vs interposer gains while varying memory accesses, 4C4M "
        f"{result.spec.fidelity_tag()}"
    )
    return f"{heading}\n{table}"
