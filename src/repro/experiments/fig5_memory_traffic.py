"""Fig. 5 — gains versus memory-access proportion.

Reproduces Section IV-C's second experiment: the 4C4M system is evaluated
while the fraction of traffic addressed to the DRAM stacks is swept from
20 % to 80 %; the percentage gain in saturation bandwidth and packet energy
of the wireless system over the interposer baseline is reported at each
point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.comparison import ArchitectureMetrics, GainReport
from ..core.config import Architecture
from ..metrics.report import format_heading, format_percentage, format_table
from ..parallel.runner import ExperimentRunner
from .common import fold_sweeps, run_builtin, wireless_gains


@dataclass
class Fig5Result:
    """Wireless-versus-interposer gains at each memory-access proportion."""

    fidelity: str
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


def run(
    fidelity: str = "default",
    runner: Optional[ExperimentRunner] = None,
) -> Fig5Result:
    """Run the Fig. 5 experiment at the requested fidelity.

    The tasks are the compiled built-in ``fig5`` document: all (memory
    fraction × architecture × load point) tasks, submitted to the runner as
    one batch.
    """
    spec, tasks, summaries = run_builtin("fig5", fidelity, runner)
    result = Fig5Result(fidelity=spec.fidelity_level)
    sweeps = fold_sweeps(
        tasks, summaries, lambda task: (task.memory_access_fraction, task.config)
    )
    for (fraction, config), sweep in sweeps.items():
        per_arch = result.metrics.setdefault(fraction, {})
        per_arch[config.architecture] = ArchitectureMetrics.from_sweep_summary(config.name, sweep)
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
        f"[fidelity={result.fidelity}]"
    )
    return f"{heading}\n{table}"


def main(fidelity: str = "default", runner: Optional[ExperimentRunner] = None) -> str:
    """Run and format the experiment (used by the CLI and benchmarks)."""
    report = format_report(run(fidelity, runner=runner))
    print(report)
    return report
