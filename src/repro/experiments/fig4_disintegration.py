"""Fig. 4 — gains versus chip-to-chip traffic (disintegration study).

Reproduces Section IV-C's first experiment: the 64-core system is kept at a
constant total core count, memory capacity and combined processing area
while being disintegrated into 1, 4 or 8 chips (1C4M, 4C4M, 8C4M).  The
off-chip traffic proportion rises accordingly (20 %, 80 %, 90 % at a 20 %
memory-access ratio) and the percentage gain in saturation bandwidth and
packet energy of the wireless system over the interposer baseline is
reported for each configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.comparison import ArchitectureMetrics, GainReport
from ..core.config import Architecture
from ..metrics.report import format_heading, format_percentage, format_table
from ..parallel.runner import ExperimentRunner
from .common import faults_suffix, fold_sweeps, preset_label, run_builtin, wireless_gains

#: The configurations of the study with the off-chip traffic share the paper
#: quotes for them.
CONFIGURATIONS: Tuple[Tuple[str, int], ...] = (
    ("1C4M", 20),
    ("4C4M", 80),
    ("8C4M", 90),
)


@dataclass
class Fig4Result:
    """Wireless-versus-interposer gains for each disintegration level."""

    fidelity: str
    pattern: str = "uniform"
    faults: str = "none"
    fault_rate: float = 0.0
    mac: str = ""
    gains: Dict[str, GainReport] = field(default_factory=dict)
    metrics: Dict[str, Dict[Architecture, ArchitectureMetrics]] = field(
        default_factory=dict
    )

    def rows(self) -> List[List[object]]:
        """Table rows matching the paper's bar groups."""
        rows = []
        for label, offchip_pct in CONFIGURATIONS:
            gain = self.gains[label]
            rows.append(
                [
                    f"{offchip_pct}% ({label})",
                    format_percentage(gain.bandwidth_gain_pct),
                    format_percentage(gain.energy_gain_pct),
                ]
            )
        return rows

    def energy_gains_all_positive(self) -> bool:
        """Whether the wireless system saves energy at every level."""
        return all(g.energy_gain_pct > 0 for g in self.gains.values())


def run(
    fidelity: str = "default",
    runner: Optional[ExperimentRunner] = None,
    pattern: str = "uniform",
    faults: str = "none",
    fault_rate: float = 0.0,
    mac: str = "",
) -> Fig4Result:
    """Run the Fig. 4 experiment at the requested fidelity.

    The tasks are the compiled built-in ``fig4`` document: all
    (disintegration level × architecture × load point) tasks, submitted to
    the runner as one batch.  ``pattern`` swaps the synthetic workload for
    any registered traffic pattern; ``faults`` / ``fault_rate`` run the
    study on a degraded fabric.
    """
    spec, tasks, summaries = run_builtin(
        "fig4", fidelity, runner, pattern=pattern, faults=faults, fault_rate=fault_rate, mac=mac
    )
    result = Fig4Result(
        fidelity=spec.fidelity_level,
        pattern=pattern,
        faults=faults,
        fault_rate=fault_rate,
        mac=mac,
    )
    for config, sweep in fold_sweeps(tasks, summaries, lambda task: task.config).items():
        per_arch = result.metrics.setdefault(preset_label(config), {})
        per_arch[config.architecture] = ArchitectureMetrics.from_sweep_summary(config.name, sweep)
    result.gains = wireless_gains(result.metrics)
    return result


def format_report(result: Fig4Result) -> str:
    """Text report with the Fig. 4 gain bars."""
    table = format_table(
        ["% Chip-to-chip traffic (config)", "% gain in bandwidth", "% gain in packet energy"],
        result.rows(),
    )
    workload = "" if result.pattern == "uniform" else f", {result.pattern} traffic"
    if result.mac:
        workload += f", mac={result.mac}"
    workload += faults_suffix(result.faults, result.fault_rate)
    heading = format_heading(
        f"Fig. 4 - wireless vs interposer gains under disintegration{workload} "
        f"[fidelity={result.fidelity}]"
    )
    return f"{heading}\n{table}"


def main(
    fidelity: str = "default",
    runner: Optional[ExperimentRunner] = None,
    pattern: str = "uniform",
    faults: str = "none",
    fault_rate: float = 0.0,
    mac: str = "",
) -> str:
    """Run and format the experiment (used by the CLI and benchmarks)."""
    report = format_report(
        run(
            fidelity,
            runner=runner,
            pattern=pattern,
            faults=faults,
            fault_rate=fault_rate,
            mac=mac,
        )
    )
    print(report)
    return report
