"""Fig. 2 — peak bandwidth per core and average packet energy, uniform traffic.

Reproduces the bar chart of Section IV-B: the 64-core 4C4M system under
uniform random traffic with a 20 % memory-access proportion, evaluated at
network saturation for the substrate, interposer and wireless architectures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.comparison import ArchitectureMetrics
from ..core.config import Architecture
from ..metrics.report import format_heading, format_table
from ..parallel.runner import ExperimentRunner
from ..scenario.fidelity import architectures_for_comparison
from .common import faults_suffix, fold_sweeps, run_builtin


@dataclass
class Fig2Result:
    """Per-architecture saturation metrics of the 4C4M system."""

    fidelity: str
    memory_access_fraction: float
    pattern: str = "uniform"
    faults: str = "none"
    fault_rate: float = 0.0
    mac: str = ""
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


def run(
    fidelity: str = "default",
    runner: Optional[ExperimentRunner] = None,
    pattern: str = "uniform",
    faults: str = "none",
    fault_rate: float = 0.0,
    mac: str = "",
) -> Fig2Result:
    """Run the Fig. 2 experiment at the requested fidelity.

    The tasks are the compiled built-in ``fig2`` document: all load points
    of all three architectures, submitted to the runner as one batch, so
    the whole figure parallelises across ``runner.jobs`` worker processes.
    ``pattern`` swaps the synthetic workload for any registered traffic
    pattern (transpose, bit-reversal, bursty-hotspot, ...), keeping the
    same sweep and saturation analysis; ``faults`` / ``fault_rate`` run the
    whole figure on a degraded fabric (any registered fault scenario; a
    zero rate runs the pristine tasks); ``mac`` pins the wireless
    architecture's MAC protocol by registered name (e.g. the token
    baseline instead of the paper's control-packet MAC).
    """
    spec, tasks, summaries = run_builtin(
        "fig2", fidelity, runner, pattern=pattern, faults=faults, fault_rate=fault_rate, mac=mac
    )
    result = Fig2Result(
        fidelity=spec.fidelity_level,
        memory_access_fraction=spec.traffic.memory_fractions[0],
        pattern=pattern,
        faults=faults,
        fault_rate=fault_rate,
        mac=mac,
    )
    for config, sweep in fold_sweeps(tasks, summaries, lambda task: task.config).items():
        result.metrics[config.architecture] = ArchitectureMetrics.from_sweep_summary(
            config.name, sweep
        )
    return result


def format_report(result: Fig2Result) -> str:
    """Text report with the same rows as the paper's Fig. 2."""
    table = format_table(
        ["Configuration", "Peak bandwidth/core (Gbps)", "Avg packet energy (nJ)"],
        result.rows(),
    )
    if result.pattern == "uniform":
        workload = (
            "uniform random traffic, 4C4M, "
            f"{int(result.memory_access_fraction * 100)}% memory access"
        )
    else:
        workload = f"{result.pattern} traffic, 4C4M"
    if result.mac:
        workload += f", mac={result.mac}"
    workload += faults_suffix(result.faults, result.fault_rate)
    heading = format_heading(
        f"Fig. 2 - {workload} [fidelity={result.fidelity}]"
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
