"""Fig. 3 — average packet latency versus injection load, uniform traffic.

Reproduces the latency curves of Section IV-B for the 4C4M substrate,
interposer and wireless systems: latency rises with offered load and the
wireless system saturates last / sits lowest because its average path is the
shortest ("the wireless multichip has the lowest latency ... because of the
shorter average path lengths due to WIs located inside the chips").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.config import Architecture, SystemConfig
from ..metrics.report import format_heading, format_table
from ..metrics.saturation import SweepSummary
from ..parallel.runner import ExperimentRunner
from ..scenario.fidelity import architectures_for_comparison
from .common import faults_suffix, fold_sweeps, run_builtin


@dataclass
class Fig3Result:
    """Latency-versus-load curves for the three 4C4M architectures."""

    fidelity: str
    loads: List[float]
    pattern: str = "uniform"
    faults: str = "none"
    fault_rate: float = 0.0
    mac: str = ""
    sweeps: Dict[Architecture, SweepSummary] = field(default_factory=dict)

    def curve(self, architecture: Architecture) -> List[Tuple[float, float]]:
        """(offered load, average latency) series for one architecture."""
        return self.sweeps[architecture].latency_curve()

    def zero_load_latency(self, architecture: Architecture) -> float:
        """Latency of the lowest-load point for one architecture."""
        return self.sweeps[architecture].zero_load_latency_cycles()

    def rows(self) -> List[List[object]]:
        """One row per load with the three architectures' latencies."""
        rows = []
        ordered = architectures_for_comparison()
        curves = {a: dict(self.curve(a)) for a in ordered}
        for load in self.loads:
            rows.append([load] + [curves[a].get(load, float("nan")) for a in ordered])
        return rows

    def wireless_has_lowest_zero_load_latency(self) -> bool:
        """Whether the wireless system has the lowest low-load latency."""
        wireless = self.zero_load_latency(Architecture.WIRELESS)
        return all(
            wireless <= self.zero_load_latency(a)
            for a in self.sweeps
            if a != Architecture.WIRELESS
        )


def run(
    fidelity: str = "default",
    runner: Optional[ExperimentRunner] = None,
    pattern: str = "uniform",
    faults: str = "none",
    fault_rate: float = 0.0,
    mac: str = "",
) -> Fig3Result:
    """Run the Fig. 3 experiment at the requested fidelity.

    The tasks are the compiled built-in ``fig3`` document (the fig2 sweep
    grid): every (architecture, load) pair is an independent task, and the
    whole figure is submitted to the runner as one batch.  ``pattern``
    swaps the synthetic workload for any registered traffic pattern;
    ``faults`` / ``fault_rate`` run the curves on a degraded fabric.
    """
    spec, tasks, summaries = run_builtin(
        "fig3", fidelity, runner, pattern=pattern, faults=faults, fault_rate=fault_rate, mac=mac
    )
    return Fig3Result(
        fidelity=spec.fidelity_level,
        loads=sorted({task.load for task in tasks}),
        pattern=pattern,
        faults=faults,
        fault_rate=fault_rate,
        mac=mac,
        sweeps=fold_sweeps(tasks, summaries, lambda task: task.config.architecture),
    )


def format_report(result: Fig3Result) -> str:
    """Text report with the latency-vs-load series of Fig. 3."""
    headers = ["Injection load (pkt/core/cycle)"] + [
        SystemConfig(architecture=a).name for a in architectures_for_comparison()
    ]
    table = format_table(headers, result.rows())
    workload = "" if result.pattern == "uniform" else f", {result.pattern} traffic"
    if result.mac:
        workload += f", mac={result.mac}"
    workload += faults_suffix(result.faults, result.fault_rate)
    heading = format_heading(
        f"Fig. 3 - average packet latency (cycles) vs injection load, 4C4M{workload} "
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
