"""Fig. 3 — average packet latency versus injection load, uniform traffic.

Reproduces the latency curves of Section IV-B for the 4C4M substrate,
interposer and wireless systems: latency rises with offered load and the
wireless system saturates last / sits lowest because its average path is the
shortest ("the wireless multichip has the lowest latency ... because of the
shorter average path lengths due to WIs located inside the chips").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..core.config import Architecture, SystemConfig
from ..metrics.report import format_heading, format_table
from ..metrics.saturation import SweepSummary
from ..parallel.runner import SimulationTask
from ..scenario import ScenarioSpec
from ..scenario.fidelity import architectures_for_comparison
from .common import Summaries, fold_sweeps, mac_faults_suffix, pattern_suffix


@dataclass
class Fig3Result:
    """Latency-versus-load curves for the three 4C4M architectures."""

    spec: ScenarioSpec
    loads: List[float]
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


def fold(spec: ScenarioSpec, tasks: List[SimulationTask], summaries: Summaries) -> Fig3Result:
    """Fold a ``fig3`` document's summaries into one latency curve per architecture."""
    return Fig3Result(
        spec=spec,
        loads=sorted({task.load for task in tasks}),
        sweeps=fold_sweeps(tasks, summaries, lambda task: task.config.architecture),
    )


def format_report(result: Fig3Result) -> str:
    """Text report with the latency-vs-load series of Fig. 3."""
    headers = ["Injection load (pkt/core/cycle)"] + [
        SystemConfig(architecture=a).name for a in architectures_for_comparison()
    ]
    table = format_table(headers, result.rows())
    spec = result.spec
    heading = format_heading(
        "Fig. 3 - average packet latency (cycles) vs injection load, "
        f"4C4M{pattern_suffix(spec)}{mac_faults_suffix(spec)} "
        f"{spec.fidelity_tag()}"
    )
    return f"{heading}\n{table}"
