"""Fig. 7 — resilience: throughput, latency and energy versus fault rate.

This experiment goes beyond the paper: it sweeps the fault severity of one
named fault scenario (default: connectivity-preserving ``random-links``)
and reports how each interconnection architecture degrades.  Three systems
are compared:

* **mesh** — the single-chip 64-core mesh baseline (no inter-die links),
* **interposer** — the 4C4M interposer system,
* **wireless** — the 4C4M wireless system at a 1-WI-per-8-cores density
  (the built-in ``fig7`` document says why).

Every (architecture × fault rate) pair is one independent task at a fixed
mid-range offered load, run through the parallel runner and the result
cache like every other figure; the ``rate = 0`` column is the pristine
baseline, bit-identical to a fault-free run of the same task.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..metrics.report import format_heading, format_table
from ..metrics.saturation import LoadPointSummary
from ..parallel.runner import SimulationTask
from ..scenario import ScenarioSpec, system_config
from .common import Summaries, pattern_suffix, put_once


@dataclass
class Fig7Result:
    """Per-architecture degradation curves over the fault-rate sweep."""

    spec: ScenarioSpec
    fault_rates: List[float]
    #: architecture label -> [(fault rate, point summary)] in rate order.
    curves: Dict[str, List[Tuple[float, LoadPointSummary]]] = field(
        default_factory=dict
    )

    def baseline(self, label: str) -> LoadPointSummary:
        """The pristine (lowest-rate) point of one architecture."""
        return self.curves[label][0][1]

    def throughput_retention(self, label: str) -> float:
        """Worst-case accepted-throughput fraction versus the baseline."""
        base = self.baseline(label).accepted_flits_per_core_per_cycle
        if base <= 0:
            return 1.0
        return min(
            point.accepted_flits_per_core_per_cycle / base
            for _, point in self.curves[label]
        )

    def rows(self) -> List[List[object]]:
        """One row per (architecture, fault rate) with the headline metrics."""
        rows = []
        for label, curve in self.curves.items():
            for rate, point in curve:
                rows.append(
                    [
                        label,
                        rate,
                        point.bandwidth_gbps_per_core,
                        point.average_latency_cycles,
                        point.system_packet_energy_nj,
                        point.delivery_ratio,
                        point.links_failed + point.transceivers_failed,
                        point.packets_rerouted,
                        point.packets_dropped_unroutable,
                    ]
                )
        return rows


def fold(spec: ScenarioSpec, tasks: List[SimulationTask], summaries: Summaries) -> Fig7Result:
    """Fold a ``fig7`` document's summaries into one fault-rate curve per system label."""
    labels = {
        system_config(system, index): system.label for index, system in enumerate(spec.systems)
    }
    curves: Dict[str, Dict[float, LoadPointSummary]] = {label: {} for label in labels.values()}
    for task in dict.fromkeys(tasks):
        put_once(curves[labels[task.config]], task.fault_rate, summaries[task], task.label)
    return Fig7Result(
        spec=spec,
        fault_rates=sorted({task.fault_rate for task in tasks}),
        curves={label: sorted(points.items()) for label, points in curves.items()},
    )


def format_report(result: Fig7Result) -> str:
    """Text report: the degradation table plus per-architecture retention."""
    table = format_table(
        [
            "Architecture",
            "Fault rate",
            "BW/core (Gbps)",
            "Avg latency (cyc)",
            "Energy/pkt (nJ)",
            "Delivery ratio",
            "Components failed",
            "Rerouted",
            "Dropped",
        ],
        result.rows(),
    )
    spec = result.spec
    heading = format_heading(
        f"Fig. 7 - resilience under '{spec.faults.scenario}' faults{pattern_suffix(spec)} "
        f"(load={spec.traffic.loads[0]:g}) {spec.fidelity_tag()}"
    )
    retention = "\n".join(
        f"  {label}: worst-case throughput retention "
        f"{result.throughput_retention(label):.1%}"
        for label in result.curves
    )
    return f"{heading}\n{table}\n{retention}"
