"""Fig. 8 — MAC protocol study: MAC × channel count × load, wireless systems.

This experiment goes beyond the paper: it sweeps every registered wireless
MAC protocol (:mod:`repro.wireless.mac.registry` — the paper's
control-packet MAC, the token baseline, a static TDMA schedule and an
FDMA-style sub-band MAC) across several orthogonal-channel counts and
offered loads, on two wireless multichip systems:

* **4C4M** — the paper's 64-core, 4-chip, 4-stack system (Figs. 2/3),
* **8C4M** — the disintegrated eight-chip system of Fig. 4, whose larger
  WI population stresses channel arbitration hardest.

Every (system × MAC × channels × load) combination is one independent
task through the parallel runner and the result cache (task schema v4 keys
the MAC override), so the whole study parallelises and re-runs
incrementally like every other figure.

Besides the throughput/latency/energy comparison, the report states that
the wireless plane's **per-channel energy attribution** reconciles: the
per-channel components sum to the aggregate
:class:`~repro.energy.accounting.EnergyBreakdown` shares (``wireless_pj``,
``mac_control_pj``, ``transceiver_static_pj``).  Every run checks this when
it settles and every cache read checks it again
(:func:`repro.noc.stats.channel_energy_mismatches`), so a study that
completes has reconciled on all its combinations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..metrics.report import format_heading, format_table
from ..metrics.saturation import LoadPointSummary
from ..parallel.runner import SimulationTask
from ..scenario import ScenarioSpec
from .common import Summaries, pattern_suffix, preset_label, put_once

#: One study combination: (system label, mac, channels, load).
StudyKey = Tuple[str, str, int, float]


@dataclass
class Fig8Result:
    """Per-combination summaries of the MAC × channel × load study."""

    spec: ScenarioSpec
    macs: List[str]
    channel_counts: List[int]
    loads: List[float]
    points: Dict[StudyKey, LoadPointSummary] = field(default_factory=dict)

    def rows(self) -> List[List[object]]:
        """One row per combination, grouped by system / MAC / channels."""
        rows = []
        for key in sorted(self.points):
            system, mac, channels, load = key
            point = self.points[key]
            rows.append(
                [
                    system,
                    mac,
                    channels,
                    # Pre-format: neighbouring sweep loads differ by less
                    # than the table's default 3-decimal float rendering.
                    f"{load:g}",
                    point.bandwidth_gbps_per_core,
                    point.average_latency_cycles,
                    point.system_packet_energy_nj,
                    point.delivery_ratio,
                    point.mac_control_energy_pj / 1e3,
                ]
            )
        return rows

    def best_mac(self, system: str) -> Tuple[str, int, float]:
        """(MAC, channels, bandwidth) with the highest peak bandwidth."""
        best: Optional[Tuple[str, int, float]] = None
        for (label, mac, channels, _), point in self.points.items():
            if label != system:
                continue
            bandwidth = point.bandwidth_gbps_per_core
            if best is None or bandwidth > best[2]:
                best = (mac, channels, bandwidth)
        if best is None:
            raise KeyError(f"no study points for system {system!r}")
        return best


def fold(spec: ScenarioSpec, tasks: List[SimulationTask], summaries: Summaries) -> Fig8Result:
    """Fold a ``fig8`` document's summaries into one point per study combination."""
    study = Fig8Result(
        spec=spec,
        macs=list(dict.fromkeys(task.mac for task in tasks)),
        channel_counts=sorted({task.config.network.wireless.num_channels for task in tasks}),
        loads=sorted({task.load for task in tasks}),
    )
    for task in dict.fromkeys(tasks):
        channels = task.config.network.wireless.num_channels
        key = (preset_label(task.config), task.mac, channels, task.load)
        put_once(study.points, key, summaries[task], task.label)
    return study


def format_report(result: Fig8Result) -> str:
    """Text report: the study table plus per-system best-MAC lines."""
    table = format_table(
        [
            "System",
            "MAC",
            "Channels",
            "Load",
            "BW/core (Gbps)",
            "Avg latency (cyc)",
            "Energy/pkt (nJ)",
            "Delivery ratio",
            "MAC ctrl (nJ)",
        ],
        result.rows(),
    )
    heading = format_heading(
        f"Fig. 8 - MAC study: {'/'.join(result.macs)} x channels "
        f"{result.channel_counts}{pattern_suffix(result.spec)} "
        f"{result.spec.fidelity_tag()}"
    )
    best_lines = []
    for system in sorted({key[0] for key in result.points}):
        mac, channels, bandwidth = result.best_mac(system)
        best_lines.append(
            f"  {system}: peak bandwidth {bandwidth:.3f} Gbps/core with "
            f"mac={mac}, channels={channels}"
        )
    reconcile = (
        "  per-channel energy reconciles with the aggregate EnergyBreakdown "
        f"for all {len(result.points)} combinations"
    )
    return "{}\n{}\n{}\n{}".format(heading, table, "\n".join(best_lines), reconcile)
