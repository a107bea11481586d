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

Besides the throughput/latency/energy comparison, the study checks the
wireless plane's **per-channel energy attribution**: for every task the
per-channel components carried in the cached summary must sum exactly to
the aggregate :class:`~repro.energy.accounting.EnergyBreakdown` shares
(``wireless_pj``, ``mac_control_pj``, ``transceiver_static_pj``).  A task
that fails to reconcile fails the experiment loudly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..metrics.report import format_heading, format_table
from ..metrics.saturation import LoadPointSummary
from ..parallel.runner import ExperimentRunner
from .common import preset_label, run_builtin

#: Relative tolerance of the per-channel energy reconciliation.  The
#: components are sums of identical float terms accumulated in a different
#: order than the aggregate, so exact equality is not guaranteed — but
#: anything beyond rounding noise is an attribution bug.
RECONCILE_REL_TOL = 1e-9


#: One study combination: (system label, mac, channels, load).
StudyKey = Tuple[str, str, int, float]


@dataclass
class Fig8Result:
    """Per-combination summaries of the MAC × channel × load study."""

    fidelity: str
    macs: List[str]
    channel_counts: List[int]
    loads: List[float]
    pattern: str = "uniform"
    points: Dict[StudyKey, LoadPointSummary] = field(default_factory=dict)
    #: Combinations whose per-channel energy failed to reconcile (must be
    #: empty; kept for the report and the tests).
    reconciliation_failures: List[StudyKey] = field(default_factory=list)

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

    @property
    def reconciled(self) -> bool:
        """Whether every combination's channel energy summed to the aggregate."""
        return not self.reconciliation_failures


def _check_reconciliation(point: LoadPointSummary) -> bool:
    """Per-channel components must sum to the aggregate breakdown shares."""
    sums = {"wireless_pj": 0.0, "mac_control_pj": 0.0, "transceiver_static_pj": 0.0}
    for components in point.channel_energy_pj.values():
        for name in sums:
            sums[name] += components.get(name, 0.0)
    return (
        math.isclose(
            sums["wireless_pj"], point.wireless_energy_pj, rel_tol=RECONCILE_REL_TOL, abs_tol=1e-6
        )
        and math.isclose(
            sums["mac_control_pj"],
            point.mac_control_energy_pj,
            rel_tol=RECONCILE_REL_TOL,
            abs_tol=1e-6,
        )
        and math.isclose(
            sums["transceiver_static_pj"],
            point.transceiver_static_energy_pj,
            rel_tol=RECONCILE_REL_TOL,
            abs_tol=1e-6,
        )
    )


def run(
    fidelity: str = "default",
    runner: Optional[ExperimentRunner] = None,
    pattern: str = "uniform",
    mac: Optional[str] = None,
) -> Fig8Result:
    """Run the MAC study at the requested fidelity.

    ``mac`` pins the study to one registered protocol (the CLI's ``--mac``);
    by default every registered protocol is swept.  The tasks are the
    compiled built-in ``fig8`` document, one runner batch, so the study
    parallelises across ``runner.jobs``.
    """
    spec, tasks, summaries = run_builtin("fig8", fidelity, runner, pattern=pattern, mac=mac)
    study = Fig8Result(
        fidelity=spec.fidelity_level,
        macs=list(dict.fromkeys(task.mac for task in tasks)),
        channel_counts=sorted({task.config.network.wireless.num_channels for task in tasks}),
        loads=sorted({task.load for task in tasks}),
        pattern=pattern,
    )
    for task in tasks:
        channels = task.config.network.wireless.num_channels
        key = (preset_label(task.config), task.mac, channels, task.load)
        point = summaries[task]
        study.points[key] = point
        if not _check_reconciliation(point):
            study.reconciliation_failures.append(key)
    if study.reconciliation_failures:
        broken = ", ".join(map(str, study.reconciliation_failures[:5]))
        raise AssertionError(
            "per-channel energy does not reconcile with the aggregate "
            f"EnergyBreakdown for {len(study.reconciliation_failures)} "
            f"combination(s), e.g. {broken}"
        )
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
    workload = "" if result.pattern == "uniform" else f", {result.pattern} traffic"
    heading = format_heading(
        f"Fig. 8 - MAC study: {'/'.join(result.macs)} x channels "
        f"{result.channel_counts}{workload} [fidelity={result.fidelity}]"
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


def main(
    fidelity: str = "default",
    runner: Optional[ExperimentRunner] = None,
    pattern: str = "uniform",
    mac: Optional[str] = None,
) -> str:
    """Run and format the experiment (used by the CLI and benchmarks)."""
    report = format_report(run(fidelity, runner=runner, pattern=pattern, mac=mac))
    print(report)
    return report
