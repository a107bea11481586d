"""Shared plumbing for the figure folds.

A figure's ``fold(spec, tasks, summaries)`` reads the summaries of its
compiled scenario document back into its result, keyed by task fields
(system, load, memory fraction, application, fault rate, MAC, channel
count), never by list position; these are the helpers the folds and the
report headings share.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List

from ..core.comparison import ArchitectureMetrics, GainReport, compare
from ..core.config import Architecture, SystemConfig
from ..metrics.saturation import LoadPointSummary, SweepSummary
from ..parallel.runner import SimulationTask
from ..scenario import ScenarioSpec

#: Runner results: task -> summary.
Summaries = Dict[SimulationTask, LoadPointSummary]


def put_once(entries: Dict, key: Hashable, value: object, source: str) -> None:
    """``entries[key] = value``, where ``source`` names the task or system read.

    A fold keys each distinct task by the fields its table shows, so a
    second value for one key means the document varies a field the table
    does not show (a second MAC or channel count, say), and one result
    would silently hide the other; that raises :class:`ValueError`.
    """
    if key in entries:
        raise ValueError(
            f"{source}: another task fills the same table entry; "
            "the document varies a field this table does not show"
        )
    entries[key] = value


def fold_sweeps(
    tasks: List[SimulationTask],
    summaries: Summaries,
    key: Callable[[SimulationTask], Hashable],
) -> Dict[Hashable, SweepSummary]:
    """One load sweep per ``key(task)``, holding every distinct task of that key.

    A sweep orders its points by offered load, so the fold does not depend
    on the order of ``tasks``; the keys keep their first-seen order.  Two
    tasks of one key at one load raise :class:`ValueError` (:func:`put_once`).
    """
    points: Dict[Hashable, Dict[float, LoadPointSummary]] = {}
    for task in dict.fromkeys(tasks):
        put_once(points.setdefault(key(task), {}), task.load, summaries[task], task.label)
    return {group: SweepSummary(points=list(sweep.values())) for group, sweep in points.items()}


def preset_label(config: SystemConfig) -> str:
    """The paper's preset name of a system, e.g. ``4C4M``."""
    return f"{config.num_chips}C{config.num_memory_stacks}M"


def wireless_gains(
    metrics: Dict[Hashable, Dict[Architecture, ArchitectureMetrics]],
) -> Dict[Hashable, GainReport]:
    """Wireless-over-interposer gains of every group of per-architecture metrics."""
    return {
        group: compare(per_arch[Architecture.WIRELESS], per_arch[Architecture.INTERPOSER])
        for group, per_arch in metrics.items()
    }


def pattern_suffix(spec: ScenarioSpec) -> str:
    """Heading suffix naming a non-uniform traffic pattern ("" if uniform)."""
    pattern = spec.traffic.pattern
    return "" if pattern == "uniform" else f", {pattern} traffic"


def mac_faults_suffix(spec: ScenarioSpec) -> str:
    """Heading suffix naming the pinned MAC and the injected fault scenario.

    For the single-MAC, single-rate documents of fig2-fig4; "" when the
    document keeps the system's MAC and a pristine fabric.
    """
    suffix = f", mac={spec.macs[0]}" if spec.macs[0] else ""
    if spec.faults.scenario != "none":
        suffix += f", faults={spec.faults.scenario}@{spec.faults.rates[0]:g}"
    return suffix
