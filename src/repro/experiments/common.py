"""Shared plumbing for the figure-reproduction experiments.

Every figure builds its tasks the same way: it compiles its built-in
scenario document (:mod:`repro.scenario.builtin`), submits the compiled
list to the runner as one batch, and folds the summaries back into its
result keyed by task fields (system, load, memory fraction, application,
fault rate, MAC, channel count), never by list position.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Optional, Tuple

from ..core.comparison import ArchitectureMetrics, GainReport, compare
from ..core.config import Architecture, SystemConfig
from ..metrics.saturation import LoadPointSummary, SweepSummary
from ..parallel.runner import ExperimentRunner, SimulationTask
from ..scenario import ScenarioSpec, builtin_scenario, compile_scenario

#: Runner results: task -> summary.
Summaries = Dict[SimulationTask, LoadPointSummary]


def run_builtin(
    name: str, fidelity: str, runner: Optional[ExperimentRunner], **overrides
) -> Tuple[ScenarioSpec, List[SimulationTask], Summaries]:
    """Compile the built-in ``name`` document and run its tasks as one batch.

    ``overrides`` go straight to the document's generator in
    :mod:`repro.scenario.builtin`, whose signature is the one declaration
    of the figure's knobs (``pattern``, ``faults``, ``fault_rate``,
    ``mac``) and of their defaults.  Returns the spec, the compiled task
    list in document order and the runner's summaries.
    """
    spec = builtin_scenario(name, fidelity, **overrides)
    tasks = compile_scenario(spec)
    active = runner if runner is not None else ExperimentRunner()
    return spec, tasks, active.run(tasks)


def fold_sweeps(
    tasks: List[SimulationTask],
    summaries: Summaries,
    key: Callable[[SimulationTask], Hashable],
) -> Dict[Hashable, SweepSummary]:
    """One load sweep per ``key(task)``, holding every distinct task of that key.

    A sweep orders its points by offered load, so the fold does not depend
    on the order of ``tasks``; the keys keep their first-seen order.
    """
    points: Dict[Hashable, List[LoadPointSummary]] = {}
    for task in dict.fromkeys(tasks):
        points.setdefault(key(task), []).append(summaries[task])
    return {group: SweepSummary(points=sweep) for group, sweep in points.items()}


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
