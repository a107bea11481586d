"""Resolve a validated scenario spec into concrete simulation tasks.

The compiler is the bridge between the declarative layer and the parallel
runner: every name in the spec is resolved through the matching registry
(traffic patterns, architectures/presets, MAC protocols, fault scenarios),
the fidelity sentinels are expanded against the requested level, and the
cross product is emitted as plain
:class:`~repro.parallel.runner.SimulationTask` instances.  It is the only
place tasks are built for a figure: every figure experiment compiles its
built-in document (:mod:`repro.scenario.builtin`) and submits the result,
so a ``--scenario`` run and the figure share cache keys (task schema v6)
and fingerprints bit for bit.

Expansion order (stable, documented; the end-to-end benchmark's digests
hash the ordered list):

* synthetic — memory fraction (outer) × system × MAC × channel count ×
  fault severity × offered load (inner);
* application — application (outer) × system × channel count × fault
  severity (inner).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.config import (
    Architecture,
    SystemConfig,
    paper_1c4m,
    paper_4c4m,
    paper_8c4m,
)
from ..parallel.runner import (
    ExperimentRunner,
    SimulationTask,
    application_task,
    uniform_task,
)
from ..metrics.report import format_heading, format_table
from ..metrics.saturation import LoadPointSummary
from .fidelity import Fidelity, get_fidelity
from .spec import FIDELITY_SENTINEL, STUDY_SENTINEL, ScenarioError, ScenarioSpec, SystemSpec

__all__ = [
    "compile_scenario",
    "scenario_fidelity",
    "system_config",
    "run_scenario",
    "format_scenario_report",
    "study_loads",
]

_PRESET_FACTORIES = {"1C4M": paper_1c4m, "4C4M": paper_4c4m, "8C4M": paper_8c4m}


def scenario_fidelity(spec: ScenarioSpec) -> Fidelity:
    """The spec's fidelity level with its cycle/seed overrides applied."""
    level = get_fidelity(spec.fidelity_level)
    if spec.fidelity_overrides:
        level = replace(level, **spec.fidelity_overrides)
    return level


def system_config(system: SystemSpec, index: int = 0) -> SystemConfig:
    """Build one system entry's :class:`SystemConfig`.

    Any constraint violation raised by the configuration dataclasses
    (``num_chips`` must be positive, the TDMA guard must fit its slot, …)
    is re-raised as a :class:`ScenarioError` anchored at the entry's path.
    """
    path = f"systems[{index}]"
    architecture = Architecture(system.architecture)
    try:
        if system.preset:
            config = _PRESET_FACTORIES[system.preset](architecture)
        else:
            config = SystemConfig(architecture=architecture)
        if system.overrides:
            config = replace(config, **system.overrides)
        if system.network:
            config = config.with_network(**system.network)
        if system.wireless:
            config = config.with_wireless(**system.wireless)
    except ValueError as error:
        raise ScenarioError(path, str(error)) from None
    return config


def study_loads(load_points: Sequence[float]) -> List[float]:
    """Low / mid / high offered loads from a fidelity's sweep grid.

    The ``saturation-study`` load sentinel (fig8's MAC study): three points
    keep the MAC × channels × systems cross product tractable while still
    showing each protocol's contention behaviour from idle to saturation.
    """
    points = sorted(set(load_points))
    if len(points) <= 3:
        return points
    return [points[0], points[len(points) // 2], points[-1]]


def _resolve_loads(spec: ScenarioSpec, level: Fidelity) -> List[float]:
    loads = spec.traffic.loads
    if loads == FIDELITY_SENTINEL:
        return list(level.load_points)
    if loads == STUDY_SENTINEL:
        return study_loads(level.load_points)
    return list(loads)


def _resolve_macs(spec: ScenarioSpec) -> List[str]:
    if spec.macs == "all":
        from ..wireless.mac.registry import available_macs

        return available_macs()
    return list(spec.macs)


def _resolve_channels(spec: ScenarioSpec, level: Fidelity) -> List[Optional[int]]:
    if spec.channels is None:
        return [None]
    if spec.channels == FIDELITY_SENTINEL:
        return sorted(set(level.channel_counts))
    return list(spec.channels)


def _resolve_rates(spec: ScenarioSpec, level: Fidelity) -> List[float]:
    rates = spec.faults.rates
    if rates == FIDELITY_SENTINEL:
        return sorted(set(level.fault_rates))
    return list(rates)


def compile_scenario(spec: ScenarioSpec) -> List[SimulationTask]:
    """Expand one validated spec into its ordered simulation-task list.

    Duplicate tasks (e.g. the shared pristine baseline of several fault
    severities) are kept — the runner deduplicates execution — so the
    returned order mirrors the document exactly.
    """
    level = scenario_fidelity(spec)
    configs = [system_config(system, index) for index, system in enumerate(spec.systems)]
    channels = _resolve_channels(spec, level)
    rates = _resolve_rates(spec, level)
    scenario = spec.faults.scenario

    tasks: List[SimulationTask] = []
    if spec.traffic.kind == "synthetic":
        loads = _resolve_loads(spec, level)
        macs = _resolve_macs(spec)
        for fraction in spec.traffic.memory_fractions:
            for config in configs:
                for mac in macs:
                    for count in channels:
                        combo = (
                            config
                            if count is None
                            else config.with_wireless(num_channels=count)
                        )
                        for rate in rates:
                            for load in loads:
                                tasks.append(
                                    uniform_task(
                                        combo,
                                        level,
                                        load=load,
                                        memory_access_fraction=fraction,
                                        pattern=spec.traffic.pattern,
                                        faults=scenario if rate > 0 else "none",
                                        fault_rate=rate,
                                        mac=mac,
                                    )
                                )
        return tasks

    applications = spec.traffic.applications
    if applications == FIDELITY_SENTINEL:
        applications = list(level.applications)
    rate_scale = spec.traffic.rate_scale
    if rate_scale == FIDELITY_SENTINEL:
        rate_scale = level.application_rate_scale
    for application in applications:
        for config in configs:
            for count in channels:
                combo = (
                    config if count is None else config.with_wireless(num_channels=count)
                )
                for rate in rates:
                    tasks.append(
                        application_task(
                            combo,
                            level,
                            application,
                            rate_scale=rate_scale,
                            faults=scenario if rate > 0 else "none",
                            fault_rate=rate,
                        )
                    )
    return tasks


# ----------------------------------------------------------------------
# Running and reporting (the CLI's ``--scenario`` path).
# ----------------------------------------------------------------------


def run_scenario(
    spec: ScenarioSpec, runner: Optional[ExperimentRunner] = None
) -> List[Tuple[SimulationTask, LoadPointSummary]]:
    """Compile and execute one scenario through the :mod:`repro.api` facade.

    Returns ``(task, summary)`` pairs in compiled (document) order, with
    duplicate tasks collapsed to their first occurrence.
    """
    from ..api import sweep

    tasks = compile_scenario(spec)
    results = sweep(tasks, runner=runner) if runner is not None else sweep(tasks)
    ordered: List[Tuple[SimulationTask, LoadPointSummary]] = []
    seen: Dict[SimulationTask, bool] = {}
    for task in tasks:
        if task not in seen:
            seen[task] = True
            ordered.append((task, results[task]))
    return ordered


def format_scenario_report(
    spec: ScenarioSpec,
    points: Sequence[Tuple[SimulationTask, LoadPointSummary]],
) -> str:
    """Generic per-task report table for one executed scenario."""
    rows = []
    for task, point in points:
        rows.append(
            [
                task.label,
                f"{point.offered_load:g}",
                point.bandwidth_gbps_per_core,
                point.average_latency_cycles,
                point.system_packet_energy_nj,
                point.delivery_ratio,
            ]
        )
    table = format_table(
        [
            "Task",
            "Offered load",
            "BW/core (Gbps)",
            "Avg latency (cyc)",
            "Energy/pkt (nJ)",
            "Delivery ratio",
        ],
        rows,
    )
    title = f"Scenario '{spec.name}'"
    if spec.description:
        title += f" - {spec.description}"
    heading = format_heading(f"{title} [fidelity={spec.fidelity_level}]")
    return f"{heading}\n{table}"
