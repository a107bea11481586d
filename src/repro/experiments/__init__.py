"""Experiment harnesses that regenerate every figure of the paper's evaluation.

Each module reproduces one figure (see EXPERIMENTS.md for the figure →
module mapping) as a fold over its scenario document:
``fold(spec, tasks, summaries)`` reads the summaries of the compiled
document into the figure's result, and ``format_report(result)`` prints
its table.  :func:`report` runs any document and prints the table of the
figure its ``name`` names, so ``python -m repro.experiments fig4``,
``--scenario fig4`` and an edited copy of fig4's document all take one
path.

The figures' workloads are the built-in scenario documents
(:mod:`repro.scenario.builtin`); :func:`repro.scenario.run_scenario`
compiles them into independent, deterministically seeded simulation
tasks, which the parallel orchestration layer in
:mod:`repro.parallel.runner` fans out across worker processes and caches
on disk keyed by a content hash of the task.
The supported programmatic entry surface is the :mod:`repro.api` facade.
"""

from __future__ import annotations

from types import ModuleType
from typing import Dict, Optional

from ..parallel.runner import ExperimentRunner
from ..scenario import ScenarioError, ScenarioSpec, format_scenario_report, run_scenario
from . import (
    fig2_uniform,
    fig3_latency,
    fig4_disintegration,
    fig5_memory_traffic,
    fig6_applications,
    fig7_resilience,
    fig8_mac_study,
)

#: Figure name (a built-in scenario name) -> the module holding its
#: ``fold`` and ``format_report``.
FIGURES: Dict[str, ModuleType] = {
    "fig2": fig2_uniform,
    "fig3": fig3_latency,
    "fig4": fig4_disintegration,
    "fig5": fig5_memory_traffic,
    "fig6": fig6_applications,
    "fig7": fig7_resilience,
    "fig8": fig8_mac_study,
}


def report(spec: ScenarioSpec, runner: Optional[ExperimentRunner] = None) -> str:
    """Run one scenario document and return its report.

    A document whose ``name`` is a figure prints that figure's table;
    any other document prints the generic per-task table.  A figure
    document whose tasks the figure cannot read (a system its table
    needs is missing, or two tasks differ only in a field the table does
    not show) raises :class:`ScenarioError` at ``name``.  Its tasks have
    run by then, so with a cached runner the renamed document shows them
    in the generic table without simulating again.
    """
    points = run_scenario(spec, runner)
    figure = FIGURES.get(spec.name)
    if figure is None:
        return format_scenario_report(spec, points)
    summaries = dict(points)
    try:
        return figure.format_report(figure.fold(spec, list(summaries), summaries))
    except (LookupError, ValueError) as error:
        raise ScenarioError(
            "name",
            f"{spec.name}'s table cannot be read from this document's tasks "
            f"({type(error).__name__}: {error}); give the document another name "
            "for the generic per-task report",
        ) from error


__all__ = [
    "FIGURES",
    "fig2_uniform",
    "fig3_latency",
    "fig4_disintegration",
    "fig5_memory_traffic",
    "fig6_applications",
    "fig7_resilience",
    "fig8_mac_study",
    "report",
]
