"""Experiment harnesses that regenerate every figure of the paper's evaluation.

Each module reproduces one figure (see EXPERIMENTS.md for the figure →
module mapping) and can be run from the command line
(``python -m repro.experiments fig4 --jobs 8``), from the pytest benchmarks
in ``benchmarks/``, or programmatically via its ``run`` function.

Every figure compiles its built-in scenario document
(:mod:`repro.scenario.builtin`) into independent, deterministically
seeded simulation tasks, which the parallel orchestration layer in
:mod:`repro.parallel.runner` fans out across worker processes and caches
on disk keyed by a content hash of the task.
The supported programmatic entry surface is the :mod:`repro.api` facade.
"""

from . import (
    fig2_uniform,
    fig3_latency,
    fig4_disintegration,
    fig5_memory_traffic,
    fig6_applications,
    fig7_resilience,
    fig8_mac_study,
)

__all__ = [
    "fig2_uniform",
    "fig3_latency",
    "fig4_disintegration",
    "fig5_memory_traffic",
    "fig6_applications",
    "fig7_resilience",
    "fig8_mac_study",
]
