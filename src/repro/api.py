"""The supported programmatic entry surface of the reproduction.

Three verbs cover every way of running simulations; everything else in the
package is implementation detail that may move between releases:

* :func:`run` — execute one :class:`~repro.parallel.runner.SimulationTask`
  synchronously and return its :class:`~repro.metrics.saturation.LoadPointSummary`.
* :func:`sweep` — execute many tasks through the parallel runner (worker
  fan-out, content-hash result cache written as each task finishes, so
  a killed sweep resumes from the cache when rerun).
* :func:`compile_scenario` — turn a scenario document (path, mapping,
  built-in name or parsed :class:`~repro.scenario.ScenarioSpec`) into its
  ordered task list without running anything.

Plus one constructor shared by the CLI, the benchmarks and the tests:
:func:`make_runner` (a configured
:class:`~repro.parallel.runner.ExperimentRunner`).

Imports inside the functions are deliberate: the facade sits at the top of
the package and must stay importable without dragging in the scenario
layer, and without creating import cycles with the modules it fronts.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Union

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .metrics.saturation import LoadPointSummary
    from .parallel.runner import ExperimentRunner, SimulationTask
    from .scenario import ScenarioSpec

__all__ = [
    "compile_scenario",
    "make_runner",
    "resolve_scenario",
    "run",
    "sweep",
]

#: A scenario in any accepted form: a parsed spec, a raw document mapping,
#: a built-in scenario name (``"fig2"`` … ``"fig8"``) or a YAML/JSON path.
ScenarioSource = Union["ScenarioSpec", Mapping, str, "os.PathLike[str]"]


def make_runner(
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    show_progress: bool = False,
    profile: bool = False,
) -> "ExperimentRunner":
    """A configured :class:`~repro.parallel.runner.ExperimentRunner`.

    The single construction path shared by :func:`sweep`, the experiments
    CLI and the end-to-end benchmark, so runner defaults cannot drift
    between entry points.  Caching engages only when ``cache_dir`` is
    given (pass :data:`repro.parallel.runner.DEFAULT_CACHE_DIR` for the
    CLI's default); ``cache_dir=None`` runs uncached, matching a bare
    ``ExperimentRunner()``.
    """
    from .parallel.runner import ExperimentRunner

    return ExperimentRunner(
        jobs=jobs,
        cache_dir=cache_dir,
        show_progress=show_progress,
        profile=profile,
    )


def run(task: "SimulationTask", profile: bool = False) -> "LoadPointSummary":
    """Execute one task synchronously and summarise the run, uncached."""
    from .metrics.saturation import LoadPointSummary
    from .parallel.runner import execute_task

    return LoadPointSummary.from_dict(execute_task(task, profile=profile))


def sweep(
    tasks: Sequence["SimulationTask"],
    runner: Optional["ExperimentRunner"] = None,
    **runner_kwargs,
) -> Dict["SimulationTask", "LoadPointSummary"]:
    """Execute many tasks through the parallel runner.

    Results are keyed by task and bit-identical at any job count; cached
    results are served without re-simulation.  With a cache, each task's
    entry is written as the task finishes, so rerunning a killed sweep
    simulates only the tasks that had not finished.  Pass a pre-configured
    ``runner`` to share its cache counters across calls, or keyword
    arguments accepted by :func:`make_runner` to build a one-shot runner.
    """
    if runner is not None and runner_kwargs:
        raise TypeError("pass either a runner or runner keyword arguments, not both")
    active = runner if runner is not None else make_runner(**runner_kwargs)
    return active.run(tasks)


def resolve_scenario(
    source: ScenarioSource, fidelity: Optional[str] = None
) -> "ScenarioSpec":
    """Normalise any accepted scenario form into a validated spec.

    ``source`` may be a parsed :class:`~repro.scenario.ScenarioSpec`, a raw
    document mapping, a built-in scenario name (``"fig2"`` … ``"fig8"``)
    or a YAML/JSON file path.  ``fidelity`` overrides the document's own
    level (it *selects* the level of a built-in, which has no document).
    """
    from dataclasses import replace

    from .scenario import (
        BUILTIN_SCENARIOS,
        ScenarioSpec,
        builtin_scenario,
        load_scenario,
        parse_scenario,
    )

    if isinstance(source, ScenarioSpec):
        spec = source
    elif isinstance(source, Mapping):
        spec = parse_scenario(source)
    else:
        name = os.fspath(source)
        if name in BUILTIN_SCENARIOS:
            return builtin_scenario(name, fidelity or "default")
        spec = load_scenario(name)
    if fidelity is not None:
        spec = replace(spec, fidelity_level=fidelity)
    return spec


def compile_scenario(
    source: ScenarioSource, fidelity: Optional[str] = None
) -> List["SimulationTask"]:
    """Compile a scenario into its ordered simulation-task list.

    Accepts every form :func:`resolve_scenario` does and runs nothing:
    the returned tasks feed :func:`sweep` and share the result cache with
    the figure CLIs bit for bit.
    """
    from .scenario import compile_scenario as compile_spec

    return compile_spec(resolve_scenario(source, fidelity))
