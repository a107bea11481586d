"""Shared helpers for the figure-regeneration benchmarks.

Each benchmark runs one figure's built-in scenario document exactly once
(``pedantic`` with a single round) and folds the summaries into the
figure's result — the quantity of interest is the figure's *output
tables*, which are printed so the run log contains the regenerated figure
data, while pytest-benchmark records the wall-clock cost of running the
tasks.

Experiments execute through the parallel orchestration layer
(:mod:`repro.parallel.runner`).  Set ``REPRO_BENCH_JOBS=8`` to fan the
independent simulation tasks out across worker processes; results are
bit-identical at any job count, only the wall-clock changes.  The result
cache is disabled so every benchmark measures real simulation work.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments import FIGURES
from repro.parallel.runner import ExperimentRunner
from repro.scenario import builtin_scenario, compile_scenario
from repro.scenario.fidelity import get_fidelity
from repro.traffic.registry import PATTERNS

#: Fidelity used by the benchmark harness; override with
#: ``REPRO_BENCH_FIDELITY=default`` (or ``paper``) in the environment.
#: Validated through the experiment layer's own lookup, so the benches
#: accept exactly what the CLI accepts.
BENCH_FIDELITY = get_fidelity(os.environ.get("REPRO_BENCH_FIDELITY", "fast")).name

#: Worker processes used by the benchmark harness; override with
#: ``REPRO_BENCH_JOBS=8`` in the environment.
BENCH_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))

#: Synthetic traffic pattern for the load-sweep benches (fig2/fig3/fig4);
#: override with ``REPRO_BENCH_PATTERN=transpose`` etc.  Checked against
#: the traffic pattern table — the names the CLI's ``--pattern`` flag
#: accepts — so an unknown name fails loudly at collection.
BENCH_PATTERN = os.environ.get("REPRO_BENCH_PATTERN", "uniform")
if BENCH_PATTERN not in PATTERNS:
    raise pytest.UsageError(
        f"REPRO_BENCH_PATTERN={BENCH_PATTERN!r}; known patterns: {', '.join(sorted(PATTERNS))}"
    )


@pytest.fixture
def regenerate(benchmark, bench_fidelity, bench_runner):
    """Fold figure ``name``'s result; its tasks run once under pytest-benchmark timing.

    ``knobs`` go to the figure's built-in document generator.
    """

    def _regenerate(name, **knobs):
        spec = builtin_scenario(name, bench_fidelity, **knobs)
        tasks = compile_scenario(spec)
        summaries = benchmark.pedantic(bench_runner.run, args=(tasks,), rounds=1, iterations=1)
        return FIGURES[name].fold(spec, tasks, summaries)

    return _regenerate


@pytest.fixture
def bench_fidelity():
    """Fidelity level the benchmarks run at."""
    return BENCH_FIDELITY


@pytest.fixture
def bench_pattern():
    """Registered traffic pattern the load-sweep benches run."""
    return BENCH_PATTERN


@pytest.fixture
def bench_runner():
    """Experiment runner for benchmarks: configurable jobs, cache disabled."""
    return ExperimentRunner(jobs=BENCH_JOBS, cache_dir=None)
