"""Shared helpers for the figure-regeneration benchmarks.

Each benchmark runs one experiment exactly once (``pedantic`` with a single
round) — the quantity of interest is the experiment's *output tables*, which
are printed so the run log contains the regenerated figure data, while
pytest-benchmark records the wall-clock cost of regenerating it.

Experiments execute through the parallel orchestration layer
(:mod:`repro.parallel.runner`).  Set ``REPRO_BENCH_JOBS=8`` to fan the
independent simulation tasks out across worker processes; results are
bit-identical at any job count, only the wall-clock changes.  The result
cache is disabled so every benchmark measures real simulation work.
"""

from __future__ import annotations

import os

import pytest

from repro.scenario.fidelity import get_fidelity
from repro.parallel.runner import ExperimentRunner
from repro.traffic.registry import pattern_spec

#: Fidelity used by the benchmark harness; override with
#: ``REPRO_BENCH_FIDELITY=default`` (or ``paper``) in the environment.
#: Validated through the experiment layer's own lookup, so the benches
#: accept exactly what the CLI accepts.
BENCH_FIDELITY = get_fidelity(os.environ.get("REPRO_BENCH_FIDELITY", "fast")).name

#: Worker processes used by the benchmark harness; override with
#: ``REPRO_BENCH_JOBS=8`` in the environment.
BENCH_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))

#: Synthetic traffic pattern for the load-sweep benches (fig2/fig3/fig4);
#: override with ``REPRO_BENCH_PATTERN=transpose`` etc.  Resolved through
#: the traffic registry — the same construction path as the CLI's
#: ``--pattern`` flag — so an unknown name fails loudly at collection.
BENCH_PATTERN = pattern_spec(os.environ.get("REPRO_BENCH_PATTERN", "uniform")).name


@pytest.fixture
def run_once(benchmark):
    """Run a callable exactly once under pytest-benchmark timing."""

    def _run(function, *args, **kwargs):
        return benchmark.pedantic(
            function, args=args, kwargs=kwargs, rounds=1, iterations=1
        )

    return _run


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
