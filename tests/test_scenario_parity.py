"""Every figure is a fold over its compiled built-in document.

A figure builds no tasks of its own: :func:`repro.experiments.report`
submits the compiled document and the figure's ``fold`` reads the
summaries back, so ``--scenario figN`` and the figure share cache keys bit
for bit.  These tests drive each figure with a stub runner that records
the submitted list and answers every task with a distinct canned summary —
nothing is simulated — and check both halves of the contract: the
submitted list is the compiled document, and the fold reads every distinct
task into the result exactly once.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest

from repro.core.comparison import ArchitectureMetrics
from repro.experiments import FIGURES, report
from repro.metrics.saturation import LoadPointSummary, SweepSummary
from repro.parallel.runner import ExperimentRunner
from repro.scenario import builtin_scenario, builtin_scenario_names, compile_scenario

FIDELITY = "fast"


class CannedRunner(ExperimentRunner):
    """Records the submitted tasks and answers each with its own summary.

    Summary ``i`` carries ``i + 1`` in every metric, so no two tasks share
    a result and a fold that drops or merges tasks cannot hide it.
    """

    def __init__(self):
        super().__init__(jobs=1, cache_dir=None, show_progress=False)
        self.submitted = None
        self.canned = {}

    def run(self, tasks):
        self.submitted = list(tasks)
        for task in self.submitted:
            if task not in self.canned:
                value = float(len(self.canned) + 1)
                self.canned[task] = LoadPointSummary(
                    offered_load=task.load,
                    nominal_packet_length_flits=1,
                    accepted_flits_per_core_per_cycle=value,
                    bandwidth_gbps_per_core=value,
                    average_latency_cycles=value,
                    average_packet_energy_nj=value,
                    system_packet_energy_nj=value,
                    packets_delivered=1,
                    delivery_ratio=1.0,
                )
        return dict(self.canned)


def test_every_figure_has_a_builtin_spec():
    assert builtin_scenario_names() == list(FIGURES)


# ----------------------------------------------------------------------
# The submitted list is the compiled built-in document.
# ----------------------------------------------------------------------

#: Each figure's default form, then every flag variant the CLI threads in
#: (the CLI resolves a bare ``--faults`` to its default rate, 0.1).
FORMS = [pytest.param(name, {}, id=name) for name in sorted(FIGURES)] + [
    pytest.param("fig2", {"pattern": "transpose", "mac": "token"}, id="fig2-transpose-token"),
    pytest.param("fig3", {"faults": "random-links", "fault_rate": 0.1}, id="fig3-random-links"),
    pytest.param(
        "fig4",
        {"faults": "cascading", "fault_rate": 0.25, "mac": "fdma"},
        id="fig4-cascading-fdma",
    ),
    pytest.param(
        "fig7", {"faults": "hub-transceiver-loss", "fault_rate": 0.3}, id="fig7-pinned-rate"
    ),
    pytest.param("fig7", {"faults": "none"}, id="fig7-none"),
    pytest.param("fig8", {"mac": "tdma"}, id="fig8-tdma"),
]


@pytest.mark.parametrize("name, flags", FORMS)
def test_builtin_spec_matches_default_flag_form(name, flags):
    """A figure's report submits its compiled document, flags and all, and
    prints the figure's table."""
    runner = CannedRunner()
    spec = builtin_scenario(name, FIDELITY, **flags)
    text = report(spec, runner)
    assert runner.submitted == compile_scenario(spec)
    assert text.startswith(f"Fig. {name[-1]} - ")


def test_zero_fault_rate_submits_the_pristine_tasks():
    """``--faults X --fault-rate 0`` is served by the pristine cache entries."""
    pristine = CannedRunner()
    report(builtin_scenario("fig2", FIDELITY), pristine)
    zero = CannedRunner()
    text = report(builtin_scenario("fig2", FIDELITY, faults="random-links", fault_rate=0.0), zero)
    assert zero.submitted == pristine.submitted
    assert all(task.faults == "none" for task in zero.submitted)
    assert "faults=random-links@0 [" in text


# ----------------------------------------------------------------------
# The fold reads every distinct task into the result exactly once.
# ----------------------------------------------------------------------


def _sweep_points(sweep):
    """A sweep's points; one per load, or the fold merged two sweeps."""
    assert len(set(sweep.loads)) == len(sweep.loads), f"merged sweep: {sweep.loads}"
    return list(sweep.points)


def _summaries_in(value, built):
    """Every summary a result holds, directly or through derived metrics."""
    if isinstance(value, LoadPointSummary):
        yield value
    elif isinstance(value, SweepSummary):
        yield from _sweep_points(value)
    elif isinstance(value, ArchitectureMetrics):
        yield from built[id(value)][1]
    elif isinstance(value, dict):
        for item in value.values():
            yield from _summaries_in(item, built)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _summaries_in(item, built)
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        for spec in dataclasses.fields(value):
            yield from _summaries_in(getattr(value, spec.name), built)


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_fold_reads_every_task_exactly_once(name, monkeypatch):
    """A key that merges, drops or reuses tasks fails here."""
    built = {}

    def recording(method, points_of):
        real = getattr(ArchitectureMetrics, method).__func__

        def wrapper(cls, label, summary, *args):
            metrics = real(cls, label, summary, *args)
            built[id(metrics)] = (metrics, points_of(summary))
            return metrics

        monkeypatch.setattr(ArchitectureMetrics, method, classmethod(wrapper))

    recording("from_sweep_summary", _sweep_points)
    recording("from_point_summary", lambda point: [point])
    runner = CannedRunner()
    spec = builtin_scenario(name, FIDELITY)
    tasks = compile_scenario(spec)
    result = FIGURES[name].fold(spec, tasks, runner.run(tasks))

    read = Counter(id(point) for point in _summaries_in(result, built))
    assert read == Counter(id(point) for point in runner.canned.values())


# ----------------------------------------------------------------------
# The cache-sharing consequence, demonstrated end to end.
# ----------------------------------------------------------------------


def test_spec_and_flag_forms_share_cache_entries(tmp_path):
    """A spec run warms the cache for the flag form (fig7, one tiny task)."""
    from repro.scenario import run_scenario

    spec = builtin_scenario("fig7", FIDELITY, fault_rate=0.2)
    # Keep it tiny: one system, the pinned severity pair.
    spec.systems = spec.systems[:1]
    tasks = compile_scenario(spec)

    warm = ExperimentRunner(jobs=1, cache_dir=str(tmp_path), show_progress=False)
    run_scenario(spec, warm)
    assert warm.tasks_executed == len(set(tasks))

    again = ExperimentRunner(jobs=1, cache_dir=str(tmp_path), show_progress=False)
    again.run(tasks)
    assert again.tasks_executed == 0
    assert again.cache_hits == len(set(tasks))
