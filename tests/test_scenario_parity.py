"""CLI/spec parity: every built-in figure scenario equals its flag form.

The scenario compiler's core promise is that a declarative document and
the equivalent CLI-flag invocation are *the same experiment*: identical
:class:`SimulationTask` lists (same frozen instances, in the same order)
and therefore identical cache keys, so the two forms share result-cache
entries bit for bit.  These tests capture each figure module's task list
with a recording runner — no simulation runs — and compare it against the
compiled built-in document, flag variants included.
"""

from __future__ import annotations

import pytest

from repro.experiments import (
    fig2_uniform,
    fig3_latency,
    fig4_disintegration,
    fig5_memory_traffic,
    fig6_applications,
    fig7_resilience,
    fig8_mac_study,
)
from repro.parallel.runner import ExperimentRunner
from repro.scenario import builtin_scenario, builtin_scenario_names, compile_scenario

FIDELITY = "fast"


class Captured(Exception):
    """Sentinel raised once the runner has recorded the submitted tasks."""


class RecordingRunner(ExperimentRunner):
    """Records the task list submitted to ``run`` instead of simulating.

    Every figure module submits its whole task list in one ``run`` call,
    so raising immediately afterwards captures the complete experiment
    without simulating anything.
    """

    def __init__(self):
        super().__init__(jobs=1, cache_dir=None, show_progress=False)
        self.tasks = None

    def run(self, tasks):
        self.tasks = list(tasks)
        raise Captured()


def flag_form_tasks(experiment_main, **kwargs):
    """The task list the figure module builds from CLI-style flags."""
    runner = RecordingRunner()
    with pytest.raises(Captured):
        experiment_main(FIDELITY, runner, **kwargs)
    assert runner.tasks, "figure module submitted no tasks"
    return runner.tasks


def assert_parity(experiment_main, name, flag_kwargs=None, spec_kwargs=None):
    """Flag-form and spec-form task lists are equal, cache keys and all."""
    flag_tasks = flag_form_tasks(experiment_main, **(flag_kwargs or {}))
    spec = builtin_scenario(name, FIDELITY, **(spec_kwargs or {}))
    spec_tasks = compile_scenario(spec)
    assert spec_tasks == flag_tasks
    assert [t.cache_key() for t in spec_tasks] == [t.cache_key() for t in flag_tasks]
    assert [t.label for t in spec_tasks] == [t.label for t in flag_tasks]


# ----------------------------------------------------------------------
# Default forms: each figure's canonical invocation.
# ----------------------------------------------------------------------


DEFAULT_FORMS = {
    "fig2": fig2_uniform.main,
    "fig3": fig3_latency.main,
    "fig4": fig4_disintegration.main,
    "fig5": fig5_memory_traffic.main,
    "fig6": fig6_applications.main,
    "fig7": fig7_resilience.main,
    "fig8": fig8_mac_study.main,
}


def test_every_figure_has_a_builtin_spec():
    assert builtin_scenario_names() == sorted(DEFAULT_FORMS)


@pytest.mark.parametrize("name", sorted(DEFAULT_FORMS))
def test_builtin_spec_matches_default_flag_form(name):
    assert_parity(DEFAULT_FORMS[name], name)


# ----------------------------------------------------------------------
# Flag variants: the CLI knobs thread into the documents identically.
# ----------------------------------------------------------------------


def test_fig2_pattern_and_mac_variant():
    assert_parity(
        fig2_uniform.main,
        "fig2",
        flag_kwargs={"pattern": "transpose", "mac": "token"},
        spec_kwargs={"pattern": "transpose", "mac": "token"},
    )


def test_fig3_fault_variant_with_default_rate():
    # The CLI resolves a bare --faults to DEFAULT_FAULT_RATE=0.1.
    assert_parity(
        fig3_latency.main,
        "fig3",
        flag_kwargs={"faults": "random-links", "fault_rate": 0.1},
        spec_kwargs={"faults": "random-links"},
    )


def test_fig4_fault_and_mac_variant():
    assert_parity(
        fig4_disintegration.main,
        "fig4",
        flag_kwargs={"faults": "cascading", "fault_rate": 0.25, "mac": "fdma"},
        spec_kwargs={"faults": "cascading", "fault_rate": 0.25, "mac": "fdma"},
    )


def test_fig7_pinned_rate_variant():
    assert_parity(
        fig7_resilience.main,
        "fig7",
        flag_kwargs={"faults": "hub-transceiver-loss", "fault_rate": 0.3},
        spec_kwargs={"faults": "hub-transceiver-loss", "fault_rate": 0.3},
    )


def test_fig7_none_promotes_to_default_scenario():
    from repro.faults.scenarios import DEFAULT_SCENARIO

    spec = builtin_scenario("fig7", FIDELITY, faults="none")
    assert spec.faults.scenario == DEFAULT_SCENARIO
    assert_parity(
        fig7_resilience.main,
        "fig7",
        flag_kwargs={"faults": "none"},
        spec_kwargs={"faults": "none"},
    )


def test_fig8_pinned_mac_variant():
    assert_parity(
        fig8_mac_study.main,
        "fig8",
        flag_kwargs={"mac": "tdma"},
        spec_kwargs={"mac": "tdma"},
    )


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
