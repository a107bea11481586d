"""Declarative scenario layer: specs, the registry compiler and the fuzzer.

One YAML/JSON document describes a whole experiment — systems, traffic,
MAC protocols, channel plan, fault plan and fidelity — purely in terms of
registered names, and compiles into
:class:`~repro.parallel.runner.SimulationTask` lists.  This is the one
task-construction path: the figure experiments compile their built-in
documents here too, so a spec run shares the result cache with the figure
bit for bit.  The layer sits between the experiments and the parallel
runner and never imports the experiments:

* :mod:`repro.scenario.fidelity` — the fidelity levels the documents
  expand against;
* :mod:`repro.scenario.spec` — the document schema and its validator
  (field-path error messages, stable round-trips);
* :mod:`repro.scenario.compiler` — spec → ordered task list, runner
  execution and a generic report;
* :mod:`repro.scenario.builtin` — fig2–fig8 as built-in documents, the
  only home of the figures' workloads;
* :mod:`repro.scenario.fuzz` — the seeded random-scenario generator and
  the kernel-invariant battery.
"""

from .builtin import BUILTIN_SCENARIOS, builtin_scenario, builtin_scenario_names
from .compiler import (
    compile_scenario,
    format_scenario_report,
    run_scenario,
    scenario_fidelity,
    system_config,
)
from .spec import (
    FaultSpec,
    ScenarioError,
    ScenarioSpec,
    SystemSpec,
    TrafficSpec,
    dump_scenario,
    load_scenario,
    loads_scenario,
    parse_scenario,
)

__all__ = [
    "BUILTIN_SCENARIOS",
    "FaultSpec",
    "ScenarioError",
    "ScenarioSpec",
    "SystemSpec",
    "TrafficSpec",
    "builtin_scenario",
    "builtin_scenario_names",
    "compile_scenario",
    "dump_scenario",
    "format_scenario_report",
    "load_scenario",
    "loads_scenario",
    "parse_scenario",
    "run_scenario",
    "scenario_fidelity",
    "system_config",
]
