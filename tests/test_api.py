"""The ``repro.api`` facade.

The contracts:

* **Facade parity** — :func:`repro.api.run` / :func:`~repro.api.sweep`
  produce exactly what a directly constructed
  :class:`~repro.parallel.runner.ExperimentRunner` produces, and
  :func:`~repro.api.make_runner`'s defaults match a bare
  ``ExperimentRunner()`` (no cache unless a directory is given).
* **Scenario forms** — :func:`~repro.api.resolve_scenario` accepts a
  parsed spec, a raw mapping, a built-in name and a document path, with
  a working fidelity override; :func:`~repro.api.compile_scenario` runs
  nothing and agrees with the scenario layer.
* **Import hygiene** — importing ``repro.experiments`` and ``repro.api``
  raises no :class:`DeprecationWarning`, and ``repro.api`` and
  ``repro.scenario`` load no ``repro.experiments`` module.
* **CLI routing** — the CLI builds its runner through the facade, so it
  is a plain :class:`~repro.parallel.runner.ExperimentRunner`.
"""

from __future__ import annotations

import subprocess
import sys
import json
from dataclasses import dataclass
from pathlib import Path

import pytest

import repro
from repro import api
from repro.core.config import Architecture
from repro.parallel.runner import ExperimentRunner, execute_task, uniform_task
from repro.scenario import ScenarioSpec, builtin_scenario_names
from repro.testing import small_system_config


@dataclass(frozen=True)
class _Fidelity:
    cycles: int = 200
    warmup_cycles: int = 50
    seed: int = 5


def _task(load, **kwargs):
    return uniform_task(
        small_system_config(Architecture.WIRELESS), _Fidelity(), load=load, **kwargs
    )


_DOC = {
    "name": "api-doc",
    "fidelity": "fast",
    "systems": [{"architecture": "wireless"}],
    "traffic": {"kind": "synthetic", "loads": [0.01, 0.02]},
}


# ----------------------------------------------------------------------
# Facade execution parity.
# ----------------------------------------------------------------------


class TestFacadeParity:
    def test_run_matches_execute_task(self):
        task = _task(0.02)
        assert api.run(task).as_dict() == execute_task(task)

    def test_sweep_matches_direct_runner(self):
        tasks = [_task(load) for load in (0.01, 0.02)]
        direct = ExperimentRunner().run(tasks)
        via_api = api.sweep(tasks)
        assert {t: s.as_dict() for t, s in via_api.items()} == {
            t: s.as_dict() for t, s in direct.items()
        }

    def test_sweep_rejects_runner_plus_kwargs(self):
        with pytest.raises(TypeError, match="not both"):
            api.sweep([_task(0.01)], runner=ExperimentRunner(), jobs=2)

    def test_sweep_accepts_preconfigured_runner(self, tmp_path):
        runner = api.make_runner(cache_dir=str(tmp_path))
        tasks = [_task(0.01)]
        api.sweep(tasks, runner=runner)
        api.sweep(tasks, runner=runner)
        assert runner.tasks_executed == 1
        assert runner.cache_hits == 1

    def test_make_runner_defaults_match_bare_runner(self, tmp_path):
        assert api.make_runner().cache is None  # uncached, like ExperimentRunner()
        assert api.make_runner(cache_dir=str(tmp_path)).cache is not None
        assert api.make_runner(cache_dir=str(tmp_path), profile=True).cache is None


# ----------------------------------------------------------------------
# Scenario forms.
# ----------------------------------------------------------------------


class TestScenarioForms:
    def test_builtin_name(self):
        spec = api.resolve_scenario("fig2", fidelity="fast")
        assert isinstance(spec, ScenarioSpec)
        assert spec.fidelity_level == "fast"
        tasks = api.compile_scenario("fig2", fidelity="fast")
        assert tasks and all(t.cache_key() for t in tasks)

    def test_every_builtin_compiles(self):
        for name in builtin_scenario_names():
            assert api.compile_scenario(name, fidelity="fast")

    def test_mapping_and_path_forms_agree(self, tmp_path):
        from_mapping = api.compile_scenario(_DOC)
        document = tmp_path / "scenario.json"
        document.write_text(json.dumps(_DOC))
        from_path = api.compile_scenario(document)
        assert from_mapping == from_path
        assert len(from_mapping) == 2  # one per load point

    def test_spec_pass_through_with_fidelity_override(self):
        spec = api.resolve_scenario(_DOC)
        assert api.resolve_scenario(spec) is spec
        overridden = api.resolve_scenario(spec, fidelity="smoke")
        assert overridden.fidelity_level == "smoke"

    def test_unknown_source_fails_loudly(self, tmp_path):
        with pytest.raises(Exception):
            api.resolve_scenario(str(tmp_path / "absent.json"))


# ----------------------------------------------------------------------
# Import hygiene.
# ----------------------------------------------------------------------


class TestImportHygiene:
    def test_importing_experiments_and_api_raises_no_deprecation_warning(self):
        """``import repro.experiments`` and ``import repro.api`` stay silent."""
        script = (
            "import warnings\n"
            "warnings.simplefilter('error', DeprecationWarning)\n"
            "import repro.experiments\n"
            "import repro.api\n"
            "print('clean')\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        output = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"},
            check=True,
        )
        assert output.stdout.strip() == "clean"

    def test_api_and_scenario_load_no_experiments_module(self):
        """The figure folds sit above the scenario layer: experiments → scenario → parallel."""
        script = (
            "import sys\n"
            "import repro.api\n"
            "import repro.scenario\n"
            "repro.api.compile_scenario('fig2', 'fast')\n"
            "print(sorted(m for m in sys.modules if m.startswith('repro.experiments')))\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        output = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"},
            check=True,
        )
        assert output.stdout.strip() == "[]"


class TestPurePython:
    def test_simulating_a_task_never_imports_numpy(self):
        """The simulator is pure Python: a whole run loads no numpy."""
        script = (
            "import sys\n"
            "from dataclasses import dataclass\n"
            "from repro import api\n"
            "from repro.core.config import Architecture\n"
            "from repro.parallel.runner import uniform_task\n"
            "from repro.testing import small_system_config\n"
            "@dataclass(frozen=True)\n"
            "class Fidelity:\n"
            "    cycles: int = 200\n"
            "    warmup_cycles: int = 50\n"
            "    seed: int = 3\n"
            "task = uniform_task(\n"
            "    small_system_config(Architecture.WIRELESS), Fidelity(), load=0.02\n"
            ")\n"
            "assert api.run(task).packets_delivered > 0\n"
            "print('numpy' in sys.modules)\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        output = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"},
            check=True,
        )
        assert output.stdout.strip() == "False"


# ----------------------------------------------------------------------
# CLI routing.
# ----------------------------------------------------------------------


class TestCliRouting:
    def test_default_path_is_an_experiment_runner(self):
        from repro.experiments.cli import build_parser, runner_from_args

        runner = runner_from_args(build_parser().parse_args(["fig2"]))
        assert isinstance(runner, ExperimentRunner)
