"""The experiments CLI hands each invocation the documents its flags mean.

Every case drives :func:`repro.experiments.cli.main` with a stub runner
that records each submitted batch and answers every task with a canned
summary — nothing is simulated.  The batches must equal the figures'
built-in scenario documents compiled with the knobs the flags stand for;
the headings, the ``[runner]`` notes of ``all`` and the parser errors of
declined flags are pinned word for word.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import re
from pathlib import Path

import pytest

from repro import api
from repro.experiments import FIGURES as FIGURE_MODULES
from repro.experiments import cli, report
from repro.metrics.saturation import LoadPointSummary
from repro.parallel.runner import ExperimentRunner
from repro.scenario import (
    BUILTIN_SCENARIOS,
    ScenarioError,
    builtin_scenario,
    compile_scenario,
    dump_scenario,
)

REPO = Path(__file__).resolve().parents[1]

FIGURES = ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8")


class RecordingRunner(ExperimentRunner):
    """Records every submitted batch and answers each task with its own summary."""

    def __init__(self):
        super().__init__(jobs=1, cache_dir=None, show_progress=False)
        self.batches = []
        self.canned = {}

    def run(self, tasks):
        batch = list(tasks)
        self.batches.append(batch)
        for task in batch:
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
        return {task: self.canned[task] for task in batch}


def _drive(monkeypatch, capsys, argv):
    """Run the CLI on ``argv``; return (stdout lines, submitted batches)."""
    runner = RecordingRunner()
    monkeypatch.setattr(cli, "runner_from_args", lambda args: runner)
    assert cli.main(argv) == 0
    return capsys.readouterr().out.splitlines(), runner.batches


def _declined(monkeypatch, capsys, argv, message):
    """The CLI exits 2 with ``message`` as its parser error and runs nothing."""
    runner = RecordingRunner()
    monkeypatch.setattr(cli, "runner_from_args", lambda args: runner)
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.endswith(f"repro-experiments: error: {message}\n")
    assert runner.batches == []


def _compiled(figure, knobs):
    return compile_scenario(builtin_scenario(figure, "fast", **knobs))


# ----------------------------------------------------------------------
# Every figure × every workload flag.
# ----------------------------------------------------------------------

#: Flag text -> the document knobs it stands for.
FORMS = {
    "": {},
    "--pattern transpose": {"pattern": "transpose"},
    "--mac token": {"mac": "token"},
    "--faults random-links": {"faults": "random-links"},
    "--faults random-links --fault-rate 0.25": {"faults": "random-links", "fault_rate": 0.25},
    "--fault-rate 0.3": {"fault_rate": 0.3},
}

_FIG2 = "Fig. 2 - uniform random traffic, 4C4M, 20% memory access"
_FIG3 = "Fig. 3 - average packet latency (cycles) vs injection load, 4C4M"
_FIG4 = "Fig. 4 - wireless vs interposer gains under disintegration"
_FIG7 = "Fig. 7 - resilience under 'random-links' faults"
_FIG8 = "Fig. 8 - MAC study: control_packet/fdma/tdma/token x channels [1, 2]"

#: The heading line of every accepted (figure, flags) pair.
HEADINGS = {
    ("fig2", ""): f"{_FIG2} [fidelity=fast]",
    ("fig2", "--pattern transpose"): "Fig. 2 - transpose traffic, 4C4M [fidelity=fast]",
    ("fig2", "--mac token"): f"{_FIG2}, mac=token [fidelity=fast]",
    ("fig2", "--faults random-links"): f"{_FIG2}, faults=random-links@0.1 [fidelity=fast]",
    ("fig2", "--faults random-links --fault-rate 0.25"): (
        f"{_FIG2}, faults=random-links@0.25 [fidelity=fast]"
    ),
    ("fig3", ""): f"{_FIG3} [fidelity=fast]",
    ("fig3", "--pattern transpose"): f"{_FIG3}, transpose traffic [fidelity=fast]",
    ("fig3", "--mac token"): f"{_FIG3}, mac=token [fidelity=fast]",
    ("fig3", "--faults random-links"): f"{_FIG3}, faults=random-links@0.1 [fidelity=fast]",
    ("fig3", "--faults random-links --fault-rate 0.25"): (
        f"{_FIG3}, faults=random-links@0.25 [fidelity=fast]"
    ),
    ("fig4", ""): f"{_FIG4} [fidelity=fast]",
    ("fig4", "--pattern transpose"): f"{_FIG4}, transpose traffic [fidelity=fast]",
    ("fig4", "--mac token"): f"{_FIG4}, mac=token [fidelity=fast]",
    ("fig4", "--faults random-links"): f"{_FIG4}, faults=random-links@0.1 [fidelity=fast]",
    ("fig4", "--faults random-links --fault-rate 0.25"): (
        f"{_FIG4}, faults=random-links@0.25 [fidelity=fast]"
    ),
    ("fig5", ""): (
        "Fig. 5 - wireless vs interposer gains while varying memory accesses, 4C4M "
        "[fidelity=fast]"
    ),
    ("fig6", ""): (
        "Fig. 6 - wireless vs interposer gains with application traffic, 4C4M [fidelity=fast]"
    ),
    ("fig7", ""): f"{_FIG7} (load=0.001) [fidelity=fast]",
    ("fig7", "--pattern transpose"): f"{_FIG7}, transpose traffic (load=0.001) [fidelity=fast]",
    ("fig7", "--faults random-links"): f"{_FIG7} (load=0.001) [fidelity=fast]",
    ("fig7", "--faults random-links --fault-rate 0.25"): f"{_FIG7} (load=0.001) [fidelity=fast]",
    ("fig7", "--fault-rate 0.3"): f"{_FIG7} (load=0.001) [fidelity=fast]",
    ("fig8", ""): f"{_FIG8} [fidelity=fast]",
    ("fig8", "--pattern transpose"): f"{_FIG8}, transpose traffic [fidelity=fast]",
    ("fig8", "--mac token"): "Fig. 8 - MAC study: token x channels [1, 2] [fidelity=fast]",
}

_RATE = "--fault-rate requires --faults (e.g. --faults random-links)"
_PATTERN = "--pattern only applies to fig2, fig3, fig4, fig7, fig8; {} has a fixed workload"
_FAULTS = "--faults only applies to fig2, fig3, fig4, fig7; {} runs on a pristine fabric"
_MAC = "--mac only applies to fig2, fig3, fig4, fig8; {} has no wireless MAC to swap"

#: The parser error of every declined (figure, flags) pair.
ERRORS = {
    **{(fig, "--fault-rate 0.3"): _RATE for fig in FIGURES if fig != "fig7"},
    **{(fig, "--pattern transpose"): _PATTERN.format(fig) for fig in ("fig5", "fig6")},
    **{(fig, "--mac token"): _MAC.format(fig) for fig in ("fig5", "fig6", "fig7")},
    **{
        (fig, flags): _FAULTS.format(fig)
        for fig in ("fig5", "fig6", "fig8")
        for flags in ("--faults random-links", "--faults random-links --fault-rate 0.25")
    },
}

MATRIX = [(fig, flags) for fig in FIGURES for flags in FORMS]


def test_matrix_is_pinned_exactly_once():
    assert not set(HEADINGS) & set(ERRORS)
    assert set(HEADINGS) | set(ERRORS) == set(MATRIX)


@pytest.mark.parametrize("figure, flags", MATRIX)
def test_figure_flag_matrix(figure, flags, monkeypatch, capsys):
    argv = [figure, "--fidelity", "fast", *flags.split()]
    if (figure, flags) in ERRORS:
        _declined(monkeypatch, capsys, argv, ERRORS[figure, flags])
        return
    lines, batches = _drive(monkeypatch, capsys, argv)
    assert batches == [_compiled(figure, FORMS[flags])]
    assert lines[0] == HEADINGS[figure, flags]
    assert lines[-1].startswith("[runner] ")


def test_zero_fault_rate_heading_names_the_scenario(monkeypatch, capsys):
    """A zero severity runs the pristine tasks but says which scenario it was."""
    argv = ["fig2", "--fidelity", "fast", "--faults", "random-links", "--fault-rate", "0"]
    lines, batches = _drive(monkeypatch, capsys, argv)
    assert batches == [_compiled("fig2", {})]
    assert lines[0] == f"{_FIG2}, faults=random-links@0 [fidelity=fast]"


# ----------------------------------------------------------------------
# ``all`` with each workload flag.
# ----------------------------------------------------------------------

_PATTERN_NOTE = (
    "[runner] pattern 'transpose': running {} (fig5/fig6 are uniform/application-only)"
)
_FAULTS_NOTE = "[runner] faults 'random-links': running {} (fig5/fig6 run on pristine fabrics)"
_MAC_NOTE = "[runner] mac 'token': running {} (the rest have no MAC to swap)"

#: ``all`` flags -> (figures run, knobs per figure, notes printed first).
ALL_FORMS = {
    "": (FIGURES, {}, []),
    "--pattern transpose": (
        ("fig2", "fig3", "fig4", "fig7", "fig8"),
        {"pattern": "transpose"},
        [_PATTERN_NOTE.format("fig2, fig3, fig4, fig7, fig8")],
    ),
    "--faults random-links": (
        ("fig2", "fig3", "fig4", "fig7"),
        {"faults": "random-links"},
        [_FAULTS_NOTE.format("fig2, fig3, fig4, fig7")],
    ),
    "--faults random-links --fault-rate 0.25": (
        ("fig2", "fig3", "fig4", "fig7"),
        {"faults": "random-links", "fault_rate": 0.25},
        [_FAULTS_NOTE.format("fig2, fig3, fig4, fig7")],
    ),
    "--mac token": (
        ("fig2", "fig3", "fig4", "fig8"),
        {"mac": "token"},
        [_MAC_NOTE.format("fig2, fig3, fig4, fig8")],
    ),
    "--pattern transpose --faults random-links --mac token": (
        ("fig2", "fig3", "fig4"),
        {"pattern": "transpose", "faults": "random-links", "mac": "token"},
        [
            _PATTERN_NOTE.format("fig2, fig3, fig4, fig7, fig8"),
            _FAULTS_NOTE.format("fig2, fig3, fig4, fig7"),
            _MAC_NOTE.format("fig2, fig3, fig4"),
        ],
    ),
}


@pytest.mark.parametrize("flags", list(ALL_FORMS))
def test_all_runs_the_figures_that_take_the_flags(flags, monkeypatch, capsys):
    figures, knobs, notes = ALL_FORMS[flags]
    lines, batches = _drive(monkeypatch, capsys, ["all", "--fidelity", "fast", *flags.split()])
    assert batches == [_compiled(fig, knobs) for fig in figures]
    assert lines[: len(notes)] == notes
    headings = [line for line in lines if line.startswith("Fig. ")]
    assert [heading.split(" - ")[0] for heading in headings] == [
        f"Fig. {fig[-1]}" for fig in figures
    ]


def test_all_pins_a_rate_on_the_resilience_sweep_only(monkeypatch, capsys):
    """``all --fault-rate R`` pins fig7's rate; the other figures stay pristine."""
    argv = ["all", "--fidelity", "fast", "--fault-rate", "0.3"]
    lines, batches = _drive(monkeypatch, capsys, argv)
    assert batches == [
        _compiled(fig, {"fault_rate": 0.3} if fig == "fig7" else {}) for fig in FIGURES
    ]
    assert not lines[0].startswith("[runner]")


# ----------------------------------------------------------------------
# Every invocation CI makes, and the scenario path.
# ----------------------------------------------------------------------

#: Each ``python -m repro.experiments`` argument list in ci.yml -> the
#: figure (or ``--scenario`` source) it runs and the knobs it passes.
CI_INVOCATIONS = {
    "fig2 --fidelity fast --jobs 4 --cache-dir .ci-cache": ("fig2", {}),
    "fig2 --fidelity fast --jobs 1 --no-cache": ("fig2", {}),
    "fig2 --fidelity fast --jobs 2 --cache-dir .kill-cache": ("fig2", {}),
    "fig2 --fidelity fast --jobs 2 --no-cache": ("fig2", {}),
    "fig2 --fidelity fast --jobs 4 --pattern transpose --cache-dir .ci-cache": (
        "fig2",
        {"pattern": "transpose"},
    ),
    "fig2 --fidelity fast --jobs 4 --faults random-links --fault-rate 0.25 --cache-dir .ci-cache": (
        "fig2",
        {"faults": "random-links", "fault_rate": 0.25},
    ),
    "fig2 --fidelity fast --jobs 4 --faults random-links --fault-rate 0 --cache-dir .ci-cache": (
        "fig2",
        {"faults": "random-links", "fault_rate": 0.0},
    ),
    "--scenario fig2 --fidelity fast --jobs 4 --cache-dir .ci-cache": ("fig2", {}),
    "--scenario examples/scenario.yaml --fidelity fast --jobs 4 --cache-dir .ci-cache": (
        "examples/scenario.yaml",
        None,
    ),
    "fig8 --fidelity fast --jobs 4 --cache-dir .ci-cache": ("fig8", {}),
    "fig8 --fidelity fast --jobs 4 --mac token --cache-dir .ci-cache": ("fig8", {"mac": "token"}),
    "--scenario fig8 --fidelity fast --cache-dir .ci-cache": ("fig8", {}),
    "fig7 --fidelity fast --jobs 2 --cache-dir .ci-cache": ("fig7", {}),
    "--scenario fig7 --fidelity fast --cache-dir .ci-cache": ("fig7", {}),
    "fig7 --fidelity fast --jobs 1 --no-cache": ("fig7", {}),
    "fig6 --fidelity fast --jobs 2 --cache-dir .ci-cache": ("fig6", {}),
    "--scenario fig6 --fidelity fast --cache-dir .ci-cache": ("fig6", {}),
    "fig6 --fidelity fast --jobs 1 --no-cache": ("fig6", {}),
    **{
        f"fig{n} --fidelity fast --jobs {jobs} --no-cache": (f"fig{n}", {})
        for n in range(2, 9)
        for jobs in (1, 2)
    },
}


def _ci_invocations():
    """The argument lists of every ``python -m repro.experiments`` in ci.yml."""
    workflow = (REPO / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
    found = set()
    for match in re.finditer(r"python -m repro\.experiments ([^|>\\\n]*)", workflow):
        text = " ".join(match.group(1).split())
        # The golden-table loop runs every figure at both job counts.
        for n in range(2, 9):
            for jobs in (1, 2):
                found.add(text.replace("$n", str(n)).replace("$jobs", str(jobs)))
    return found


def test_every_ci_invocation_is_covered():
    assert _ci_invocations() == set(CI_INVOCATIONS)


@pytest.mark.parametrize("argv", list(CI_INVOCATIONS))
def test_ci_invocation(argv, monkeypatch, capsys):
    source, knobs = CI_INVOCATIONS[argv]
    if knobs is None:
        pytest.importorskip("yaml")
        path = str(REPO / source)
        argv = argv.replace(source, path)
        expected = api.compile_scenario(path, "fast")
    else:
        expected = _compiled(source, knobs)
    lines, batches = _drive(monkeypatch, capsys, argv.split())
    assert batches == [expected]
    assert lines[-1].startswith("[runner] ")


_COMBINE = (
    "{} does not combine with --scenario: the scenario document itself declares the workload"
)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--scenario", "fig2", "--pattern", "transpose"], _COMBINE.format("--pattern")),
        (["--scenario", "fig2", "--mac", "token"], _COMBINE.format("--mac")),
        (["--scenario", "fig2", "--faults", "random-links"], _COMBINE.format("--faults")),
        (
            ["--scenario", "fig2", "--mac", "token", "--faults", "random-links"],
            _COMBINE.format("--mac"),
        ),
        (
            ["--scenario", "fig2", "--faults", "random-links", "--fault-rate", "0.2"],
            _COMBINE.format("--faults"),
        ),
        (["--scenario", "fig2", "--fault-rate", "0.2"], _RATE),
        (["fig2", "--scenario", "fig2"], "give an experiment name or --scenario, not both"),
        ([], "an experiment name (or --scenario FILE) is required"),
        (["fig7", "--fault-rate", "1.5"], "--fault-rate must be in [0, 1]"),
        (["fig2", "--faults", "random-links", "--mac", "token", "--pattern", "x"], None),
    ],
)
def test_parser_errors(argv, message, monkeypatch, capsys):
    if message is None:
        # An unknown registry name is rejected by argparse's own choices.
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        assert exit_info.value.code == 2
        assert "invalid choice: 'x'" in capsys.readouterr().err
        return
    _declined(monkeypatch, capsys, argv, message)


@pytest.mark.parametrize(
    "knob, figures",
    [
        ("pattern", "fig2/fig3/fig4/fig7/fig8"),
        ("mac", "fig2/fig3/fig4/fig8"),
        ("faults", "fig2/fig3/fig4/fig7"),
    ],
    ids=["pattern", "mac", "faults"],
)
def test_help_names_the_figures_whose_generator_takes_the_flag(knob, figures):
    declared = [
        name
        for name in sorted(FIGURE_MODULES)
        if knob in inspect.signature(BUILTIN_SCENARIOS[name]).parameters
    ]
    assert figures == "/".join(declared)
    (action,) = [a for a in cli.build_parser()._actions if a.dest == knob]
    assert f"({figures})" in action.help


def test_unreadable_scenario_file_is_a_parser_error(monkeypatch, capsys, tmp_path):
    missing = tmp_path / "missing.yaml"
    runner = RecordingRunner()
    monkeypatch.setattr(cli, "runner_from_args", lambda args: runner)
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["--scenario", str(missing)])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "repro-experiments: error: invalid scenario: " in err
    assert f"cannot read scenario file {str(missing)!r}" in err
    assert runner.batches == []


# ----------------------------------------------------------------------
# A figure name and ``--scenario`` print through one report path.
# ----------------------------------------------------------------------


def _report_lines(lines):
    return [line for line in lines if not line.startswith("[runner]")]


@pytest.mark.parametrize("figure", FIGURES)
def test_scenario_form_prints_the_figure_table(figure, monkeypatch, capsys):
    """``--scenario figN`` prints what ``figN`` prints, from the same batch."""
    flag_lines, flag_batches = _drive(monkeypatch, capsys, [figure, "--fidelity", "fast"])
    spec_lines, spec_batches = _drive(
        monkeypatch, capsys, ["--scenario", figure, "--fidelity", "fast"]
    )
    assert spec_batches == flag_batches == [_compiled(figure, {})]
    assert _report_lines(spec_lines) == _report_lines(flag_lines)
    assert spec_lines[0] == HEADINGS[figure, ""]


def test_edited_figure_document_prints_the_figure_table(monkeypatch, capsys, tmp_path):
    """fig2's document with another seed, run from a JSON file, prints fig2's table."""
    raw = json.loads(dump_scenario(builtin_scenario("fig2", "fast")))
    raw["fidelity"]["seed"] = 1
    path = tmp_path / "fig2-seed1.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    lines, batches = _drive(monkeypatch, capsys, ["--scenario", str(path)])
    assert batches == [api.compile_scenario(raw)]
    assert {task.seed for task in batches[0]} == {1}
    assert lines[0] == HEADINGS["fig2", ""].replace("[fidelity=fast]", "[fidelity=fast seed=1]")
    assert lines[2].startswith("Configuration ")


def test_fidelity_overrides_are_named_in_the_heading(monkeypatch, capsys, tmp_path):
    """EXPERIMENTS.md's seed-1 fig2 document says ``seed=1`` in its heading.

    A renamed copy with a run length prints the generic table under a tag
    that names every override in key order.
    """
    raw = json.loads(dump_scenario(builtin_scenario("fig2", "fast")))
    raw["fidelity"] = {"level": "fast", "seed": 1}
    path = tmp_path / "fig2-seed1.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    lines, _ = _drive(monkeypatch, capsys, ["--scenario", str(path)])
    assert lines[0] == f"{_FIG2} [fidelity=fast seed=1]"
    raw["name"] = "fig2-seed1"
    raw["fidelity"].update(warmup_cycles=120, cycles=600)
    path.write_text(json.dumps(raw), encoding="utf-8")
    lines, _ = _drive(monkeypatch, capsys, ["--scenario", str(path)])
    assert lines[0].startswith("Scenario 'fig2-seed1'")
    assert lines[0].endswith(" [fidelity=fast cycles=600 seed=1 warmup_cycles=120]")


def _wireless_only(raw):
    raw["systems"] = [s for s in raw["systems"] if s["architecture"] == "wireless"]


def _all_macs(raw):
    raw["macs"] = "all"


def _two_channel_counts(raw):
    raw["channels"] = [1, 2]


def _load_sweep(raw):
    raw["traffic"]["loads"] = "fidelity"


def _two_memory_fractions(raw):
    raw["traffic"]["memory_fractions"] = [0.2, 0.4]


_VARIES = "the document varies a field this table does not show)"


@pytest.mark.parametrize(
    "figure, edit, cause",
    [
        ("fig2", _wireless_only, "(KeyError: "),
        ("fig2", _all_macs, _VARIES),
        ("fig6", _two_channel_counts, _VARIES),
        ("fig7", _load_sweep, _VARIES),
        ("fig8", _two_memory_fractions, _VARIES),
    ],
    ids=[
        "fig2-wireless-only",
        "fig2-all-macs",
        "fig6-two-channel-counts",
        "fig7-load-sweep",
        "fig8-two-memory-fractions",
    ],
)
def test_figure_document_its_table_cannot_read(
    figure, edit, cause, monkeypatch, capsys, tmp_path
):
    """A figure's name on tasks its fold cannot read is a typed ``name`` error.

    The document lacks a system the table needs, or varies a field the
    table does not show, so one task would hide another.  ``report``
    raises the error, and the CLI prints it as its ``invalid scenario``
    parser error after the tasks ran (their results stay cached).
    """
    raw = builtin_scenario(figure, "fast").to_dict()
    edit(raw)
    spec = api.resolve_scenario(raw)
    with pytest.raises(ScenarioError) as error_info:
        report(spec, RecordingRunner())
    assert error_info.value.path == "name"
    assert cause in error_info.value.reason

    path = tmp_path / f"{figure}.json"
    path.write_text(dump_scenario(spec), encoding="utf-8")
    runner = RecordingRunner()
    monkeypatch.setattr(cli, "runner_from_args", lambda args: runner)
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["--scenario", str(path)])
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert err.endswith(f"repro-experiments: error: invalid scenario: {error_info.value}\n")
    assert out == ""
    assert runner.batches == [compile_scenario(spec)]

    # Under any other name the same tasks print the generic per-task table.
    renamed = dataclasses.replace(spec, name="my-study")
    assert report(renamed, runner).startswith("Scenario 'my-study'")
