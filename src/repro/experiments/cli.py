"""Command-line entry point for the figure-reproduction experiments.

Usage::

    python -m repro.experiments fig2 [--fidelity fast|default|paper]
                                     [--jobs N] [--cache-dir DIR] [--no-cache]
                                     [--faults SCENARIO] [--fault-rate R]
                                     [--profile]
    python -m repro.experiments fig7 [--faults random-links] [--jobs N]
    python -m repro.experiments fig8 [--mac token] [--jobs N]
    python -m repro.experiments all  [--fidelity fast|default|paper] [--jobs N]
    python -m repro.experiments --scenario examples/scenario.yaml [--jobs N]
    python -m repro.experiments --scenario fig2 --fidelity fast

or, after installation, ``repro-experiments fig3 --fidelity paper --jobs 8``.

A figure name and ``--scenario`` take one path: the figure's built-in
document (:mod:`repro.scenario.builtin`) or the given document goes to
:func:`repro.experiments.report`, which prints the table of the figure
the document's ``name`` names (the generic per-task table for any other
name).  Every document decomposes into independent, deterministically
seeded simulation tasks (architecture × load point × application).
``--jobs`` fans those tasks out across worker processes — results are
bit-identical at any job count — and each task's result is cached as
JSON under ``--cache-dir`` (keyed by a content hash of the task), so
re-runs only simulate what is missing.  See EXPERIMENTS.md for details.

Which figure takes which workload flag is read off the signature of its
built-in document generator, the one declaration of each figure's knobs;
the flags' values go to the generator unresolved, and it applies its own
defaults.
"""

from __future__ import annotations

import argparse
import inspect
from typing import Dict, List, Optional, Sequence

from ..api import make_runner, resolve_scenario
from ..faults.scenarios import DEFAULT_FAULT_RATE, available_fault_scenarios
from ..parallel.runner import DEFAULT_CACHE_DIR, ExperimentRunner
from ..scenario import BUILTIN_SCENARIOS, ScenarioError, builtin_scenario
from ..traffic.registry import available_patterns
from ..wireless.mac.registry import available_macs
from . import FIGURES, report

#: The workload flags a figure may decline, in checking order: (knob, the
#: error tail for a figure that declines it, the note ``all`` prints when
#: it drops those figures).
WORKLOAD_FLAGS = (
    ("pattern", "has a fixed workload", "fig5/fig6 are uniform/application-only"),
    ("faults", "runs on a pristine fabric", "fig5/fig6 run on pristine fabrics"),
    ("mac", "has no wireless MAC to swap", "the rest have no MAC to swap"),
)


def _knobs(name: Optional[str]) -> Dict[str, object]:
    """Knob -> default of figure ``name``, read off its document generator."""
    if name not in BUILTIN_SCENARIOS:
        return {}
    parameters = inspect.signature(BUILTIN_SCENARIOS[name]).parameters
    return {knob: p.default for knob, p in parameters.items() if knob != "fidelity"}


def _takers(knob: str) -> List[str]:
    """The figures whose document generator declares ``knob``, sorted."""
    return [name for name in sorted(FIGURES) if knob in _knobs(name)]


def build_parser() -> argparse.ArgumentParser:
    """The argument parser of the experiments CLI."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Regenerate the evaluation figures of the SOCC 2017 wireless "
            "multichip interconnection paper.  Each figure is decomposed "
            "into independent simulation tasks that run in parallel "
            "(--jobs) and are cached on disk (--cache-dir), so repeated "
            "runs skip completed work."
        ),
        epilog=(
            "Examples:  repro-experiments fig2 --fidelity fast --jobs 4   |   "
            "repro-experiments all --fidelity paper --jobs 8 "
            "--cache-dir /tmp/repro-cache"
        ),
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        default=None,
        choices=sorted(FIGURES) + ["all"],
        help=(
            "which figure to regenerate (or 'all' for every figure); "
            "omit when running a declarative --scenario document"
        ),
    )
    parser.add_argument(
        "--scenario",
        default=None,
        metavar="FILE",
        help=(
            "run a declarative scenario document (YAML/JSON; see "
            "EXPERIMENTS.md) instead of a named figure — or a built-in "
            "scenario name (fig2..fig8) to run that figure's document; "
            "a document named after a figure prints that figure's table, "
            "and the named figures run the same documents, so both "
            "forms share the result cache bit for bit"
        ),
    )
    parser.add_argument(
        "--fidelity",
        choices=("fast", "default", "paper"),
        default=None,
        help=(
            "run length / sweep resolution: 'fast' for smoke tests, "
            "'default' for the EXPERIMENTS.md numbers, 'paper' for the "
            "paper's full 10k-cycle scale (default: default; with "
            "--scenario it overrides the document's own level)"
        ),
    )
    parser.add_argument(
        "--pattern",
        choices=available_patterns(),
        default="uniform",
        help=(
            "synthetic traffic pattern for the pattern-capable experiments "
            f"({'/'.join(_takers('pattern'))}); constructed by name from the "
            "traffic registry (default: uniform)"
        ),
    )
    parser.add_argument(
        "--mac",
        choices=available_macs(),
        default=None,
        help=(
            "wireless MAC protocol override for the MAC-capable "
            f"experiments ({'/'.join(_takers('mac'))}); constructed by name from "
            "the MAC registry (default: the configuration's protocol; "
            "fig8 sweeps every registered MAC unless this pins one)"
        ),
    )
    parser.add_argument(
        "--faults",
        choices=available_fault_scenarios(),
        default="none",
        help=(
            "fault scenario injected into every simulation task of the "
            f"fault-capable experiments ({'/'.join(_takers('faults'))}); constructed "
            "by name from the fault-scenario registry (default: none; "
            "fig7 promotes 'none' to 'random-links')"
        ),
    )
    parser.add_argument(
        "--fault-rate",
        type=float,
        default=None,
        metavar="R",
        help=(
            "fault severity in [0, 1] for --faults (default: "
            f"{DEFAULT_FAULT_RATE} when --faults is given; fig7 sweeps the "
            "fidelity's whole fault-rate grid unless this pins one rate)"
        ),
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        metavar="N",
        help=(
            "worker processes for independent simulation tasks; results "
            "are bit-identical for any value (default: 1, serial)"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        metavar="DIR",
        help=(
            "directory of the per-task JSON result cache; completed tasks "
            f"found there are not re-simulated (default: {DEFAULT_CACHE_DIR})"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the result cache: neither read nor write cached tasks",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "time each kernel phase in every simulated task and print an "
            "aggregated per-phase wall-clock table after the experiment; "
            "profiled runs bypass the result cache so the timings always "
            "reflect real simulation work"
        ),
    )
    parser.add_argument(
        "--quiet",
        "-q",
        action="store_true",
        help="suppress per-task progress output on stderr",
    )
    return parser


def runner_from_args(args: argparse.Namespace) -> ExperimentRunner:
    """Build the experiment runner described by parsed CLI arguments.

    Goes through the :func:`repro.api.make_runner` facade — the same
    constructor the programmatic :func:`repro.api.sweep` uses — so CLI
    runs cannot drift from programmatic ones.
    """
    return make_runner(
        jobs=args.jobs,
        cache_dir=None if args.no_cache else args.cache_dir,
        show_progress=not args.quiet,
        profile=getattr(args, "profile", False),
    )


def _run_scenario(
    parser: argparse.ArgumentParser,
    args: argparse.Namespace,
    runner: ExperimentRunner,
) -> None:
    """Run a declarative scenario document (or a built-in spec by name).

    The workload lives in the document, so the per-figure workload flags
    are rejected here; ``--fidelity`` alone carries over and overrides the
    document's own level.  A malformed document, or a figure document
    whose tasks its table cannot read, is a parser error.
    """
    if args.experiment is not None:
        parser.error("give an experiment name or --scenario, not both")
    for knob in ("pattern", "mac", "faults", "fault_rate"):
        if getattr(args, knob) != parser.get_default(knob):
            parser.error(
                f"--{knob.replace('_', '-')} does not combine with --scenario: the "
                "scenario document itself declares the workload"
            )
    try:
        print(report(resolve_scenario(args.scenario, args.fidelity), runner))
    except ScenarioError as error:
        parser.error(f"invalid scenario: {error}")
    print()


def _run_figures(
    parser: argparse.ArgumentParser,
    args: argparse.Namespace,
    runner: ExperimentRunner,
    names: List[str],
) -> None:
    """Run figures ``names``; ``all`` keeps only those that take the given flags."""
    for knob, declined, note in WORKLOAD_FLAGS:
        value = getattr(args, knob)
        if value == parser.get_default(knob):
            continue
        takers = _takers(knob)
        if args.experiment == "all":
            names = [name for name in names if name in takers]
            print(f"[runner] {knob} {value!r}: running {', '.join(names)} ({note})")
        elif args.experiment not in takers:
            parser.error(
                f"--{knob} only applies to {', '.join(takers)}; {args.experiment} {declined}"
            )
    for name in names:
        knobs = {knob: getattr(args, knob) for knob in _knobs(name)}
        print(report(builtin_scenario(name, args.fidelity or "default", **knobs), runner))
        print()


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the requested experiment(s) and print their reports."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        runner = runner_from_args(args)
    except OSError as error:
        parser.error(f"cannot use cache directory {args.cache_dir!r}: {error}")
    if args.fault_rate is not None and not 0.0 <= args.fault_rate <= 1.0:
        parser.error("--fault-rate must be in [0, 1]")
    names = sorted(FIGURES) if args.experiment == "all" else [args.experiment]
    if (
        args.fault_rate is not None
        and args.faults == "none"
        and all(_knobs(name).get("faults", "none") == "none" for name in names)
    ):
        # Without a scenario the rate would be silently ignored (only a
        # figure that injects faults by default, fig7, sweeps without one).
        parser.error("--fault-rate requires --faults (e.g. --faults random-links)")
    if args.scenario is not None:
        _run_scenario(parser, args, runner)
    elif args.experiment is None:
        parser.error("an experiment name (or --scenario FILE) is required")
    else:
        _run_figures(parser, args, runner, names)
    if args.profile:
        print("[runner] per-phase kernel wall clock (all simulated tasks):")
        print(runner.phase_report())
        print()
    print(f"[runner] {runner.summary_line()}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
