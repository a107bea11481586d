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

Every experiment decomposes into independent, deterministically seeded
simulation tasks (architecture × load point × application).  ``--jobs``
fans those tasks out across worker processes — results are bit-identical
at any job count — and each task's result is cached as JSON under
``--cache-dir`` (keyed by a content hash of the task), so re-runs only
simulate what is missing.  See EXPERIMENTS.md for details.
"""

from __future__ import annotations

import argparse
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence

from ..faults.scenarios import DEFAULT_FAULT_RATE, available_fault_scenarios
from ..traffic.registry import available_patterns
from ..wireless.mac.registry import available_macs
from . import (
    fig2_uniform,
    fig3_latency,
    fig4_disintegration,
    fig5_memory_traffic,
    fig6_applications,
    fig7_resilience,
    fig8_mac_study,
)
from ..parallel.runner import DEFAULT_CACHE_DIR, ExperimentRunner

#: Experiment name -> runner registry.  Every entry accepts
#: ``(fidelity, runner, pattern)`` — plus ``faults`` / ``fault_rate`` for
#: the fault-capable experiments and ``mac`` for the MAC-capable ones —
#: and returns the formatted report text.
EXPERIMENTS: Dict[str, Callable[..., str]] = {
    "fig2": fig2_uniform.main,
    "fig3": fig3_latency.main,
    "fig4": fig4_disintegration.main,
    "fig5": fig5_memory_traffic.main,
    "fig6": fig6_applications.main,
    "fig7": fig7_resilience.main,
    "fig8": fig8_mac_study.main,
}

#: Experiments whose synthetic workload can be swapped via ``--pattern``
#: (fig5 sweeps the uniform memory mix, fig6 runs application traffic).
PATTERN_EXPERIMENTS = ("fig2", "fig3", "fig4", "fig7", "fig8")

#: Experiments that accept a fault scenario via ``--faults`` (fig7 always
#: injects: it *is* the resilience sweep and defaults to random-links).
FAULT_EXPERIMENTS = ("fig2", "fig3", "fig4", "fig7")

#: Experiments that accept a wireless MAC override via ``--mac`` (fig8
#: sweeps every registered MAC unless the flag pins one).
MAC_EXPERIMENTS = ("fig2", "fig3", "fig4", "fig8")


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
        choices=sorted(EXPERIMENTS) + ["all"],
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
            "scenario name (fig2..fig8) to run that figure's spec form; "
            "compiled tasks share the result cache with the flag-form "
            "figures bit for bit"
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
            "synthetic traffic pattern for the load-sweep figures "
            "(fig2/fig3/fig4); constructed by name from the traffic "
            "registry (default: uniform)"
        ),
    )
    parser.add_argument(
        "--mac",
        choices=available_macs(),
        default=None,
        help=(
            "wireless MAC protocol override for the MAC-capable "
            "experiments (fig2/fig3/fig4/fig8); constructed by name from "
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
            "fault-capable experiments (fig2/fig3/fig4/fig7); constructed "
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
    from ..api import make_runner

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
) -> int:
    """Run a declarative scenario document (or a built-in spec by name).

    The workload lives in the document, so the per-figure workload flags
    are rejected here; ``--fidelity`` alone carries over and overrides the
    document's own level.  Imported lazily so plain figure runs never pay
    for (or depend on) the scenario layer.
    """
    from ..scenario import (
        BUILTIN_SCENARIOS,
        ScenarioError,
        builtin_scenario,
        format_scenario_report,
        load_scenario,
        run_scenario,
    )

    if args.experiment is not None:
        parser.error("give an experiment name or --scenario, not both")
    for flag, given in (
        ("--pattern", args.pattern != "uniform"),
        ("--mac", args.mac is not None),
        ("--faults", args.faults != "none"),
        ("--fault-rate", args.fault_rate is not None),
    ):
        if given:
            parser.error(
                f"{flag} does not combine with --scenario: the scenario "
                "document itself declares the workload"
            )
    try:
        if args.scenario in BUILTIN_SCENARIOS:
            spec = builtin_scenario(args.scenario, args.fidelity or "default")
        else:
            spec = load_scenario(args.scenario)
            if args.fidelity is not None:
                spec = replace(spec, fidelity_level=args.fidelity)
    except ScenarioError as error:
        parser.error(f"invalid scenario: {error}")
    except OSError as error:
        parser.error(f"cannot read scenario {args.scenario!r}: {error}")
    points = run_scenario(spec, runner)
    print(format_scenario_report(spec, points))
    print()
    if args.profile:
        print("[runner] per-phase kernel wall clock (all simulated tasks):")
        print(runner.phase_report())
        print()
    print(f"[runner] {runner.summary_line()}")
    return 0


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
    if (
        args.fault_rate is not None
        and args.faults == "none"
        and args.experiment not in ("fig7", "all")
    ):
        # Without a scenario the rate would be silently ignored (only fig7
        # promotes 'none' to its default scenario).
        parser.error("--fault-rate requires --faults (e.g. --faults random-links)")
    if args.scenario is not None:
        return _run_scenario(parser, args, runner)
    if args.experiment is None:
        parser.error("an experiment name (or --scenario FILE) is required")
    if args.experiment == "all":
        names: List[str] = sorted(EXPERIMENTS)
        if args.pattern != "uniform":
            names = [n for n in names if n in PATTERN_EXPERIMENTS]
            print(
                f"[runner] pattern {args.pattern!r}: running "
                f"{', '.join(names)} (fig5/fig6 are uniform/application-only)"
            )
        if args.faults != "none":
            names = [n for n in names if n in FAULT_EXPERIMENTS]
            print(
                f"[runner] faults {args.faults!r}: running "
                f"{', '.join(names)} (fig5/fig6 run on pristine fabrics)"
            )
        if args.mac is not None:
            names = [n for n in names if n in MAC_EXPERIMENTS]
            print(
                f"[runner] mac {args.mac!r}: running "
                f"{', '.join(names)} (the rest have no MAC to swap)"
            )
    else:
        names = [args.experiment]
        if args.pattern != "uniform" and args.experiment not in PATTERN_EXPERIMENTS:
            parser.error(
                f"--pattern only applies to {', '.join(PATTERN_EXPERIMENTS)}; "
                f"{args.experiment} has a fixed workload"
            )
        if args.faults != "none" and args.experiment not in FAULT_EXPERIMENTS:
            parser.error(
                f"--faults only applies to {', '.join(FAULT_EXPERIMENTS)}; "
                f"{args.experiment} runs on a pristine fabric"
            )
        if args.mac is not None and args.experiment not in MAC_EXPERIMENTS:
            parser.error(
                f"--mac only applies to {', '.join(MAC_EXPERIMENTS)}; "
                f"{args.experiment} has no wireless MAC to swap"
            )
    for name in names:
        kwargs = {"pattern": args.pattern}
        if name in MAC_EXPERIMENTS and args.mac is not None:
            kwargs["mac"] = args.mac
        if name == "fig7":
            # fig7 *is* the resilience sweep: it promotes 'none' to its
            # default scenario and sweeps the fault-rate grid unless one
            # rate is pinned on the command line.
            kwargs["faults"] = args.faults
            kwargs["fault_rate"] = args.fault_rate
        elif name in FAULT_EXPERIMENTS and args.faults != "none":
            kwargs["faults"] = args.faults
            kwargs["fault_rate"] = (
                args.fault_rate if args.fault_rate is not None else DEFAULT_FAULT_RATE
            )
        EXPERIMENTS[name](args.fidelity or "default", runner, **kwargs)
        print()
    if args.profile:
        print("[runner] per-phase kernel wall clock (all simulated tasks):")
        print(runner.phase_report())
        print()
    print(f"[runner] {runner.summary_line()}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
