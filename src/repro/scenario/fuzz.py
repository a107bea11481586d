"""Seeded scenario fuzzer: random valid specs through the invariant battery.

The generator draws one scenario document per seed — architecture, system
shape, NoC knobs, traffic pattern or application, MAC protocol, channel
count and fault plan are all sampled from the live registries via
:func:`repro.traffic.rng.derive_seed`-derived streams, so the battery is
reproducible from a single base seed.  **Every draw is a valid spec**: a
document the validator rejects is a generator bug, and the test suite
asserts it never happens.

Each compiled task runs through the production simulator-construction
path (:func:`repro.parallel.runner.task_simulator`).  The invariants are
checked inside every simulation, fuzzed or not, so the battery only has to
run the task and report what the run raised:

1. **Flit conservation** — ``flits_injected == flits_ejected_total +
   flits_residual_end + flits_dropped_unroutable``, faulted or not, checked
   when the run settles.
2. **Deadlock freedom** — the run completes without tripping the progress
   watchdog (``SimulationStallError``).
3. **MAC exclusivity** — per wireless channel, at most one WI transmits
   in any cycle, checked by the wireless fabric on every send.
4. **Energy reconciliation** — the per-channel energy attribution sums
   to the aggregate breakdown shares (to rounding), checked when the run
   settles.

A stall or a ``KernelInvariantError`` becomes an :class:`InvariantViolation`.

``python -m repro.scenario.fuzz --count 25`` runs a fixed-seed batch (the
CI smoke job); on a violation the offending document is dumped as JSON so
it can be attached as a build artifact and replayed locally.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Dict, List, Optional, Sequence

from ..faults.scenarios import available_fault_scenarios
from ..noc import KernelInvariantError, SimulationStallError
from ..parallel.runner import task_simulator
from ..traffic.applications import APPLICATION_PROFILES
from ..traffic.registry import available_patterns
from ..traffic.rng import derive_seed, make_rng
from ..wireless.mac.registry import available_macs
from .compiler import compile_scenario
from .spec import ScenarioSpec, parse_scenario

__all__ = [
    "DEFAULT_BATTERY_SEED",
    "InvariantViolation",
    "random_scenario",
    "check_scenario",
    "check_task",
    "run_battery",
    "main",
]

#: Base seed of the CI smoke batch — fixed so every run fuzzes the same
#: 25 documents and a failure is reproducible from the log alone.
DEFAULT_BATTERY_SEED = 2017


class InvariantViolation(AssertionError):
    """A fuzzed scenario broke a kernel invariant.

    Carries the raw scenario document (``scenario``) and the offending
    task label so the CI job can dump a replayable artifact.
    """

    def __init__(self, scenario: Dict[str, object], task_label: str, failures: List[str]):
        self.scenario = scenario
        self.task_label = task_label
        self.failures = list(failures)
        detail = "; ".join(failures)
        super().__init__(
            f"scenario {scenario.get('name')!r}, task [{task_label}]: {detail}"
        )


# ----------------------------------------------------------------------
# The generator.
# ----------------------------------------------------------------------


def random_scenario(seed: int) -> Dict[str, object]:
    """One random, always-valid scenario document for ``seed``.

    The draws stay inside deliberately small envelopes (2 chips × 8 cores,
    short packets, a few hundred cycles) so a 25-document battery runs in
    seconds, while still crossing every registry: all traffic patterns,
    all MAC protocols, all fault scenarios and all three architectures
    appear across seeds.  Synthetic loads run from nearly idle to well
    past saturation (0.1–0.3 packets per core per cycle), where heads wait
    for VCs and faulted runs reroute and purge packets mid-flight.
    """
    rng = make_rng(derive_seed(seed, "scenario-fuzz"))

    architecture = rng.choice(
        ["wireless", "wireless", "wireless", "interposer", "substrate"]
    )
    packet_length = rng.choice([4, 8])
    system: Dict[str, object] = {
        "architecture": architecture,
        "num_chips": rng.choice([1, 2]),
        "cores_per_chip": rng.choice([4, 8]),
        "num_memory_stacks": rng.choice([1, 2]),
        "vaults_per_stack": 2,
        "cores_per_wi": rng.choice([2, 4]),
        "total_processing_area_mm2": 100.0,
        "network": {
            "virtual_channels": rng.choice([2, 4]),
            "buffer_depth_flits": rng.choice([4, 8]),
            "packet_length_flits": packet_length,
        },
    }

    cycles = rng.choice([240, 300, 360])
    raw: Dict[str, object] = {
        "name": f"fuzz-{seed}",
        "description": "generated by repro.scenario.fuzz",
        "fidelity": {
            "level": "fast",
            "cycles": cycles,
            "warmup_cycles": cycles // 4,
            "seed": rng.randrange(10_000),
        },
        "systems": [system],
    }

    if rng.random() < 0.25:
        raw["traffic"] = {
            "kind": "application",
            "applications": [rng.choice(sorted(APPLICATION_PROFILES))],
            "rate_scale": rng.choice([0.1, 0.25]),
        }
    else:
        raw["traffic"] = {
            "kind": "synthetic",
            "pattern": rng.choice(available_patterns()),
            "memory_fractions": [rng.choice([0.0, 0.2, 0.5])],
            "loads": [rng.choice([0.005, 0.01, 0.03, 0.06, 0.1, 0.2, 0.3])],
        }
        if architecture == "wireless":
            raw["macs"] = [rng.choice(available_macs())]

    if architecture == "wireless":
        raw["channels"] = [rng.choice([1, 2, 3])]

    scenarios = [name for name in available_fault_scenarios() if name != "none"]
    if rng.random() < 0.5:
        raw["faults"] = {
            "scenario": rng.choice(scenarios),
            "rates": [rng.choice([0.1, 0.25])],
        }
    return raw


# ----------------------------------------------------------------------
# The invariant battery.
# ----------------------------------------------------------------------


def check_task(task, scenario: Optional[Dict[str, object]] = None) -> Dict[str, object]:
    """Run one compiled task, whose run checks all four kernel invariants.

    Returns a small stats dict on success; a stall or a broken invariant
    raises :class:`InvariantViolation` carrying ``scenario`` (or a stub
    named after the task) for the replayable artifact.
    """
    try:
        result = task_simulator(task).run()
    except SimulationStallError as error:
        failure = f"deadlock: {error}"
    except KernelInvariantError as error:
        failure = f"kernel invariant: {error}"
    else:
        return {
            "task": task.label,
            "packets_delivered": result.packets_delivered,
            "flits_injected": result.flits_injected,
            "wireless_flit_hops": result.wireless_flit_hops,
        }
    raw = scenario if scenario is not None else {"name": task.label}
    raise InvariantViolation(raw, task.label, [failure]) from None


def check_scenario(raw: Dict[str, object]) -> Dict[str, object]:
    """Validate, compile and battery-test one raw scenario document."""
    spec: ScenarioSpec = parse_scenario(raw)
    tasks = compile_scenario(spec)
    reports = [check_task(task, scenario=raw) for task in tasks]
    return {
        "name": spec.name,
        "tasks": len(tasks),
        "packets_delivered": sum(r["packets_delivered"] for r in reports),
        "wireless_flit_hops": sum(r["wireless_flit_hops"] for r in reports),
    }


def run_battery(
    count: int = 25,
    base_seed: int = DEFAULT_BATTERY_SEED,
    on_progress: Optional[Callable[[int, Dict[str, object]], None]] = None,
) -> List[Dict[str, object]]:
    """Fuzz ``count`` scenarios derived from ``base_seed`` through the battery."""
    if count <= 0:
        raise ValueError("count must be positive")
    reports = []
    for index in range(count):
        raw = random_scenario(derive_seed(base_seed, "battery", index))
        report = check_scenario(raw)
        reports.append(report)
        if on_progress is not None:
            on_progress(index, report)
    return reports


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI for the CI fuzz smoke: fixed-seed batch, artifact dump on failure."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenario.fuzz",
        description=(
            "Generate seeded random scenarios and run every compiled task "
            "through the kernel invariant battery (flit conservation, "
            "deadlock freedom, MAC exclusivity, energy reconciliation)."
        ),
    )
    parser.add_argument(
        "--count", type=int, default=25, help="scenarios to generate (default: 25)"
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_BATTERY_SEED,
        help=f"base seed of the batch (default: {DEFAULT_BATTERY_SEED})",
    )
    parser.add_argument(
        "--dump",
        default="failing-scenario.json",
        metavar="FILE",
        help=(
            "where to write the offending document on an invariant "
            "violation (default: failing-scenario.json)"
        ),
    )
    args = parser.parse_args(argv)
    if args.count < 1:
        parser.error("--count must be at least 1")

    def progress(index: int, report: Dict[str, object]) -> None:
        print(
            f"[fuzz] {index + 1}/{args.count} {report['name']}: "
            f"{report['tasks']} task(s), "
            f"{report['packets_delivered']} packet(s) delivered",
            file=sys.stderr,
            flush=True,
        )

    try:
        reports = run_battery(args.count, base_seed=args.seed, on_progress=progress)
    except InvariantViolation as violation:
        with open(args.dump, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "scenario": violation.scenario,
                    "task": violation.task_label,
                    "failures": violation.failures,
                },
                handle,
                indent=2,
            )
            handle.write("\n")
        print(f"[fuzz] INVARIANT VIOLATION: {violation}", file=sys.stderr)
        print(f"[fuzz] offending scenario dumped to {args.dump}", file=sys.stderr)
        return 1
    delivered = sum(r["packets_delivered"] for r in reports)
    wireless = sum(r["wireless_flit_hops"] for r in reports)
    print(
        f"[fuzz] {len(reports)} scenario(s) upheld all four invariants "
        f"({delivered} packets delivered, {wireless} wireless flit-hops)"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI smoke
    raise SystemExit(main())
