"""Kernel micro-benchmark: active-set versus dense scheduling.

Runs two uniform load points per architecture (the single-chip mesh
baseline plus the paper's three multichip systems) under both kernel
schedulers, verifies they agree bit for bit, and writes a perf snapshot to
``BENCH_kernel.json`` so the kernel's wall-clock trajectory is tracked
across changes.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernel.py [--cycles N] [--load L]
                                                     [--saturation-load L]
                                                     [--output PATH]

The default mid load (0.0002 packets/core/cycle) is about 10 % of the mesh
baseline's saturation load (~0.002 from the fig2/fig3 sweeps) — squarely in
the low/mid-load region that dominates every figure sweep, where the
active-set scheduler's wake sets pay off most.  The near-saturation point
(default 0.0018, 90 % of mesh saturation) keeps the congested regime
honest: there almost every switch is awake every cycle, so it measures the
raw per-flit cost of the array-backed data plane rather than the wake-set
bookkeeping, and a regression that only hurts busy switches cannot hide
behind the quiet mid-load numbers.

A third, wireless-heavy point saturates the token MAC: the 4C4M wireless
system (the interposer comparison configuration of Figs. 2/3) at the
near-saturation load under ``mac="token"``, where whole-packet buffering
and token rotation keep the MAC arbitration and the per-WI pending scans
hot every cycle.  It pins the cost of the handle-based wireless data plane
the way the mid/saturation points pin the wired one.

A fourth point covers the multi-channel fabric loop: the same 4C4M
wireless system under the control-packet MAC with eight channels (the top
of fig8's sweep), where every cycle walks all eight per-channel grant
states and the per-channel energy attribution.  The token point keeps a
single channel busy; this one gates the per-channel bookkeeping that only
multi-channel sweeps exercise.
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from typing import Dict, Optional

from repro.core.config import Architecture, SystemConfig, paper_4c4m
from repro.core.framework import MultichipSimulation
from repro.metrics.report import format_simulator_throughput, format_table
from repro.noc.engine import SimulationConfig

#: Offered load of the mid-load benchmark point [packets/core/cycle]; ~10 %
#: of the mesh baseline's saturation load (acceptance criterion: <= 30 %).
DEFAULT_LOAD = 0.0002

#: Approximate saturation load of the mesh baseline under uniform traffic
#: with the default 64-flit packets (from the fig2/fig3 load sweeps).
MESH_SATURATION_LOAD = 0.002

#: Offered load of the near-saturation benchmark point (90 % of the mesh
#: baseline's saturation load): the congested regime where wake sets stop
#: helping and the per-flit data-plane cost dominates.
DEFAULT_SATURATION_LOAD = 0.0018

DEFAULT_CYCLES = 2000

DEFAULT_OUTPUT = "BENCH_kernel.json"


def benchmark_configs() -> Dict[str, SystemConfig]:
    """One mid-load uniform point per architecture."""
    return {
        "mesh": SystemConfig(
            architecture=Architecture.SUBSTRATE, num_chips=1, cores_per_chip=64
        ),
        "substrate": paper_4c4m(Architecture.SUBSTRATE),
        "interposer": paper_4c4m(Architecture.INTERPOSER),
        "wireless": paper_4c4m(Architecture.WIRELESS),
    }


def wireless_token_configs() -> Dict[str, SystemConfig]:
    """The wireless-heavy point: token-MAC arbitration at saturation."""
    return {
        "wireless-token": paper_4c4m(Architecture.WIRELESS).with_wireless(mac="token"),
    }


def wireless_control8_configs() -> Dict[str, SystemConfig]:
    """The multi-channel point: control-packet MAC over eight channels."""
    return {
        "wireless-control8": paper_4c4m(Architecture.WIRELESS).with_wireless(
            mac="control_packet", num_channels=8
        ),
    }


def run_once(config: SystemConfig, load: float, cycles: int, scheduler: str):
    """One timed simulation run under the given scheduler.

    Built through :class:`MultichipSimulation` and the traffic registry —
    the same construction path the experiment CLI uses — so the benchmark
    exercises exactly what the figures run, not a parallel bespoke wiring.
    """
    simulation = MultichipSimulation.from_config(
        config,
        SimulationConfig(
            cycles=cycles,
            warmup_cycles=cycles // 10,
            scheduler=scheduler,
        ),
    )
    started = time.perf_counter()
    result = simulation.run_pattern(
        "uniform", injection_rate=load, memory_access_fraction=0.2, seed=7
    )
    elapsed = time.perf_counter() - started
    return result, elapsed


def fingerprint(result) -> tuple:
    """The counters that must agree between the two schedulers."""
    return (
        result.packets_delivered,
        result.flits_injected,
        result.flits_ejected_measured,
        result.flit_hops,
        result.wireless_flit_hops,
        tuple(result.latencies_cycles),
        result.energy.total_pj,
    )


def bench_load_point(
    load: float,
    cycles: int,
    repeats: int,
    configs: Optional[Dict[str, SystemConfig]] = None,
) -> Dict[str, Dict[str, float]]:
    """Benchmark one offered load across a set of configurations.

    ``repeats`` runs each (configuration, scheduler) point several times and
    keeps the fastest wall-clock — best-of-N is the standard defence
    against scheduler noise on shared machines, and it is what the CI
    bench-trend gate uses so a single GC pause cannot fail the build.
    Results are bit-identical across repeats (asserted), so only timing is
    affected.
    """
    entries: Dict[str, Dict[str, float]] = {}
    if configs is None:
        configs = benchmark_configs()
    for name, config in configs.items():
        dense_result, dense_s = run_once(config, load, cycles, "dense")
        active_result, active_s = run_once(config, load, cycles, "active")
        for _ in range(repeats - 1):
            again, seconds = run_once(config, load, cycles, "dense")
            if fingerprint(again) != fingerprint(dense_result):
                raise AssertionError(f"dense runs diverged for {name!r}")
            dense_s = min(dense_s, seconds)
            again, seconds = run_once(config, load, cycles, "active")
            if fingerprint(again) != fingerprint(active_result):
                raise AssertionError(f"active runs diverged for {name!r}")
            active_s = min(active_s, seconds)
        if fingerprint(dense_result) != fingerprint(active_result):
            raise AssertionError(
                f"scheduler parity violated for {name!r}: the active-set "
                "kernel diverged from the dense reference"
            )
        entries[name] = {
            "dense_seconds": round(dense_s, 4),
            "active_seconds": round(active_s, 4),
            "speedup": round(dense_s / active_s, 3),
            "active_cycles_per_second": round(cycles / active_s, 1),
            "active_flits_per_second": round(
                active_result.flit_hops / active_s, 1
            ),
            "packets_delivered": active_result.packets_delivered,
        }
    return entries


def run_benchmark(
    load: float,
    cycles: int,
    repeats: int = 1,
    saturation_load: float = DEFAULT_SATURATION_LOAD,
) -> Dict[str, object]:
    """Benchmark both load points and assemble the snapshot payload."""
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    entries = bench_load_point(load, cycles, repeats)
    saturation_entries = bench_load_point(saturation_load, cycles, repeats)
    wireless_entries = bench_load_point(
        saturation_load, cycles, repeats, configs=wireless_token_configs()
    )
    control8_entries = bench_load_point(
        saturation_load, cycles, repeats, configs=wireless_control8_configs()
    )
    return {
        "benchmark": "bench_kernel",
        "description": (
            "one mid-load and one near-saturation uniform point per "
            "architecture plus token-MAC and 8-channel control-packet "
            "wireless saturation points, dense vs active-set scheduler "
            "(identical results, different wall-clock)"
        ),
        "load_packets_per_core_per_cycle": load,
        "load_fraction_of_mesh_saturation": round(load / MESH_SATURATION_LOAD, 3),
        "saturation_load_packets_per_core_per_cycle": saturation_load,
        "saturation_load_fraction_of_mesh_saturation": round(
            saturation_load / MESH_SATURATION_LOAD, 3
        ),
        "cycles": cycles,
        "python": platform.python_version(),
        "results": entries,
        "results_saturation": saturation_entries,
        "results_wireless_token": wireless_entries,
        "results_wireless_control8": control8_entries,
        "mesh_speedup": entries["mesh"]["speedup"],
    }


def _point_table(cycles: int, entries: Dict[str, Dict[str, float]]) -> str:
    rows = []
    for name, entry in entries.items():
        rows.append(
            [
                name,
                entry["dense_seconds"],
                entry["active_seconds"],
                f"{entry['speedup']:.2f}x",
                format_simulator_throughput(
                    cycles, entry["active_seconds"]
                ).split(": ")[1],
            ]
        )
    return format_table(
        ["Architecture", "dense (s)", "active (s)", "speedup", "active throughput"],
        rows,
    )


def format_report(snapshot: Dict[str, object]) -> str:
    """Human-readable tables of the snapshot (both load points)."""
    cycles = snapshot["cycles"]
    parts = [
        f"mid load ({snapshot['load_fraction_of_mesh_saturation']:.0%} of "
        "mesh saturation):",
        _point_table(cycles, snapshot["results"]),
    ]
    saturation = snapshot.get("results_saturation")
    if saturation:
        parts.append(
            f"\nnear saturation "
            f"({snapshot['saturation_load_fraction_of_mesh_saturation']:.0%} "
            "of mesh saturation):"
        )
        parts.append(_point_table(cycles, saturation))
    wireless_token = snapshot.get("results_wireless_token")
    if wireless_token:
        parts.append("\ntoken-MAC wireless saturation (4C4M, mac=token):")
        parts.append(_point_table(cycles, wireless_token))
    control8 = snapshot.get("results_wireless_control8")
    if control8:
        parts.append(
            "\n8-channel control-packet wireless saturation "
            "(4C4M, mac=control_packet, num_channels=8):"
        )
        parts.append(_point_table(cycles, control8))
    return "\n".join(parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cycles", type=int, default=DEFAULT_CYCLES)
    parser.add_argument("--load", type=float, default=DEFAULT_LOAD)
    parser.add_argument(
        "--saturation-load",
        type=float,
        default=DEFAULT_SATURATION_LOAD,
        help=(
            "offered load of the near-saturation point "
            f"(default: {DEFAULT_SATURATION_LOAD})"
        ),
    )
    parser.add_argument("--output", default=DEFAULT_OUTPUT)
    parser.add_argument(
        "--repeats",
        type=int,
        default=1,
        help="timing repeats per point; the fastest run wins (default: 1)",
    )
    args = parser.parse_args(argv)

    snapshot = run_benchmark(
        args.load,
        args.cycles,
        repeats=args.repeats,
        saturation_load=args.saturation_load,
    )
    print(format_report(snapshot))
    mesh_speedup = snapshot["mesh_speedup"]
    print(
        f"\nmesh baseline speedup at "
        f"{snapshot['load_fraction_of_mesh_saturation']:.0%} of saturation: "
        f"{mesh_speedup:.2f}x"
    )
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"snapshot written to {args.output}")
    # Timing is advisory (noisy machines exist); only a parity violation —
    # which raises inside run_benchmark — makes this benchmark fail.
    if mesh_speedup < 2.0:
        print("WARNING: mesh speedup below the 2x acceptance threshold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
