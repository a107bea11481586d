"""Compare the three multichip interconnection architectures head to head.

Runs the paper's 4C4M system under uniform random traffic with all three
interconnection options — substrate serial I/O, interposer extended mesh and
the proposed wireless framework — sweeping the offered load, and prints the
saturation metrics plus the wireless-versus-interposer gains (the Fig. 2 /
Fig. 4 style comparison).  Each load point is one simulation task; the
runner executes them and each architecture's results fold into one sweep.

Run with::

    python examples/compare_architectures.py
"""

from __future__ import annotations

from repro import Architecture, SystemConfig, api, compare
from repro.core.comparison import ArchitectureMetrics
from repro.metrics import SweepSummary, format_table
from repro.parallel.runner import SimulationTask

LOADS = [0.0005, 0.001, 0.0015, 0.002, 0.003]


def main() -> None:
    sweeps = {
        architecture: [
            SimulationTask(
                kind="synthetic",
                config=SystemConfig(architecture=architecture),
                cycles=2000,
                warmup_cycles=300,
                seed=1,
                load=load,
                memory_access_fraction=0.2,
            )
            for load in LOADS
        ]
        for architecture in (
            Architecture.SUBSTRATE,
            Architecture.INTERPOSER,
            Architecture.WIRELESS,
        )
    }
    results = api.sweep([task for tasks in sweeps.values() for task in tasks])
    metrics = {
        architecture: ArchitectureMetrics.from_sweep_summary(
            tasks[0].config.name,
            SweepSummary(points=[results[task] for task in tasks]),
        )
        for architecture, tasks in sweeps.items()
    }

    rows = [
        [
            m.name,
            m.bandwidth_gbps_per_core,
            m.average_packet_energy_nj,
            m.average_packet_latency_cycles,
        ]
        for m in metrics.values()
    ]
    print(
        format_table(
            [
                "Configuration",
                "Peak bandwidth/core (Gbps)",
                "Avg packet energy (nJ)",
                "Avg latency (cycles)",
            ],
            rows,
        )
    )

    gains = compare(metrics[Architecture.WIRELESS], metrics[Architecture.INTERPOSER])
    print()
    print("Wireless vs interposer:")
    print(f"  bandwidth gain : {gains.bandwidth_gain_pct:+.1f}%")
    print(f"  energy gain    : {gains.energy_gain_pct:+.1f}%")
    print(f"  latency gain   : {gains.latency_gain_pct:+.1f}%")


if __name__ == "__main__":
    main()
