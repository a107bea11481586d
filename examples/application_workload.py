"""Run PARSEC / SPLASH-2 style application traffic on a wireless multichip system.

Uses the SynFull-substitute application models (each processing chip runs
one thread of the application, the DRAM stacks are shared) to compare the
wireless 4C4M system against the interposer baseline for a few applications,
the way the paper's Fig. 6 does.

Run with::

    python examples/application_workload.py
"""

from __future__ import annotations

from repro import Architecture, SystemConfig, api
from repro.core.comparison import ArchitectureMetrics, compare
from repro.metrics import format_table
from repro.parallel.runner import SimulationTask
from repro.traffic import get_profile

APPLICATIONS = ["blackscholes", "canneal", "fft", "radix"]
RATE_SCALE = 0.25


def main() -> None:
    rows = []
    for application in APPLICATIONS:
        profile = get_profile(application)
        per_arch = {}
        for architecture in (Architecture.INTERPOSER, Architecture.WIRELESS):
            config = SystemConfig(architecture=architecture)
            task = SimulationTask(
                kind="application",
                config=config,
                cycles=1500,
                warmup_cycles=250,
                seed=11,
                application=application,
                rate_scale=RATE_SCALE,
            )
            per_arch[architecture] = ArchitectureMetrics.from_point_summary(
                config.name, api.run(task)
            )
        gains = compare(
            per_arch[Architecture.WIRELESS], per_arch[Architecture.INTERPOSER]
        )
        rows.append(
            [
                f"{application} ({profile.suite})",
                per_arch[Architecture.INTERPOSER].average_packet_energy_nj,
                per_arch[Architecture.WIRELESS].average_packet_energy_nj,
                f"{gains.energy_gain_pct:+.1f}%",
                f"{gains.latency_gain_pct:+.1f}%",
            ]
        )

    print(
        format_table(
            [
                "Application",
                "Interposer energy (nJ/packet)",
                "Wireless energy (nJ/packet)",
                "Energy gain",
                "Latency gain",
            ],
            rows,
        )
    )


if __name__ == "__main__":
    main()
