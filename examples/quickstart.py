"""Quickstart: build a wireless multichip system and measure it.

Builds the paper's default 4C4M system (four 16-core chips plus four
in-package DRAM stacks) with the proposed wireless interconnection
framework, runs uniform random traffic at a moderate load, and prints the
headline metrics (bandwidth per core, average packet latency and energy)
together with the WI deployment summary.  It then runs one other registered
synthetic pattern by name (see ``repro.traffic.registry``).

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import (
    Architecture,
    MultichipSimulation,
    SimulationConfig,
    SystemConfig,
    build_system,
)


def main() -> None:
    config = SystemConfig(architecture=Architecture.WIRELESS)
    system = build_system(config)

    print(f"System          : {system.name}")
    print(f"Cores           : {system.num_cores}")
    print(f"Switches        : {system.topology.num_switches}")
    print(f"Wireless WIs    : {system.num_wireless_interfaces}")
    print(f"WI area overhead: {system.wireless_area_overhead_mm2():.1f} mm^2")
    print(f"Link inventory  : {system.link_inventory()}")
    print()

    simulation = MultichipSimulation(
        system, SimulationConfig(cycles=2000, warmup_cycles=300)
    )
    result = simulation.run_pattern(
        "uniform", injection_rate=0.001, memory_access_fraction=0.2, seed=1
    )

    print("Uniform random traffic @ 0.001 packets/core/cycle, 20% memory access")
    print(f"  accepted bandwidth : {result.bandwidth_gbps_per_core():.2f} Gb/s per core")
    print(f"  avg packet latency : {result.average_packet_latency_cycles():.1f} cycles")
    print(f"  avg packet energy  : {result.system_packet_energy_nj():.2f} nJ")
    print(f"  packets delivered  : {result.packets_delivered}")
    print(f"  wireless flit hops : {result.wireless_flit_hops}")
    print(f"  transceiver sleep  : {result.transceiver_sleep_fraction * 100:.1f}% of cycles")
    print()

    # Any registered synthetic pattern runs the same way, by name.
    result = simulation.run_pattern("bursty-hotspot", injection_rate=0.001, seed=7)
    print("Bursty hotspot traffic @ 0.001 packets/core/cycle")
    print(f"  accepted bandwidth : {result.bandwidth_gbps_per_core():.2f} Gb/s per core")
    print(f"  avg packet latency : {result.average_packet_latency_cycles():.1f} cycles")


if __name__ == "__main__":
    main()
