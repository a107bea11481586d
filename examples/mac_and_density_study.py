"""Design-space study: MAC protocol and WI deployment density.

Explores two design choices discussed in Section III of the paper on a
smaller system so it runs quickly:

* the proposed control-packet MAC (partial-packet transmission, sleepy
  receivers) versus the baseline token-passing MAC (whole-packet
  transmission, always-on receivers), and
* the wireless deployment density (cores served by one WI).

Run with::

    python examples/mac_and_density_study.py
"""

from __future__ import annotations

from repro import Architecture, MultichipSimulation, SimulationConfig, SystemConfig
from repro.metrics import format_table

SIMULATION = SimulationConfig(cycles=1500, warmup_cycles=250)
LOAD = 0.002


def run_variant(mac: str, cores_per_wi: int):
    config = SystemConfig(
        architecture=Architecture.WIRELESS,
        num_chips=2,
        cores_per_chip=16,
        num_memory_stacks=2,
        cores_per_wi=cores_per_wi,
        total_processing_area_mm2=200.0,
    ).with_wireless(mac=mac)
    simulation = MultichipSimulation.from_config(config, SIMULATION)
    result = simulation.run_pattern(
        "uniform", injection_rate=LOAD, memory_access_fraction=0.2, seed=5
    )
    return result


def main() -> None:
    rows = []
    for mac in ("control_packet", "token"):
        for cores_per_wi in (16, 8):
            result = run_variant(mac, cores_per_wi)
            rows.append(
                [
                    mac,
                    f"1 WI / {cores_per_wi} cores",
                    result.bandwidth_gbps_per_core(),
                    result.average_packet_latency_cycles(),
                    result.system_packet_energy_nj(),
                    f"{result.transceiver_sleep_fraction * 100:.0f}%",
                ]
            )
    print(
        format_table(
            [
                "MAC",
                "WI density",
                "Accepted bandwidth (Gbps/core)",
                "Avg latency (cycles)",
                "Avg packet energy (nJ)",
                "Receiver sleep time",
            ],
            rows,
        )
    )


if __name__ == "__main__":
    main()
