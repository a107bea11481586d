"""End-to-end tests of the cycle-accurate simulation engine."""

import pytest

from repro.core.architectures import build_system
from repro.core.config import Architecture
from repro.core.framework import MultichipSimulation
from repro.noc.engine import SimulationConfig, Simulator
from repro.traffic.uniform import UniformRandomTraffic

from repro.testing import small_system_config


def _run(architecture, injection_rate=0.05, cycles=400, mac="control_packet", seed=11,
         memory_fraction=0.25, memory_replies=False):
    system = build_system(small_system_config(architecture, mac=mac))
    traffic = UniformRandomTraffic(
        system.topology,
        injection_rate=injection_rate,
        memory_access_fraction=memory_fraction,
        memory_replies=memory_replies,
        seed=seed,
    )
    simulator = Simulator(
        topology=system.topology,
        router=system.router,
        traffic=traffic,
        network_config=system.config.network,
        simulation_config=SimulationConfig(cycles=cycles, warmup_cycles=cycles // 4),
    )
    return simulator.run()


class TestBasicDelivery:
    @pytest.mark.parametrize(
        "architecture",
        [Architecture.SUBSTRATE, Architecture.INTERPOSER, Architecture.WIRELESS],
    )
    def test_packets_are_delivered(self, architecture):
        result = _run(architecture, injection_rate=0.02)
        assert result.packets_delivered > 0
        assert result.flits_ejected_measured > 0

    def test_flit_conservation(self):
        result = _run(Architecture.WIRELESS, injection_rate=0.02)
        # Every ejected flit was injected first.
        assert result.flits_ejected_measured <= result.flits_injected
        # Every delivered packet was generated.
        assert result.packets_delivered <= result.packets_generated
        assert result.packets_generated <= result.packets_offered

    def test_latency_at_least_path_plus_serialisation(self):
        result = _run(Architecture.WIRELESS, injection_rate=0.01)
        packet_length = 8
        assert result.average_packet_latency_cycles() >= packet_length
        assert result.average_network_latency_cycles() <= (
            result.average_packet_latency_cycles() + 1e-9
        )

    def test_energy_is_positive_and_consistent(self):
        result = _run(Architecture.WIRELESS, injection_rate=0.02)
        assert result.average_packet_energy_pj() > 0
        assert result.system_packet_energy_pj() > 0
        assert result.energy.total_pj >= result.energy.dynamic_pj

    def test_wireless_hops_only_in_wireless_architecture(self):
        wired = _run(Architecture.INTERPOSER, injection_rate=0.02)
        wireless = _run(Architecture.WIRELESS, injection_rate=0.02)
        assert wired.wireless_flit_hops == 0
        assert wireless.wireless_flit_hops > 0


class TestDeterminism:
    def test_same_seed_same_results(self):
        first = _run(Architecture.WIRELESS, seed=3)
        second = _run(Architecture.WIRELESS, seed=3)
        assert first.packets_delivered == second.packets_delivered
        assert first.flits_ejected_measured == second.flits_ejected_measured
        assert first.average_packet_latency_cycles() == pytest.approx(
            second.average_packet_latency_cycles()
        )
        assert first.average_packet_energy_pj() == pytest.approx(
            second.average_packet_energy_pj()
        )

    def test_different_seed_different_traffic(self):
        first = _run(Architecture.WIRELESS, seed=3)
        second = _run(Architecture.WIRELESS, seed=4)
        assert first.packets_offered != second.packets_offered or (
            first.average_packet_latency_cycles()
            != second.average_packet_latency_cycles()
        )


class TestLoadBehaviour:
    def test_latency_rises_with_load(self):
        low = _run(Architecture.INTERPOSER, injection_rate=0.005, cycles=600)
        high = _run(Architecture.INTERPOSER, injection_rate=0.2, cycles=600)
        assert (
            high.average_packet_latency_cycles()
            >= low.average_packet_latency_cycles()
        )

    def test_throughput_rises_with_load_below_saturation(self):
        low = _run(Architecture.WIRELESS, injection_rate=0.005, cycles=600)
        mid = _run(Architecture.WIRELESS, injection_rate=0.02, cycles=600)
        assert (
            mid.accepted_flits_per_core_per_cycle()
            > low.accepted_flits_per_core_per_cycle()
        )

    def test_zero_load_produces_no_packets(self):
        result = _run(Architecture.WIRELESS, injection_rate=0.0)
        assert result.packets_offered == 0
        assert result.average_packet_latency_cycles() == 0.0


class TestMacVariants:
    def test_token_mac_also_delivers(self):
        result = _run(Architecture.WIRELESS, injection_rate=0.02, mac="token", cycles=600)
        assert result.packets_delivered > 0
        assert any(
            stats["flits_transmitted"] > 0 for stats in result.mac_statistics.values()
        )

    def test_control_packet_mac_reports_control_packets(self):
        result = _run(Architecture.WIRELESS, injection_rate=0.02, cycles=600)
        assert any(
            stats["control_packets"] > 0 for stats in result.mac_statistics.values()
        )

    def test_sleepy_receivers_sleep_under_control_mac(self):
        result = _run(Architecture.WIRELESS, injection_rate=0.02, cycles=600)
        assert 0.0 <= result.transceiver_sleep_fraction <= 1.0


class TestMemoryReplies:
    def test_replies_generate_return_traffic(self):
        with_replies = _run(
            Architecture.WIRELESS, injection_rate=0.02, memory_replies=True, cycles=600
        )
        without = _run(
            Architecture.WIRELESS, injection_rate=0.02, memory_replies=False, cycles=600
        )
        assert with_replies.packets_offered > without.packets_offered


class TestFrameworkFacade:
    def test_run_pattern_and_summary(self, short_simulation_config):
        simulation = MultichipSimulation.from_config(
            small_system_config(Architecture.WIRELESS), short_simulation_config
        )
        result = simulation.run_pattern("uniform", injection_rate=0.02, seed=2)
        summary = result.summary()
        assert summary["packets_delivered"] > 0
        assert summary["bandwidth_gbps_per_core"] >= 0

    def test_run_application(self, short_simulation_config):
        simulation = MultichipSimulation.from_config(
            small_system_config(Architecture.WIRELESS), short_simulation_config
        )
        result = simulation.run_application("blackscholes", rate_scale=0.5, seed=2)
        assert result.packets_generated > 0

    def test_simulation_config_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(cycles=0)
        with pytest.raises(ValueError):
            SimulationConfig(cycles=100, warmup_cycles=100)
