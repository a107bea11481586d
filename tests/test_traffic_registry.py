"""Tests for the name tables: traffic patterns, architectures, and the
unknown-name errors of the pattern, MAC and fault-scenario tables."""

from __future__ import annotations

import pytest

from repro.core.architectures import _OVERLAYS, build_system
from repro.core.config import Architecture
from repro.faults.scenarios import UnknownScenarioError, available_fault_scenarios
from repro.noc.config import WirelessConfig
from repro.parallel.runner import SimulationTask
from repro.testing import small_system_config
from repro.traffic.base import TrafficModel
from repro.traffic.registry import UnknownPatternError, available_patterns, create_pattern
from repro.traffic.synthetic import (
    BitReversalTraffic,
    BurstyHotspotTraffic,
    default_hotspots,
)
from repro.wireless.mac.registry import UnknownMacError, available_macs, mac_spec


@pytest.fixture(scope="module")
def topology():
    return build_system(small_system_config(Architecture.INTERPOSER)).topology


def collect_requests(traffic, cycles):
    requests = []
    for cycle in range(cycles):
        requests.extend(traffic.generate(cycle))
    return requests


class TestPatternRegistry:
    def test_expected_builtins_registered(self):
        patterns = available_patterns()
        for name in (
            "uniform",
            "transpose",
            "bit-complement",
            "bit-reversal",
            "neighbour",
            "hotspot",
            "bursty-hotspot",
        ):
            assert name in patterns

    def test_every_pattern_constructs_a_traffic_model(self, topology):
        for name in available_patterns():
            traffic = create_pattern(
                name, topology, injection_rate=0.02, seed=1
            )
            assert isinstance(traffic, TrafficModel)


class TestPatternDistributions:
    def test_transpose_is_a_fixed_permutation(self, topology):
        traffic = create_pattern("transpose", topology, injection_rate=1.0, seed=2)
        cores = traffic.cores
        expected = {
            core: traffic.destination_of(index) for index, core in enumerate(cores)
        }
        for request in collect_requests(traffic, 50):
            assert request.dst_endpoint == expected[request.src_endpoint]

    def test_bit_reversal_permutation_on_power_of_two(self, topology):
        traffic = BitReversalTraffic(topology, injection_rate=1.0, seed=2)
        cores = traffic.cores
        count = len(cores)
        assert count & (count - 1) == 0  # the small system has 8 cores
        bits = count.bit_length() - 1
        for index, core in enumerate(cores):
            reversed_index = int(f"{index:0{bits}b}"[::-1], 2)
            assert traffic.destination_of(index) == cores[reversed_index]
        # A permutation: every destination is hit exactly once.
        destinations = {traffic.destination_of(i) for i in range(count)}
        assert destinations == set(cores)

    def test_bit_complement_reverses_indices(self, topology):
        traffic = create_pattern(
            "bit-complement", topology, injection_rate=1.0, seed=2
        )
        cores = traffic.cores
        for index in range(len(cores)):
            assert traffic.destination_of(index) == cores[len(cores) - 1 - index]

    def test_uniform_respects_memory_fraction(self, topology):
        traffic = create_pattern(
            "uniform",
            topology,
            injection_rate=1.0,
            memory_access_fraction=0.5,
            seed=3,
        )
        requests = collect_requests(traffic, 200)
        memory_share = sum(r.is_memory_access for r in requests) / len(requests)
        assert 0.4 < memory_share < 0.6

    def test_bursty_hotspot_concentrates_during_bursts(self, topology):
        traffic = BurstyHotspotTraffic(
            topology,
            injection_rate=0.2,
            hotspot_fraction=0.8,
            burst_period_cycles=100,
            burst_duty=0.3,
            burst_scale=4.0,
            seed=4,
        )
        hotspots = set(default_hotspots(topology))
        burst_requests, quiet_requests = [], []
        for cycle in range(1000):
            bucket = burst_requests if traffic.in_burst(cycle) else quiet_requests
            bucket.extend(traffic.generate(cycle))
        assert burst_requests and quiet_requests
        # Bursts inject at several times the background rate...
        burst_cycles = sum(traffic.in_burst(c) for c in range(1000))
        burst_rate = len(burst_requests) / burst_cycles
        quiet_rate = len(quiet_requests) / (1000 - burst_cycles)
        assert burst_rate > 2 * quiet_rate
        # ...and concentrate traffic on the hotspot endpoints.
        burst_hotspot_share = sum(
            r.dst_endpoint in hotspots for r in burst_requests
        ) / len(burst_requests)
        quiet_hotspot_share = sum(
            r.dst_endpoint in hotspots for r in quiet_requests
        ) / len(quiet_requests)
        assert burst_hotspot_share > 0.5
        assert burst_hotspot_share > quiet_hotspot_share + 0.2

    def test_bursty_hotspot_phase_token_tracks_windows(self, topology):
        traffic = BurstyHotspotTraffic(
            topology, injection_rate=0.1, burst_period_cycles=50, seed=1
        )
        list(traffic.generate(0))
        first = traffic.phase_token()
        list(traffic.generate(60))
        second = traffic.phase_token()
        assert first != second
        traffic.reset()
        assert traffic.phase_token() == first


class TestArchitectureRegistry:
    def test_builtin_architectures_registered(self):
        assert set(_OVERLAYS) == set(Architecture)

    def test_build_system_goes_through_registry(self):
        """Each architecture's overlay still yields its signature links."""
        for architecture in Architecture:
            system = build_system(small_system_config(architecture))
            inventory = system.link_inventory()
            if architecture is Architecture.WIRELESS:
                assert inventory.get("wireless", 0) > 0
            else:
                assert inventory.get("wireless", 0) == 0


def _bogus_pattern():
    topology = build_system(small_system_config(Architecture.INTERPOSER)).topology
    create_pattern("bogus", topology, injection_rate=0.01)


def _bogus_task(**names):
    """Constructing the task must raise: before any cache key or system build."""
    SimulationTask(
        kind="synthetic",
        config=small_system_config(Architecture.SUBSTRATE),
        cycles=400,
        warmup_cycles=100,
        seed=1,
        load=0.01,
        **names,
    )


@pytest.mark.parametrize(
    "lookup, error, known",
    [
        (_bogus_pattern, UnknownPatternError, available_patterns),
        (lambda: mac_spec("bogus"), UnknownMacError, available_macs),
        (lambda: WirelessConfig(mac="bogus"), ValueError, available_macs),
        (lambda: _bogus_task(faults="bogus"), UnknownScenarioError, available_fault_scenarios),
        (lambda: _bogus_task(pattern="bogus"), UnknownPatternError, available_patterns),
    ],
    ids=["pattern", "mac", "wireless-config-mac", "faults", "pattern-task"],
)
def test_unknown_name_lists_the_known_names(lookup, error, known):
    with pytest.raises(error) as raised:
        lookup()
    message = str(raised.value)
    assert "'bogus'" in message
    assert ", ".join(known()) in message
