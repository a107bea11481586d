"""Wireless data-plane tests: MAC registry, grant exclusivity, channel energy.

The contracts:

* **Registry** — every shipped protocol is constructible by name, unknown
  names fail loudly at configuration time, and the registry metadata
  (whole-packet buffering) drives the WI buffer sizing.
* **Grant exclusivity** — property-tested: per wireless channel, at most
  one WI transmits in any cycle, for every MAC, seed and load.
* **Per-channel energy** — the per-channel attribution sums exactly to the
  aggregate :class:`EnergyBreakdown` shares, and the fig8 study's
  reconciliation helper agrees.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.architectures import build_system
from repro.core.config import Architecture
from repro.noc.config import NetworkConfig, WirelessConfig
from repro.noc.engine import SimulationConfig, Simulator
from repro.testing import small_system_config
from repro.traffic.registry import create_pattern
from repro.wireless.mac import available_macs, mac_spec, register_mac
from repro.wireless.mac.registry import UnknownMacError

ALL_MACS = ("control_packet", "fdma", "tdma", "token")


def _build_simulator(mac, channels, rate=0.08, seed=11, cycles=500):
    config = small_system_config(Architecture.WIRELESS, mac=mac).with_wireless(
        num_channels=channels
    )
    system = build_system(config)
    traffic = create_pattern(
        "uniform",
        system.topology,
        injection_rate=rate,
        memory_access_fraction=0.25,
        seed=seed,
    )
    return Simulator(
        topology=system.topology,
        router=system.router,
        traffic=traffic,
        network_config=config.network,
        simulation_config=SimulationConfig(cycles=cycles, warmup_cycles=cycles // 4),
    )


class TestMacRegistry:
    def test_all_shipped_macs_registered(self):
        assert set(ALL_MACS) <= set(available_macs())

    def test_spec_metadata(self):
        assert mac_spec("token").whole_packet_buffering
        assert not mac_spec("control_packet").whole_packet_buffering
        assert mac_spec("control_packet").supports_sleepy_receivers
        assert not mac_spec("tdma").supports_sleepy_receivers

    def test_unknown_mac_rejected(self):
        with pytest.raises(UnknownMacError):
            mac_spec("aloha")
        with pytest.raises(ValueError):
            WirelessConfig(mac="aloha")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_mac("token")(lambda context: None)

    def test_wi_buffer_depth_follows_registry_metadata(self):
        token = NetworkConfig(packet_length_flits=64, wireless=WirelessConfig(mac="token"))
        for mac in ("control_packet", "tdma", "fdma"):
            partial = NetworkConfig(
                packet_length_flits=64, wireless=WirelessConfig(mac=mac)
            )
            assert partial.wi_buffer_depth == 2 * partial.buffer_depth_flits
            assert partial.wi_buffer_depth < token.wi_buffer_depth

    def test_tdma_knobs_validated(self):
        with pytest.raises(ValueError):
            WirelessConfig(tdma_slot_cycles=0)
        with pytest.raises(ValueError):
            WirelessConfig(tdma_guard_cycles=-1)
        # Jointly inconsistent knobs fail at configuration time, not at
        # fabric construction deep inside a simulation build.
        with pytest.raises(ValueError, match="guard"):
            WirelessConfig(mac="tdma", tdma_slot_cycles=1, tdma_guard_cycles=1)
        with pytest.raises(ValueError, match="derived"):
            NetworkConfig(
                packet_length_flits=1,
                wireless=WirelessConfig(mac="tdma", tdma_guard_cycles=1),
            )


class TestGrantExclusivity:
    """Per channel, at most one WI puts a flit on the air in any cycle."""

    @settings(max_examples=12, deadline=None)
    @given(
        mac=st.sampled_from(ALL_MACS),
        channels=st.sampled_from([1, 2, 3]),
        rate=st.sampled_from([0.02, 0.1, 0.3]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_property_one_transmitter_per_channel_per_cycle(
        self, mac, channels, rate, seed
    ):
        simulator = _build_simulator(mac, channels, rate=rate, seed=seed, cycles=300)
        observed = {}  # (cycle, channel_id) -> set of transmitting WIs

        def install_probe(network):
            fabric = network.wireless_fabric
            assert fabric is not None
            original = fabric.notify_sent

            def probe(src, pid, dst, is_tail, cycle):
                channel = fabric._mac_of[src].channel_id
                observed.setdefault((cycle, channel), set()).add(src)
                original(src, pid, dst, is_tail, cycle)

            fabric.notify_sent = probe

        simulator.instrument = install_probe
        simulator.run()
        overlaps = {
            key: senders for key, senders in observed.items() if len(senders) > 1
        }
        assert not overlaps, f"overlapping grants: {overlaps}"
        if rate >= 0.1:
            assert observed, "expected some wireless traffic at this load"


class TestChannelEnergyAttribution:
    @pytest.mark.parametrize("mac", ALL_MACS)
    def test_per_channel_energy_reconciles(self, mac):
        result = _build_simulator(mac, channels=3, rate=0.1).run()
        assert result.packets_delivered > 0
        breakdown = result.channel_energy_pj
        assert breakdown, "wireless run must publish a per-channel breakdown"
        assert sum(e["wireless_pj"] for e in breakdown.values()) == pytest.approx(
            result.energy.wireless_pj
        )
        assert sum(e["mac_control_pj"] for e in breakdown.values()) == pytest.approx(
            result.energy.mac_control_pj
        )
        assert sum(
            e["transceiver_static_pj"] for e in breakdown.values()
        ) == pytest.approx(result.energy.transceiver_static_pj)

    def test_fig8_reconciliation_helper_agrees(self):
        from repro.experiments.fig8_mac_study import _check_reconciliation
        from repro.metrics.saturation import LoadPointSummary

        result = _build_simulator("control_packet", channels=2, rate=0.1).run()
        point = LoadPointSummary.from_result(0.1, result)
        assert _check_reconciliation(point)
        broken = LoadPointSummary.from_dict(
            {**point.as_dict(), "wireless_energy_pj": point.wireless_energy_pj + 1.0}
        )
        assert not _check_reconciliation(broken)

    def test_wired_run_has_no_channel_breakdown(self):
        config = small_system_config(Architecture.INTERPOSER)
        system = build_system(config)
        traffic = create_pattern(
            "uniform",
            system.topology,
            injection_rate=0.05,
            memory_access_fraction=0.25,
            seed=2,
        )
        result = Simulator(
            topology=system.topology,
            router=system.router,
            traffic=traffic,
            network_config=config.network,
            simulation_config=SimulationConfig(cycles=300, warmup_cycles=50),
        ).run()
        assert result.channel_energy_pj == {}


class TestMacTaskThreading:
    def test_mac_override_changes_cache_key_and_label(self):
        from repro.parallel.runner import uniform_task

        class _Fidelity:
            cycles = 400
            warmup_cycles = 100
            seed = 3

        config = small_system_config(Architecture.WIRELESS)
        base = uniform_task(config, _Fidelity, load=0.01)
        pinned = uniform_task(config, _Fidelity, load=0.01, mac="token")
        assert base.cache_key() != pinned.cache_key()
        assert pinned.cache_key() != uniform_task(
            config, _Fidelity, load=0.01, mac="tdma"
        ).cache_key()
        assert "mac=token" in pinned.label
        assert pinned.effective_config().network.wireless.mac == "token"
        assert base.effective_config() is config

    def test_unknown_mac_rejected_at_task_construction(self):
        from repro.parallel.runner import uniform_task

        class _Fidelity:
            cycles = 400
            warmup_cycles = 100
            seed = 3

        with pytest.raises(KeyError):
            uniform_task(
                small_system_config(Architecture.WIRELESS),
                _Fidelity,
                load=0.01,
                mac="no-such-mac",
            )

    def test_fig8_study_loads_selection(self):
        from repro.scenario.compiler import study_loads

        assert study_loads([0.1, 0.2]) == [0.1, 0.2]
        assert study_loads([0.4, 0.1, 0.2, 0.3, 0.5]) == [0.1, 0.3, 0.5]
