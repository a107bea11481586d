"""Wireless data-plane tests: MAC registry, grant exclusivity, channel energy.

The contracts:

* **Registry** — every shipped protocol is constructible by name, and the
  table's metadata (whole-packet buffering) drives the WI buffer sizing;
  unknown names are tested with the other tables in
  ``test_traffic_registry.py``.
* **Grant exclusivity** — property-tested: per wireless channel, at most
  one WI transmits in any cycle, for every MAC, seed and load.  The
  wireless fabric checks it on every send, so a clean run is the proof,
  and a MAC that grants everyone must end the run in a
  :class:`KernelInvariantError`.
* **Per-channel energy** — the per-channel attribution sums exactly to the
  aggregate :class:`EnergyBreakdown` shares; every run checks it when it
  settles, and a doctored attribution fails the run.
* **Transceiver residency** — the fabric changes a transceiver's
  asleep/awake run only when its MAC's receiver state changes or a WI dies;
  the settled runs equal a per-cycle sample of the MAC's transmitter and
  intended receivers, for every MAC, with sleepy receivers on and off, and
  across a transceiver death.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.architectures import build_system
from repro.core.config import Architecture
from repro.faults import create_fault_plan
from repro.noc import KernelInvariantError, WirelessFabric
from repro.noc.config import NetworkConfig, WirelessConfig
from repro.noc.engine import SimulationConfig, Simulator
from repro.noc.network import Network
from repro.testing import small_system_config
from repro.traffic.registry import create_pattern
from repro.wireless.mac import available_macs, mac_spec

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
        # The fabric raises KernelInvariantError on a second transmitter,
        # so completing the run is the property.
        result = _build_simulator(mac, channels, rate=rate, seed=seed, cycles=300).run()
        if rate >= 0.1:
            assert result.wireless_flit_hops > 0, "expected wireless traffic at this load"

    def test_a_mac_that_grants_everyone_fails_the_run(self, monkeypatch):
        # Both admission questions say yes to every WI: the kernel asks
        # ``may_transmit`` once per output before any ``grants``.
        monkeypatch.setattr(WirelessFabric, "may_transmit", lambda self, src: True)
        monkeypatch.setattr(WirelessFabric, "grants", lambda self, *args: True)
        simulator = _build_simulator("control_packet", channels=1, rate=0.3)
        with pytest.raises(KernelInvariantError, match="two transmitters on channel 0"):
            simulator.run()


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

    def test_unreconciled_channel_energy_fails_the_run(self, monkeypatch):
        attribute = WirelessFabric.channel_energy_breakdown

        def off_by_one_pj(fabric):
            breakdown = attribute(fabric)
            breakdown[min(breakdown)]["wireless_pj"] += 1.0
            return breakdown

        monkeypatch.setattr(WirelessFabric, "channel_energy_breakdown", off_by_one_pj)
        simulator = _build_simulator("control_packet", channels=2, rate=0.1)
        with pytest.raises(KernelInvariantError, match=r"sum\(wireless_pj\)"):
            simulator.run()

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


class TestTransceiverResidency:
    """Asleep/awake runs against a per-cycle reference sample."""

    @pytest.mark.parametrize("faults", ("none", "hub-transceiver-loss"))
    @pytest.mark.parametrize("sleepy", (True, False))
    @pytest.mark.parametrize("mac", ALL_MACS)
    def test_runs_match_a_per_cycle_sample(self, mac, sleepy, faults, monkeypatch):
        # Two WIs per chip, so a transceiver can die without cutting a chip off.
        config = replace(
            small_system_config(Architecture.WIRELESS, mac=mac), cores_per_wi=2
        ).with_wireless(sleepy_receivers=sleepy)
        gating = sleepy and mac_spec(mac).supports_sleepy_receivers
        cycles = 600
        system = build_system(config)
        simulator = Simulator(
            topology=system.topology,
            router=system.router,
            traffic=create_pattern(
                "uniform",
                system.topology,
                injection_rate=0.1,
                memory_access_fraction=0.25,
                seed=3,
            ),
            network_config=config.network,
            simulation_config=SimulationConfig(cycles=cycles, warmup_cycles=100),
            fault_plan=create_fault_plan(
                faults, system.topology, fault_rate=0.5, seed=3, cycles=cycles
            ),
        )
        network = simulator.network = Network(system.topology, config.network)

        # The per-cycle rule the runs must reproduce: a power-gated WI
        # sleeps while it is dead, or while another WI transmits to
        # receivers other than it.
        asleep_cycles = {}
        died = set()
        update = WirelessFabric.update

        def sampled_update(fabric, cycle):
            update(fabric, cycle)
            died.update(fabric.dead_wis)
            for channel_mac in fabric.macs:
                transmitter = channel_mac.current_transmitter()
                for wi in channel_mac.wi_switch_ids:
                    asleep = gating and (
                        wi in fabric.dead_wis
                        or (
                            transmitter is not None
                            and wi != transmitter
                            and not channel_mac.is_intended_receiver(wi)
                        )
                    )
                    asleep_cycles[wi] = asleep_cycles.get(wi, 0) + asleep

        monkeypatch.setattr(WirelessFabric, "update", sampled_update)
        result = simulator.run()

        fabric = network.wireless_fabric
        assert result.wireless_flit_hops > 0
        assert bool(died) == (faults != "none")
        assert sum(asleep_cycles.values()) > 0 if gating else not any(asleep_cycles.values())
        cycle_time = config.network.technology.cycle_time_s
        static_pj = 0.0
        fractions = []
        for wi, transceiver in fabric.transceivers.items():
            asleep = asleep_cycles[wi]
            assert (transceiver.total_cycles, transceiver.asleep_cycles) == (cycles, asleep)
            static_pj += (
                transceiver.idle_power_mw * 1e-3 * (cycles - asleep) * cycle_time * 1e12
                + transceiver.sleep_power_mw * 1e-3 * asleep * cycle_time * 1e12
            )
            fractions.append(asleep / cycles)
        assert result.energy.transceiver_static_pj == pytest.approx(static_pj, rel=1e-12)
        assert result.transceiver_sleep_fraction == pytest.approx(
            sum(fractions) / len(fractions), rel=1e-12
        )


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
