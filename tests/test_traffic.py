"""Tests of the traffic generators (uniform, synthetic patterns, applications)."""

import hashlib

import pytest

from repro.core.architectures import build_system
from repro.core.config import Architecture, SystemConfig
from repro.scenario.fidelity import FIDELITIES
from repro.testing import small_system_config
from repro.topology import apply_wireless_overlay, build_multichip_base
from repro.traffic import (
    APPLICATION_PROFILES,
    ApplicationPhase,
    ApplicationProfile,
    BitComplementTraffic,
    HotspotTraffic,
    NeighbourTraffic,
    SynfullApplicationTraffic,
    TrafficRequest,
    TransposeTraffic,
    UniformRandomTraffic,
    get_profile,
    offchip_fraction,
)


def _topology(num_chips=2, cores_per_chip=8, stacks=2):
    system = build_multichip_base(num_chips, cores_per_chip, stacks, vaults_per_stack=2)
    apply_wireless_overlay(system, SystemConfig(cores_per_wi=8))
    return system.graph


def _collect(model, cycles=300):
    requests = []
    for cycle in range(cycles):
        requests.extend(model.generate(cycle))
    return requests


class TestTrafficRequest:
    def test_rejects_self_traffic(self):
        with pytest.raises(ValueError):
            TrafficRequest(src_endpoint=1, dst_endpoint=1)

    def test_rejects_zero_length(self):
        with pytest.raises(ValueError):
            TrafficRequest(src_endpoint=1, dst_endpoint=2, length_flits=0)


class TestUniformRandomTraffic:
    def test_injection_rate_respected(self):
        topology = _topology()
        model = UniformRandomTraffic(topology, injection_rate=0.1, seed=1)
        requests = _collect(model, cycles=500)
        cores = len(topology.cores)
        expected = 0.1 * cores * 500
        assert expected * 0.8 <= len(requests) <= expected * 1.2

    def test_memory_fraction_respected(self):
        topology = _topology()
        model = UniformRandomTraffic(
            topology, injection_rate=0.2, memory_access_fraction=0.5, seed=1
        )
        requests = _collect(model, cycles=400)
        memory = sum(1 for r in requests if r.is_memory_access)
        assert 0.4 <= memory / len(requests) <= 0.6

    def test_zero_memory_fraction_allowed_without_stacks(self):
        system = build_multichip_base(1, 8, 0)
        model = UniformRandomTraffic(
            system.graph, injection_rate=0.1, memory_access_fraction=0.0, seed=1
        )
        assert all(not r.is_memory_access for r in _collect(model, 100))

    def test_memory_fraction_without_stacks_rejected(self):
        system = build_multichip_base(1, 8, 0)
        with pytest.raises(ValueError):
            UniformRandomTraffic(
                system.graph, injection_rate=0.1, memory_access_fraction=0.2
            )

    def test_seed_reproducibility(self):
        topology = _topology()
        a = _collect(UniformRandomTraffic(topology, 0.1, seed=5), 200)
        b = _collect(UniformRandomTraffic(topology, 0.1, seed=5), 200)
        assert [(r.src_endpoint, r.dst_endpoint) for r in a] == [
            (r.src_endpoint, r.dst_endpoint) for r in b
        ]

    def test_reset_restores_stream(self):
        topology = _topology()
        model = UniformRandomTraffic(topology, 0.1, seed=5)
        first = _collect(model, 100)
        model.reset()
        second = _collect(model, 100)
        assert [(r.src_endpoint, r.dst_endpoint) for r in first] == [
            (r.src_endpoint, r.dst_endpoint) for r in second
        ]

    def test_memory_replies(self):
        topology = _topology()
        model = UniformRandomTraffic(
            topology, 0.1, memory_access_fraction=1.0, memory_replies=True, seed=1
        )
        request = next(iter(model.generate(0)), None) or next(iter(model.generate(1)))

        class _FakePacket:
            src_endpoint = request.src_endpoint
            dst_endpoint = request.dst_endpoint
            is_memory_access = True
            is_reply = False

        replies = list(model.on_packet_delivered(_FakePacket(), cycle=10))
        assert len(replies) == 1
        assert replies[0].src_endpoint == request.dst_endpoint

    def test_offchip_fraction_matches_paper_proportions(self):
        """20 % memory access on 4 chips gives roughly 80 % off-chip traffic."""
        system = build_multichip_base(4, 16, 4)
        model = UniformRandomTraffic(
            system.graph, injection_rate=0.05, memory_access_fraction=0.2, seed=2
        )
        requests = _collect(model, 300)
        fraction = offchip_fraction(system.graph, requests)
        assert 0.70 <= fraction <= 0.90

    def test_single_chip_offchip_fraction_is_memory_only(self):
        system = build_multichip_base(1, 64, 4)
        model = UniformRandomTraffic(
            system.graph, injection_rate=0.05, memory_access_fraction=0.2, seed=2
        )
        requests = _collect(model, 200)
        fraction = offchip_fraction(system.graph, requests)
        assert 0.12 <= fraction <= 0.30


class TestSyntheticPatterns:
    def test_hotspot_targets_hotspots(self):
        topology = _topology()
        hotspot = topology.cores[0].endpoint_id
        model = HotspotTraffic(topology, 0.2, [hotspot], hotspot_fraction=0.8, seed=1)
        requests = _collect(model, 300)
        to_hotspot = sum(1 for r in requests if r.dst_endpoint == hotspot)
        assert to_hotspot / len(requests) > 0.5

    def test_permutation_patterns_are_fixed(self):
        topology = _topology()
        for cls in (TransposeTraffic, BitComplementTraffic, NeighbourTraffic):
            model = cls(topology, injection_rate=0.2, seed=1)
            requests = _collect(model, 100)
            assert requests, cls.__name__
            destinations = {r.src_endpoint: r.dst_endpoint for r in requests}
            # Each source always sends to the same destination.
            for request in requests:
                assert destinations[request.src_endpoint] == request.dst_endpoint

    def test_hotspot_validation(self):
        topology = _topology()
        with pytest.raises(ValueError):
            HotspotTraffic(topology, 0.1, [])
        with pytest.raises(ValueError):
            HotspotTraffic(topology, 0.1, [999999])


class TestApplicationProfiles:
    def test_builtin_profiles_cover_both_suites(self):
        suites = {profile.suite for profile in APPLICATION_PROFILES.values()}
        assert suites == {"PARSEC", "SPLASH-2"}
        assert len(APPLICATION_PROFILES) >= 9

    def test_every_fidelity_runs_builtin_applications(self):
        for fidelity in FIDELITIES.values():
            assert fidelity.applications
            for name in fidelity.applications:
                assert name in APPLICATION_PROFILES, (fidelity.name, name)

    @pytest.mark.parametrize(
        "field, kwargs",
        (
            ("memory_fraction", {"memory_fraction": 1.5}),
            ("memory_fraction", {"memory_fraction": -0.1}),
            ("rate_scale", {"rate_scale": -1.0}),
            ("weight", {"weight": -0.5}),
        ),
        ids=("memory-above-one", "memory-negative", "rate-negative", "weight-negative"),
    )
    def test_phase_rejects_out_of_range_fields(self, field, kwargs):
        values = {"weight": 1.0, "rate_scale": 1.0, "memory_fraction": 0.5}
        values.update(kwargs)
        with pytest.raises(ValueError, match=field):
            ApplicationPhase(name="bad", **values)

    def test_phase_accepts_boundary_values(self):
        ApplicationPhase(name="idle", weight=0.0, rate_scale=0.0, memory_fraction=0.0)
        ApplicationPhase(name="storm", weight=2.0, rate_scale=50.0, memory_fraction=1.0)

    def test_unknown_profile_raises(self):
        with pytest.raises(KeyError):
            get_profile("doom")

    def test_memory_bound_apps_have_higher_memory_fraction(self):
        assert get_profile("canneal").memory_fraction > get_profile("blackscholes").memory_fraction
        assert get_profile("radix").memory_fraction > get_profile("water").memory_fraction


def _custom_profile(name, burst_probability, phases=()):
    return ApplicationProfile(
        name=name,
        suite="custom",
        base_injection_rate=0.02,
        memory_fraction=0.5,
        burst_probability=burst_probability,
        burst_scale=4.0,
        burst_duration_cycles=15,
        cross_thread_fraction=0.4,
        read_fraction=0.6,
        request_length_flits=8,
        data_length_flits=64,
        phases=phases,
    )


def _stream_digest(model, cycles=600):
    digest = hashlib.sha256()
    for cycle in range(cycles):
        for request in model.generate(cycle):
            record = (
                cycle,
                request.src_endpoint,
                request.dst_endpoint,
                request.length_flits,
                request.traffic_class,
                request.is_memory_access,
            )
            digest.update(repr(record).encode())
    return digest.hexdigest()


#: A profile that always bursts and alternates two phases: a 50-cycle
#: "storm" whose bursting rate clamps to 1 and whose memory fraction is 1
#: (both coins take the no-draw path), then a 100-cycle "compute" phase.
_PHASED = _custom_profile(
    "phased",
    1.0,
    (
        ApplicationPhase("storm", weight=0.05, rate_scale=15.0, memory_fraction=1.0),
        ApplicationPhase("compute", weight=0.1, rate_scale=0.5, memory_fraction=0.2),
    ),
)


class TestSynfullTraffic:
    @pytest.mark.parametrize(
        "make_model, expected",
        (
            pytest.param(
                lambda topology: SynfullApplicationTraffic.from_name(
                    topology, "canneal", seed=3
                ),
                "c32cc6493f473cbbe50c8d323c560c42c2a2ad057ca5f0f8a704d570d4fe8204",
                id="canneal-seed3",
            ),
            pytest.param(
                lambda topology: SynfullApplicationTraffic.from_name(
                    topology, "blackscholes", seed=9
                ),
                "522a54f77270c3959ddf70d9b88a6170c4db3307a2ed3657fc05fefe0730c107",
                id="blackscholes-seed9",
            ),
            pytest.param(
                lambda topology: SynfullApplicationTraffic(topology, _PHASED, seed=5),
                "38595e73375b6da0fd7de7e081d5acec9ca3b88f91c0b60d7b0a93a4f5382554",
                id="always-burst-two-phases",
            ),
            pytest.param(
                lambda topology: SynfullApplicationTraffic(
                    topology, _custom_profile("never", 0.0), seed=5
                ),
                "3bf107b7fba8f18bc325ca5d7f0bc11f4eb19751ce714ef37844c20e04f9de3f",
                id="never-burst",
            ),
        ),
    )
    def test_request_stream_is_pinned(self, make_model, expected):
        """The generator's output over 600 cycles is pinned bit for bit.

        Any change to the random draw sequence (an extra, missing or
        reordered ``random()`` call) or to a hoisted rate changes the
        digest.  A deliberate change of the stream must re-record these.
        """
        topology = build_system(small_system_config(Architecture.WIRELESS)).topology
        assert _stream_digest(make_model(topology)) == expected

    def test_generates_coherence_and_memory_traffic(self):
        topology = _topology()
        model = SynfullApplicationTraffic.from_name(topology, "canneal", seed=3)
        requests = _collect(model, 800)
        assert requests
        assert any(r.is_memory_access for r in requests)
        assert any(not r.is_memory_access for r in requests)

    def test_memory_reads_get_replies(self):
        topology = _topology()
        model = SynfullApplicationTraffic.from_name(topology, "radix", seed=3)

        class _FakePacket:
            src_endpoint = topology.cores[0].endpoint_id
            dst_endpoint = topology.memory_vaults[0].endpoint_id
            traffic_class = "memory_read"
            is_reply = False

        replies = list(model.on_packet_delivered(_FakePacket(), 5))
        assert len(replies) == 1
        assert replies[0].is_reply
        assert replies[0].length_flits == model.profile.data_length_flits

    def test_reset_reproducibility(self):
        topology = _topology()
        model = SynfullApplicationTraffic.from_name(topology, "fft", seed=9)
        first = [(r.src_endpoint, r.dst_endpoint) for r in _collect(model, 300)]
        model.reset()
        second = [(r.src_endpoint, r.dst_endpoint) for r in _collect(model, 300)]
        assert first == second

    def test_rate_scale_scales_traffic(self):
        topology = _topology()
        light = _collect(
            SynfullApplicationTraffic.from_name(topology, "canneal", rate_scale=0.5, seed=3),
            600,
        )
        heavy = _collect(
            SynfullApplicationTraffic.from_name(topology, "canneal", rate_scale=2.0, seed=3),
            600,
        )
        assert len(heavy) > len(light)

    def test_requires_memory_stacks(self):
        system = build_multichip_base(2, 8, 0)
        model = SynfullApplicationTraffic.from_name(system.graph, "lu", seed=1)
        requests = _collect(model, 100)
        # Without stacks everything must be coherence traffic.
        assert all(not r.is_memory_access for r in requests)
