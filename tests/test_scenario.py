"""Tests of the declarative scenario layer: schema, round-trips, compiler.

The spec validator promises *field-path errors* — every malformed document
raises :class:`ScenarioError` naming the dotted path of the offending
field, never a bare ``KeyError``/``TypeError`` from deep inside the
loader — and *stable round-trips* — ``parse(spec.to_dict()) == spec`` so
documents can be normalised, stored and re-loaded without drift.  The
compiler promises to resolve every name through the matching registry and
to expand fidelity sentinels exactly like the figure experiments do.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys

import pytest

from repro.core.config import Architecture, SystemConfig, paper_8c4m
from repro.faults.scenarios import DEFAULT_FAULT_RATE, DEFAULT_SCENARIO
from repro.noc.config import NetworkConfig, WirelessConfig
from repro.scenario.fidelity import get_fidelity
from repro.scenario import (
    ScenarioError,
    builtin_scenario,
    compile_scenario,
    dump_scenario,
    load_scenario,
    loads_scenario,
    parse_scenario,
    scenario_fidelity,
    system_config,
)
from repro.scenario.spec import (
    _NETWORK_FIELDS,
    _SYSTEM_FIELDS,
    _WIRELESS_FIELDS,
    FaultSpec,
    SystemSpec,
    TrafficSpec,
)


def minimal_document(**extra):
    """The smallest valid document, extendable per test."""
    raw = {
        "name": "unit",
        "fidelity": "fast",
        "systems": [{"architecture": "wireless"}],
        "traffic": {"kind": "synthetic", "loads": [0.002]},
    }
    raw.update(extra)
    return raw


# ----------------------------------------------------------------------
# Round-trip stability.
# ----------------------------------------------------------------------


ROUND_TRIP_DOCUMENTS = [
    minimal_document(),
    minimal_document(
        description="everything dialled in",
        fidelity={"level": "fast", "cycles": 400, "warmup_cycles": 100, "seed": 11},
        systems=[
            {
                "architecture": "wireless",
                "preset": "8C4M",
                "label": "big",
                "cores_per_wi": 8,
                "network": {"virtual_channels": 2, "packet_length_flits": 4},
                "wireless": {"mac": "token", "num_channels": 3},
            },
            {"architecture": "substrate", "num_chips": 1, "cores_per_chip": 16},
        ],
        traffic={
            "kind": "synthetic",
            "pattern": "transpose",
            "memory_fractions": [0.0, 0.4],
            "loads": [0.001, 0.004],
        },
        macs=["", "tdma"],
        channels=[1, 2],
        faults={"scenario": "random-links", "rates": [0.0, 0.2]},
    ),
    minimal_document(
        traffic={"kind": "application", "applications": ["radix"], "rate_scale": 0.25},
    ),
    minimal_document(traffic={"kind": "synthetic", "loads": "saturation-study"}, macs="all"),
    minimal_document(faults={"scenario": "cascading", "rate": 0.3}),
    # null is a value exactly where the config annotation is Optional.
    minimal_document(
        systems=[
            {
                "architecture": "wireless",
                "total_processing_area_mm2": None,
                "wireless": {
                    "mac": "tdma",
                    "tdma_slot_cycles": None,
                    "wi_buffer_depth_flits": None,
                },
            }
        ]
    ),
]


@pytest.mark.parametrize("raw", ROUND_TRIP_DOCUMENTS, ids=lambda raw: str(raw)[:40])
def test_round_trip_is_stable(raw):
    """parse -> to_dict -> parse reaches a fixed point (same spec, same doc)."""
    spec = parse_scenario(raw)
    canonical = spec.to_dict()
    reparsed = parse_scenario(canonical)
    assert reparsed == spec
    assert reparsed.to_dict() == canonical
    # ... and the compiled task lists are identical, keys and all.
    assert compile_scenario(reparsed) == compile_scenario(spec)


@pytest.mark.parametrize("raw", ROUND_TRIP_DOCUMENTS, ids=lambda raw: str(raw)[:40])
def test_json_dump_round_trips(raw):
    spec = parse_scenario(raw)
    text = dump_scenario(spec, format="json")
    assert parse_scenario(json.loads(text)) == spec


def test_yaml_dump_round_trips():
    yaml = pytest.importorskip("yaml")
    spec = parse_scenario(ROUND_TRIP_DOCUMENTS[1])
    text = dump_scenario(spec, format="yaml")
    assert parse_scenario(yaml.safe_load(text)) == spec


def test_load_scenario_reads_json_and_yaml(tmp_path):
    spec = parse_scenario(minimal_document())
    json_path = tmp_path / "scenario.json"
    json_path.write_text(dump_scenario(spec, format="json"), encoding="utf-8")
    assert load_scenario(str(json_path)) == spec
    pytest.importorskip("yaml")
    yaml_path = tmp_path / "scenario.yaml"
    yaml_path.write_text(dump_scenario(spec, format="yaml"), encoding="utf-8")
    assert load_scenario(str(yaml_path)) == spec


def test_yaml_without_pyyaml_is_a_scenario_error(monkeypatch):
    spec = parse_scenario(minimal_document())
    monkeypatch.setitem(sys.modules, "yaml", None)
    with pytest.raises(ScenarioError, match="PyYAML is not installed"):
        loads_scenario("name: unit", format="yaml")
    with pytest.raises(ScenarioError, match="PyYAML is not installed"):
        dump_scenario(spec, format="yaml")


def test_load_scenario_missing_file_is_a_scenario_error(tmp_path):
    with pytest.raises(ScenarioError, match="cannot read scenario file"):
        load_scenario(str(tmp_path / "nope.yaml"))


def test_loads_scenario_reports_broken_json():
    with pytest.raises(ScenarioError, match="invalid JSON"):
        loads_scenario("{not json", format="json")


# ----------------------------------------------------------------------
# Field-path validation errors.  Every case must raise ScenarioError (a
# ValueError) whose message leads with the dotted field path — never a
# bare KeyError/TypeError.
# ----------------------------------------------------------------------


INVALID_DOCUMENTS = [
    # (document, expected field path in the error)
    (["not", "a", "mapping"], ""),
    ({"fidelity": "fast"}, "name"),
    (minimal_document(name=""), "name"),
    (minimal_document(name=7), "name"),
    (minimal_document(bogus=1), "bogus"),
    (minimal_document(fidelity="warp-speed"), "fidelity"),
    (minimal_document(fidelity={"level": "fast", "cycles": 0}), "fidelity.cycles"),
    (
        minimal_document(fidelity={"cycles": 100, "warmup_cycles": 100}),
        "fidelity.warmup_cycles",
    ),
    (minimal_document(fidelity={"seed": "x"}), "fidelity.seed"),
    ({"name": "u", "traffic": {"kind": "synthetic"}}, "systems"),
    (minimal_document(systems=[]), "systems"),
    (minimal_document(systems="wireless"), "systems"),
    (minimal_document(systems=[{}]), "systems[0].architecture"),
    (minimal_document(systems=[{"architecture": "hovercraft"}]), "systems[0].architecture"),
    (
        minimal_document(
            systems=[{"architecture": "wireless"}, {"architecture": "wireless", "preset": "9C9M"}]
        ),
        "systems[1].preset",
    ),
    (
        minimal_document(systems=[{"architecture": "wireless", "num_chips": "four"}]),
        "systems[0].num_chips",
    ),
    (
        minimal_document(systems=[{"architecture": "wireless", "warp_drive": True}]),
        "systems[0].warp_drive",
    ),
    (
        minimal_document(
            systems=[{"architecture": "wireless", "network": {"virtual_channels": 2.5}}]
        ),
        "systems[0].network.virtual_channels",
    ),
    (
        minimal_document(systems=[{"architecture": "wireless", "network": {"vc": 2}}]),
        "systems[0].network.vc",
    ),
    (
        minimal_document(
            systems=[{"architecture": "wireless", "wireless": {"mac": "aloha"}}]
        ),
        "systems[0].wireless.mac",
    ),
    (
        minimal_document(
            systems=[{"architecture": "wireless", "wireless": {"sleepy_receivers": "yes"}}]
        ),
        "systems[0].wireless.sleepy_receivers",
    ),
    # null only where the config annotation is Optional.
    (
        minimal_document(
            systems=[{"architecture": "wireless", "wireless": {"num_channels": None}}]
        ),
        "systems[0].wireless.num_channels",
    ),
    (
        minimal_document(
            systems=[{"architecture": "wireless", "wireless": {"extra_latency_cycles": None}}]
        ),
        "systems[0].wireless.extra_latency_cycles",
    ),
    (
        minimal_document(
            systems=[
                {"architecture": "wireless"},
                {"architecture": "interposer", "network": {"virtual_channels": None}},
            ]
        ),
        "systems[1].network.virtual_channels",
    ),
    ({"name": "u", "systems": [{"architecture": "wireless"}]}, "traffic"),
    (minimal_document(traffic={"kind": "telepathy"}), "traffic.kind"),
    (minimal_document(traffic={"kind": "synthetic", "pattern": "zigzag"}), "traffic.pattern"),
    (
        minimal_document(traffic={"kind": "synthetic", "loads": [0.002], "rate_scale": 1.0}),
        "traffic.rate_scale",
    ),
    (minimal_document(traffic={"kind": "synthetic", "loads": []}), "traffic.loads"),
    (minimal_document(traffic={"kind": "synthetic", "loads": "warp"}), "traffic.loads"),
    (minimal_document(traffic={"kind": "synthetic", "loads": [-0.1]}), "traffic.loads[0]"),
    (
        minimal_document(traffic={"kind": "synthetic", "loads": [0.001, "x"]}),
        "traffic.loads[1]",
    ),
    (
        minimal_document(
            traffic={"kind": "synthetic", "loads": [0.001], "memory_fractions": [1.5]}
        ),
        "traffic.memory_fractions[0]",
    ),
    (
        minimal_document(traffic={"kind": "application", "applications": ["doom"]}),
        "traffic.applications[0]",
    ),
    (
        minimal_document(traffic={"kind": "application", "applications": []}),
        "traffic.applications",
    ),
    (
        minimal_document(traffic={"kind": "application", "rate_scale": 0.0}),
        "traffic.rate_scale",
    ),
    (
        minimal_document(traffic={"kind": "application", "loads": [0.001]}),
        "traffic.loads",
    ),
    (minimal_document(macs="every"), "macs"),
    (minimal_document(macs=[]), "macs"),
    (minimal_document(macs=["csma"]), "macs[0]"),
    (minimal_document(macs=[3]), "macs[0]"),
    (
        minimal_document(
            traffic={"kind": "application", "applications": ["radix"]}, macs=["token"]
        ),
        "macs",
    ),
    (minimal_document(channels="lots"), "channels"),
    (minimal_document(channels=[]), "channels"),
    (minimal_document(channels=[0]), "channels[0]"),
    (minimal_document(channels=[1.5]), "channels[0]"),
    (minimal_document(faults={"scenario": "gremlins"}), "faults.scenario"),
    (minimal_document(faults={"scenario": "random-links", "rates": []}), "faults.rates"),
    (
        minimal_document(faults={"scenario": "random-links", "rates": [1.5]}),
        "faults.rates[0]",
    ),
    (
        minimal_document(faults={"scenario": "random-links", "rate": 0.1, "rates": [0.1]}),
        "faults.rate",
    ),
    (minimal_document(faults={"scenario": "random-links", "rate": -0.5}), "faults.rate"),
    (minimal_document(faults={"rates": [0.2]}), "faults.rates"),
    (minimal_document(faults={"rates": "fidelity"}), "faults.rates"),
    (minimal_document(faults={"severity": 0.2}), "faults.severity"),
    # JSON's NaN/Infinity and YAML's .nan/.inf are numbers no field takes.
    # Each row's path is one no earlier row has, so every row keeps its id.
    (
        minimal_document(traffic={"kind": "synthetic", "loads": [0.001, 0.002, math.nan]}),
        "traffic.loads[2]",
    ),
    (
        minimal_document(
            traffic={"kind": "synthetic", "loads": [0.001, 0.002, 0.004, math.inf]}
        ),
        "traffic.loads[3]",
    ),
    (
        minimal_document(traffic={"kind": "application", "rate_scale": math.inf}),
        "traffic.rate_scale",
    ),
    (
        minimal_document(
            systems=[{"architecture": "wireless", "total_processing_area_mm2": math.nan}]
        ),
        "systems[0].total_processing_area_mm2",
    ),
]


@pytest.mark.parametrize(
    "raw, path", INVALID_DOCUMENTS, ids=[path or "top-level" for _, path in INVALID_DOCUMENTS]
)
def test_invalid_documents_name_the_field(raw, path):
    with pytest.raises(ScenarioError) as excinfo:
        parse_scenario(raw)
    assert excinfo.value.path == path
    # The path leads the message so CLI users see the exact field.
    if path:
        assert str(excinfo.value).startswith(f"{path}:")


def test_validation_never_leaks_bare_key_or_type_errors():
    """A hostile grab-bag document fails as ScenarioError, nothing rawer."""
    hostile = [
        None,
        42,
        {"name": None},
        {"name": "x", "systems": None, "traffic": None},
        {"name": "x", "systems": [None], "traffic": {}},
        {"name": "x", "systems": [{"architecture": "wireless", "network": 3}],
         "traffic": {"kind": "synthetic"}},
        minimal_document(faults=[]),
        minimal_document(fidelity=[1]),
        minimal_document(traffic="uniform"),
        minimal_document(macs={}),
    ]
    for raw in hostile:
        with pytest.raises(ScenarioError):
            parse_scenario(raw)


# ----------------------------------------------------------------------
# The compiler.
# ----------------------------------------------------------------------


def test_system_config_preset_equals_plain_architecture():
    """The 4C4M preset *is* the default SystemConfig (shared cache keys)."""
    plain = system_config(SystemSpec(architecture="wireless"))
    preset = system_config(SystemSpec(architecture="wireless", preset="4C4M"))
    assert plain == preset == SystemConfig(architecture=Architecture.WIRELESS)
    big = system_config(SystemSpec(architecture="wireless", preset="8C4M"))
    assert big == paper_8c4m(Architecture.WIRELESS)


def test_system_config_applies_overrides_in_layers():
    spec = SystemSpec(
        architecture="wireless",
        overrides={"num_chips": 2, "cores_per_chip": 8},
        network={"virtual_channels": 2},
        wireless={"mac": "token", "num_channels": 3},
    )
    config = system_config(spec)
    assert config.num_chips == 2
    assert config.cores_per_chip == 8
    assert config.network.virtual_channels == 2
    assert config.network.wireless.mac == "token"
    assert config.network.wireless.num_channels == 3


@pytest.mark.parametrize(
    "fields",
    [
        {"overrides": {"num_chips": -1}},
        {"wireless": {"wi_buffer_depth_flits": 0}},
        {"overrides": {"total_processing_area_mm2": 0.0}},
        {"overrides": {"total_processing_area_mm2": float("inf")}},
        {"network": {"switch_pipeline_stages": 0}},
        {"wireless": {"extra_latency_cycles": -1}},
        {"wireless": {"control_packet_bits": -1}},
    ],
    ids=[
        "num_chips",
        "wi_buffer_depth_flits",
        "total_processing_area_mm2",
        "total_processing_area_mm2-inf",
        "switch_pipeline_stages",
        "extra_latency_cycles",
        "control_packet_bits",
    ],
)
def test_system_config_constraint_violations_carry_the_entry_path(fields):
    spec = SystemSpec(architecture="wireless", **fields)
    with pytest.raises(ScenarioError) as excinfo:
        system_config(spec, index=3)
    assert excinfo.value.path == "systems[3]"


# ----------------------------------------------------------------------
# The config classes are the schema of a system entry.
# ----------------------------------------------------------------------

#: Each section of a system entry: its config class and its document keys.
SECTIONS = {
    "": (SystemConfig, _SYSTEM_FIELDS),
    "network": (NetworkConfig, _NETWORK_FIELDS),
    "wireless": (WirelessConfig, _WIRELESS_FIELDS),
}


def test_section_keys_are_the_config_scalar_fields():
    """Every config field is a key except the structural ones, which the
    annotations alone leave out (``Architecture`` is a ``str`` enum)."""
    structural = {"": {"architecture", "network"}, "network": {"wireless", "technology"}}
    for section, (config_class, keys) in SECTIONS.items():
        names = [item.name for item in dataclasses.fields(config_class)]
        assert list(keys) == [name for name in names if name not in structural.get(section, ())]


def _non_default(value):
    """A valid value for a field whose default is ``value``, other than it."""
    if isinstance(value, bool):
        return not value
    if value is None:
        return 8
    if isinstance(value, str):
        return "token"
    return value + 1


@pytest.mark.parametrize(
    "section, name",
    [(section, name) for section, (_, keys) in SECTIONS.items() for name in keys],
    ids=lambda value: value or "system",
)
def test_every_scalar_field_reaches_the_system_config(section, name):
    config_class = SECTIONS[section][0]
    default = getattr(config_class(), name)
    value = _non_default(default)
    entry = {"architecture": "wireless"}
    if section:
        entry[section] = {name: value}
    else:
        entry[name] = value
    spec = parse_scenario(minimal_document(systems=[entry]))
    assert parse_scenario(json.loads(dump_scenario(spec))) == spec
    config = system_config(spec.systems[0])
    owner = {"": config, "network": config.network, "wireless": config.network.wireless}
    assert getattr(owner[section], name) == value != default


def test_scenario_fidelity_applies_overrides():
    spec = parse_scenario(
        minimal_document(fidelity={"level": "fast", "cycles": 500, "seed": 99})
    )
    level = scenario_fidelity(spec)
    base = get_fidelity("fast")
    assert level.cycles == 500
    assert level.seed == 99
    assert level.warmup_cycles == base.warmup_cycles
    assert level.load_points == base.load_points


def test_compile_expansion_order_and_shape():
    """fraction (outer) x system x mac x channels x rate x load (inner)."""
    spec = parse_scenario(
        minimal_document(
            systems=[{"architecture": "wireless"}, {"architecture": "interposer"}],
            traffic={
                "kind": "synthetic",
                "memory_fractions": [0.1, 0.3],
                "loads": [0.001, 0.002],
            },
            macs=["", "token"],
            channels=[1, 2],
            faults={"scenario": "random-links", "rates": [0.0, 0.2]},
        )
    )
    tasks = compile_scenario(spec)
    assert len(tasks) == 2 * 2 * 2 * 2 * 2 * 2
    # The innermost axis is the load sweep...
    assert [t.load for t in tasks[:4]] == [0.001, 0.002, 0.001, 0.002]
    # ... then the fault severity (zero severity compiles to pristine) ...
    assert [(t.faults, t.fault_rate) for t in tasks[:4]] == [
        ("none", 0.0),
        ("none", 0.0),
        ("random-links", 0.2),
        ("random-links", 0.2),
    ]
    # ... then the channel plan ...
    assert [t.config.network.wireless.num_channels for t in tasks[:8]] == [1] * 4 + [2] * 4
    # ... then the MAC override, and the outermost axis is the fraction.
    assert [t.mac for t in tasks[:16]] == [""] * 8 + ["token"] * 8
    assert all(t.memory_access_fraction == 0.1 for t in tasks[:32])
    assert all(t.memory_access_fraction == 0.3 for t in tasks[32:])
    assert all(t.kind == "synthetic" for t in tasks)


def test_compile_fidelity_sentinels_use_the_level_grids():
    spec = parse_scenario(
        {
            "name": "grids",
            "fidelity": "fast",
            "systems": [{"architecture": "wireless"}],
            "traffic": {"kind": "synthetic", "loads": "fidelity"},
            "channels": "fidelity",
            "faults": {"scenario": "random-links", "rates": "fidelity"},
        }
    )
    level = get_fidelity("fast")
    tasks = compile_scenario(spec)
    expected = (
        len(level.load_points)
        * len(sorted(set(level.channel_counts)))
        * len(sorted(set(level.fault_rates)))
    )
    assert len(tasks) == expected
    assert sorted({t.load for t in tasks}) == sorted(level.load_points)
    assert {t.config.network.wireless.num_channels for t in tasks} == set(
        level.channel_counts
    )
    assert sorted({t.fault_rate for t in tasks}) == sorted(set(level.fault_rates))


def test_compile_application_scenario():
    spec = parse_scenario(
        minimal_document(
            traffic={"kind": "application", "applications": ["radix", "fft"]},
        )
    )
    tasks = compile_scenario(spec)
    assert [t.application for t in tasks] == ["radix", "fft"]
    assert all(t.kind == "application" for t in tasks)
    level = get_fidelity("fast")
    assert all(t.rate_scale == level.application_rate_scale for t in tasks)


def test_compile_macs_all_sweeps_the_registry():
    from repro.wireless.mac.registry import available_macs

    spec = parse_scenario(minimal_document(macs="all"))
    tasks = compile_scenario(spec)
    assert [t.mac for t in tasks] == available_macs()


def test_pinned_fault_rate_keeps_the_pristine_baseline():
    """faults.rate (singular) compiles to the fig7 pair: 0.0 plus the rate."""
    spec = parse_scenario(minimal_document(faults={"scenario": "cascading", "rate": 0.3}))
    assert spec.faults.rates == [0.0, 0.3]
    tasks = compile_scenario(spec)
    assert [(t.faults, t.fault_rate) for t in tasks] == [
        ("none", 0.0),
        ("cascading", 0.3),
    ]


def test_builtin_fault_knobs_resolve_like_the_cli():
    """A bare fault scenario takes the CLI's default rate; fig7 promotes 'none'."""
    assert builtin_scenario("fig3", faults="random-links").faults.rates == [DEFAULT_FAULT_RATE]
    assert builtin_scenario("fig7", faults="none").faults.scenario == DEFAULT_SCENARIO


def test_unknown_builtin_scenario_is_a_scenario_error():
    with pytest.raises(ScenarioError) as error_info:
        builtin_scenario("fig9")
    assert error_info.value.path == "name"
    assert str(error_info.value) == (
        "name: unknown built-in scenario 'fig9'; "
        "known: fig2, fig3, fig4, fig5, fig6, fig7, fig8"
    )


def test_traffic_spec_defaults_round_trip_through_sections():
    assert TrafficSpec().to_dict()["kind"] == "synthetic"
    assert FaultSpec().to_dict() == {"scenario": "none", "rates": [0.0]}
