"""The declarative scenario specification and its schema validator.

A *scenario* is one YAML/JSON document describing a whole experiment —
which systems to build, what traffic to offer, which MAC protocols,
channel plans and fault plans to apply, and at what fidelity — in terms of
the names held by the four runtime registries (traffic patterns,
architectures, MAC protocols, fault scenarios).  The document is validated
into a :class:`ScenarioSpec` here and resolved into concrete
:class:`~repro.parallel.runner.SimulationTask` lists by
:mod:`repro.scenario.compiler`.

Design rules:

* **Field-path errors.**  Every way a document can be malformed raises
  :class:`ScenarioError` carrying the dotted path of the offending field
  (``systems[1].wireless.mac``), never a bare ``KeyError``/``TypeError``
  from deep inside the loader.
* **Registry names, not structures.**  The spec references patterns,
  architectures, MACs, applications and fault scenarios purely by
  registered name, so anything pluggable through a registry is reachable
  from a document with no schema change.
* **Stable round-trips.**  ``parse(spec.to_dict()) == spec`` for every
  valid spec, so documents can be normalised, stored and re-loaded
  without drift (the fuzzer and the CI artifact dump rely on this).

YAML support is optional: ``.json`` documents load through the standard
library; ``.yaml`` documents need PyYAML and fail with a clear message —
not an ``ImportError`` traceback — when it is absent.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple, Union

from ..core.config import Architecture
from ..faults.scenarios import available_fault_scenarios
from ..traffic.applications import APPLICATION_PROFILES
from ..traffic.registry import available_patterns
from ..wireless.mac.registry import available_macs
from .fidelity import FIDELITIES

__all__ = [
    "ScenarioError",
    "ScenarioSpec",
    "SystemSpec",
    "TrafficSpec",
    "FaultSpec",
    "parse_scenario",
    "load_scenario",
    "loads_scenario",
    "dump_scenario",
]

#: Sentinel values a spec may use instead of explicit grids: ``"fidelity"``
#: resolves to the fidelity level's own grid (load points, applications,
#: fault rates or channel counts); ``"saturation-study"`` picks the fig8
#: low/mid/high subset of the fidelity's load grid.
FIDELITY_SENTINEL = "fidelity"
STUDY_SENTINEL = "saturation-study"

#: System presets resolvable by name (the paper's ``XCYM`` configurations).
SYSTEM_PRESETS = ("1C4M", "4C4M", "8C4M")

#: ``SystemConfig`` scalar fields a system entry may override.
_SYSTEM_INT_FIELDS = (
    "num_chips",
    "cores_per_chip",
    "num_memory_stacks",
    "vaults_per_stack",
    "cores_per_wi",
    "interposer_links_per_boundary",
    "substrate_serial_links",
    "wide_io_links_per_stack",
)
_SYSTEM_FLOAT_FIELDS = ("total_processing_area_mm2",)

#: ``NetworkConfig`` fields a system's ``network`` section may override.
_NETWORK_INT_FIELDS = (
    "virtual_channels",
    "buffer_depth_flits",
    "packet_length_flits",
    "switch_pipeline_stages",
    "injection_width_flits",
    "ejection_width_per_endpoint",
)
_NETWORK_BOOL_FIELDS = ("include_static_energy",)

#: ``WirelessConfig`` fields a system's ``wireless`` section may override.
_WIRELESS_INT_FIELDS = (
    "num_channels",
    "cycles_per_flit",
    "extra_latency_cycles",
    "control_packet_cycles",
    "control_packet_bits",
    "max_control_tuples",
    "token_pass_latency_cycles",
    "tdma_slot_cycles",
    "tdma_guard_cycles",
    "wi_buffer_depth_flits",
)
_WIRELESS_BOOL_FIELDS = ("sleepy_receivers",)


class ScenarioError(ValueError):
    """A scenario document failed validation.

    ``path`` is the dotted location of the offending field
    (``"traffic.pattern"``, ``"systems[2].wireless.mac"``; ``""`` for
    document-level problems) and ``reason`` the human-readable cause; the
    exception string always leads with the path so CLI users and the CI
    artifact dump can point at the exact field.
    """

    def __init__(self, path: str, reason: str) -> None:
        self.path = path
        self.reason = reason
        super().__init__(f"{path}: {reason}" if path else reason)


# ----------------------------------------------------------------------
# Typed validation helpers (never let a bare KeyError/TypeError escape).
# ----------------------------------------------------------------------


def _type_name(value: object) -> str:
    return type(value).__name__


def _expect_mapping(value: object, path: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise ScenarioError(path, f"expected a mapping, got {_type_name(value)}")
    for key in value:
        if not isinstance(key, str):
            raise ScenarioError(path, f"mapping keys must be strings, got {key!r}")
    return value


def _expect_list(value: object, path: str) -> List[object]:
    if isinstance(value, (str, bytes)) or not isinstance(value, Sequence):
        raise ScenarioError(path, f"expected a list, got {_type_name(value)}")
    return list(value)


def _expect_str(value: object, path: str) -> str:
    if not isinstance(value, str):
        raise ScenarioError(path, f"expected a string, got {_type_name(value)}")
    return value


def _expect_bool(value: object, path: str) -> bool:
    if not isinstance(value, bool):
        raise ScenarioError(path, f"expected a boolean, got {_type_name(value)}")
    return value


def _expect_int(value: object, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(path, f"expected an integer, got {_type_name(value)}")
    return value


def _expect_float(value: object, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(path, f"expected a number, got {_type_name(value)}")
    return float(value)


def _reject_unknown_keys(raw: Mapping, allowed: Sequence[str], path: str) -> None:
    unknown = sorted(set(raw) - set(allowed))
    if unknown:
        raise ScenarioError(
            f"{path}.{unknown[0]}" if path else unknown[0],
            f"unknown field (known fields: {', '.join(sorted(allowed))})",
        )


def _expect_registry_name(value: object, path: str, known: Sequence[str], what: str) -> str:
    name = _expect_str(value, path)
    if name not in known:
        raise ScenarioError(
            path, f"unknown {what} {name!r} (registered: {', '.join(known)})"
        )
    return name


# ----------------------------------------------------------------------
# Spec sections.
# ----------------------------------------------------------------------


@dataclass
class SystemSpec:
    """One system entry: an architecture plus configuration overrides."""

    architecture: str
    preset: str = ""
    label: str = ""
    #: ``SystemConfig`` scalar overrides, in document order of appearance.
    overrides: Dict[str, object] = field(default_factory=dict)
    network: Dict[str, object] = field(default_factory=dict)
    wireless: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        raw: Dict[str, object] = {"architecture": self.architecture}
        if self.preset:
            raw["preset"] = self.preset
        if self.label:
            raw["label"] = self.label
        raw.update({k: self.overrides[k] for k in sorted(self.overrides)})
        if self.network:
            raw["network"] = {k: self.network[k] for k in sorted(self.network)}
        if self.wireless:
            raw["wireless"] = {k: self.wireless[k] for k in sorted(self.wireless)}
        return raw


@dataclass
class TrafficSpec:
    """The workload section: synthetic pattern sweeps or application runs."""

    kind: str = "synthetic"
    pattern: str = "uniform"
    memory_fractions: List[float] = field(default_factory=lambda: [0.2])
    #: ``"fidelity"`` (the level's grid), ``"saturation-study"`` (fig8's
    #: low/mid/high subset) or an explicit list of offered loads.
    loads: Union[str, List[float]] = FIDELITY_SENTINEL
    #: ``"fidelity"`` or an explicit list of application names.
    applications: Union[str, List[str]] = FIDELITY_SENTINEL
    #: ``"fidelity"`` (the level's ``application_rate_scale``) or a float.
    rate_scale: Union[str, float] = FIDELITY_SENTINEL

    def to_dict(self) -> Dict[str, object]:
        raw: Dict[str, object] = {"kind": self.kind}
        if self.kind == "synthetic":
            raw["pattern"] = self.pattern
            raw["memory_fractions"] = list(self.memory_fractions)
            raw["loads"] = self.loads if isinstance(self.loads, str) else list(self.loads)
        else:
            raw["applications"] = (
                self.applications
                if isinstance(self.applications, str)
                else list(self.applications)
            )
            raw["rate_scale"] = self.rate_scale
        return raw


@dataclass
class FaultSpec:
    """The fault-plan section: one registered scenario at swept severities."""

    scenario: str = "none"
    #: ``"fidelity"`` (the level's ``fault_rates`` grid, sorted and
    #: de-duplicated) or an explicit list of severities in [0, 1].  A zero
    #: severity always compiles to the pristine fabric (scenario
    #: ``"none"``), mirroring the fig7 baseline semantics.
    rates: Union[str, List[float]] = field(default_factory=lambda: [0.0])

    def to_dict(self) -> Dict[str, object]:
        return {
            "scenario": self.scenario,
            "rates": self.rates if isinstance(self.rates, str) else list(self.rates),
        }


@dataclass
class ScenarioSpec:
    """One fully validated scenario document."""

    name: str
    description: str = ""
    fidelity_level: str = "default"
    #: ``cycles`` / ``warmup_cycles`` / ``seed`` overrides on the level.
    fidelity_overrides: Dict[str, int] = field(default_factory=dict)
    systems: List[SystemSpec] = field(default_factory=list)
    traffic: TrafficSpec = field(default_factory=TrafficSpec)
    #: MAC overrides applied to every task: ``"all"`` sweeps the registry,
    #: a list pins specific protocols (``""`` = keep the system's own MAC).
    macs: Union[str, List[str]] = field(default_factory=lambda: [""])
    #: Channel plan: ``None`` keeps each system's channel count,
    #: ``"fidelity"`` sweeps the level's ``channel_counts`` grid, a list
    #: sweeps explicit counts.
    channels: Union[None, str, List[int]] = None
    faults: FaultSpec = field(default_factory=FaultSpec)

    def to_dict(self) -> Dict[str, object]:
        """The canonical document form (``parse_scenario`` round-trips it)."""
        fidelity: Dict[str, object] = {"level": self.fidelity_level}
        fidelity.update(
            {k: self.fidelity_overrides[k] for k in sorted(self.fidelity_overrides)}
        )
        raw: Dict[str, object] = {"name": self.name}
        if self.description:
            raw["description"] = self.description
        raw["fidelity"] = fidelity
        raw["systems"] = [system.to_dict() for system in self.systems]
        raw["traffic"] = self.traffic.to_dict()
        if self.traffic.kind == "synthetic":
            raw["macs"] = self.macs if isinstance(self.macs, str) else list(self.macs)
        if self.channels is not None:
            raw["channels"] = (
                self.channels if isinstance(self.channels, str) else list(self.channels)
            )
        raw["faults"] = self.faults.to_dict()
        return raw


# ----------------------------------------------------------------------
# Section parsers.
# ----------------------------------------------------------------------


def _parse_fidelity(raw: object, path: str) -> Tuple[str, Dict[str, int]]:
    levels = sorted(FIDELITIES)
    if isinstance(raw, str):
        if raw not in levels:
            raise ScenarioError(
                path, f"unknown fidelity level {raw!r} (known: {', '.join(levels)})"
            )
        return raw, {}
    mapping = _expect_mapping(raw, path)
    _reject_unknown_keys(mapping, ("level", "cycles", "warmup_cycles", "seed"), path)
    level = "default"
    if "level" in mapping:
        level = _expect_str(mapping["level"], f"{path}.level")
        if level not in levels:
            raise ScenarioError(
                f"{path}.level",
                f"unknown fidelity level {level!r} (known: {', '.join(levels)})",
            )
    overrides: Dict[str, int] = {}
    for key, minimum in (("cycles", 1), ("warmup_cycles", 0), ("seed", 0)):
        if key in mapping:
            value = _expect_int(mapping[key], f"{path}.{key}")
            if value < minimum:
                raise ScenarioError(f"{path}.{key}", f"must be >= {minimum}, got {value}")
            overrides[key] = value
    if "cycles" in overrides and overrides.get("warmup_cycles", 0) >= overrides["cycles"]:
        raise ScenarioError(f"{path}.warmup_cycles", "must be smaller than cycles")
    return level, overrides


def _parse_system(raw: object, path: str) -> SystemSpec:
    mapping = _expect_mapping(raw, path)
    allowed = (
        ("architecture", "preset", "label", "network", "wireless")
        + _SYSTEM_INT_FIELDS
        + _SYSTEM_FLOAT_FIELDS
    )
    _reject_unknown_keys(mapping, allowed, path)
    if "architecture" not in mapping:
        raise ScenarioError(f"{path}.architecture", "required field is missing")
    architecture = _expect_registry_name(
        mapping["architecture"],
        f"{path}.architecture",
        [a.value for a in Architecture],
        "architecture",
    )
    preset = ""
    if "preset" in mapping:
        preset = _expect_str(mapping["preset"], f"{path}.preset")
        if preset not in SYSTEM_PRESETS:
            raise ScenarioError(
                f"{path}.preset",
                f"unknown preset {preset!r} (known: {', '.join(SYSTEM_PRESETS)})",
            )
    label = _expect_str(mapping.get("label", ""), f"{path}.label")

    overrides: Dict[str, object] = {}
    for key in _SYSTEM_INT_FIELDS:
        if key in mapping:
            overrides[key] = _expect_int(mapping[key], f"{path}.{key}")
    for key in _SYSTEM_FLOAT_FIELDS:
        if key in mapping and mapping[key] is not None:
            overrides[key] = _expect_float(mapping[key], f"{path}.{key}")
        elif key in mapping:
            overrides[key] = None

    network: Dict[str, object] = {}
    if "network" in mapping:
        sub = _expect_mapping(mapping["network"], f"{path}.network")
        _reject_unknown_keys(
            sub, _NETWORK_INT_FIELDS + _NETWORK_BOOL_FIELDS, f"{path}.network"
        )
        for key in _NETWORK_INT_FIELDS:
            if key in sub:
                network[key] = _expect_int(sub[key], f"{path}.network.{key}")
        for key in _NETWORK_BOOL_FIELDS:
            if key in sub:
                network[key] = _expect_bool(sub[key], f"{path}.network.{key}")

    wireless: Dict[str, object] = {}
    if "wireless" in mapping:
        sub = _expect_mapping(mapping["wireless"], f"{path}.wireless")
        _reject_unknown_keys(
            sub,
            ("mac",) + _WIRELESS_INT_FIELDS + _WIRELESS_BOOL_FIELDS,
            f"{path}.wireless",
        )
        if "mac" in sub:
            wireless["mac"] = _expect_registry_name(
                sub["mac"], f"{path}.wireless.mac", available_macs(), "MAC protocol"
            )
        for key in _WIRELESS_INT_FIELDS:
            # tdma_slot_cycles / wi_buffer_depth_flits accept an explicit null.
            if key in sub and sub[key] is not None:
                wireless[key] = _expect_int(sub[key], f"{path}.wireless.{key}")
            elif key in sub:
                wireless[key] = None
        for key in _WIRELESS_BOOL_FIELDS:
            if key in sub:
                wireless[key] = _expect_bool(sub[key], f"{path}.wireless.{key}")

    return SystemSpec(
        architecture=architecture,
        preset=preset,
        label=label,
        overrides=overrides,
        network=network,
        wireless=wireless,
    )


def _parse_loads(raw: object, path: str) -> Union[str, List[float]]:
    if isinstance(raw, str):
        if raw not in (FIDELITY_SENTINEL, STUDY_SENTINEL):
            raise ScenarioError(
                path,
                f"expected a list of loads, {FIDELITY_SENTINEL!r} or "
                f"{STUDY_SENTINEL!r}, got {raw!r}",
            )
        return raw
    loads = _expect_list(raw, path)
    if not loads:
        raise ScenarioError(path, "needs at least one load point")
    parsed = []
    for index, load in enumerate(loads):
        value = _expect_float(load, f"{path}[{index}]")
        if value < 0:
            raise ScenarioError(f"{path}[{index}]", f"must be >= 0, got {value}")
        parsed.append(value)
    return parsed


def _parse_traffic(raw: object, path: str) -> TrafficSpec:
    mapping = _expect_mapping(raw, path)
    kind = _expect_str(mapping.get("kind", "synthetic"), f"{path}.kind")
    if kind not in ("synthetic", "application"):
        raise ScenarioError(
            f"{path}.kind", f"must be 'synthetic' or 'application', got {kind!r}"
        )
    if kind == "synthetic":
        _reject_unknown_keys(
            mapping, ("kind", "pattern", "memory_fractions", "loads"), path
        )
        pattern = "uniform"
        if "pattern" in mapping:
            pattern = _expect_registry_name(
                mapping["pattern"], f"{path}.pattern", available_patterns(), "pattern"
            )
        fractions = [0.2]
        if "memory_fractions" in mapping:
            entries = _expect_list(mapping["memory_fractions"], f"{path}.memory_fractions")
            if not entries:
                raise ScenarioError(
                    f"{path}.memory_fractions", "needs at least one fraction"
                )
            fractions = []
            for index, entry in enumerate(entries):
                value = _expect_float(entry, f"{path}.memory_fractions[{index}]")
                if not 0.0 <= value <= 1.0:
                    raise ScenarioError(
                        f"{path}.memory_fractions[{index}]",
                        f"must be in [0, 1], got {value}",
                    )
                fractions.append(value)
        loads = FIDELITY_SENTINEL
        if "loads" in mapping:
            loads = _parse_loads(mapping["loads"], f"{path}.loads")
        return TrafficSpec(
            kind="synthetic", pattern=pattern, memory_fractions=fractions, loads=loads
        )

    _reject_unknown_keys(mapping, ("kind", "applications", "rate_scale"), path)
    applications: Union[str, List[str]] = FIDELITY_SENTINEL
    if "applications" in mapping and mapping["applications"] != FIDELITY_SENTINEL:
        entries = _expect_list(mapping["applications"], f"{path}.applications")
        if not entries:
            raise ScenarioError(f"{path}.applications", "needs at least one application")
        applications = [
            _expect_registry_name(
                entry,
                f"{path}.applications[{index}]",
                sorted(APPLICATION_PROFILES),
                "application",
            )
            for index, entry in enumerate(entries)
        ]
    rate_scale: Union[str, float] = FIDELITY_SENTINEL
    if "rate_scale" in mapping and mapping["rate_scale"] != FIDELITY_SENTINEL:
        rate_scale = _expect_float(mapping["rate_scale"], f"{path}.rate_scale")
        if rate_scale <= 0:
            raise ScenarioError(f"{path}.rate_scale", f"must be > 0, got {rate_scale}")
    return TrafficSpec(kind="application", applications=applications, rate_scale=rate_scale)


def _parse_macs(raw: object, path: str) -> Union[str, List[str]]:
    if isinstance(raw, str):
        if raw != "all":
            raise ScenarioError(
                path, f"expected 'all' or a list of MAC names, got {raw!r}"
            )
        return "all"
    entries = _expect_list(raw, path)
    if not entries:
        raise ScenarioError(path, "needs at least one entry ('' keeps the system's MAC)")
    macs = []
    for index, entry in enumerate(entries):
        name = _expect_str(entry, f"{path}[{index}]")
        if name:
            _expect_registry_name(name, f"{path}[{index}]", available_macs(), "MAC protocol")
        macs.append(name)
    return macs


def _parse_channels(raw: object, path: str) -> Union[None, str, List[int]]:
    if raw is None:
        return None
    if isinstance(raw, str):
        if raw != FIDELITY_SENTINEL:
            raise ScenarioError(
                path,
                f"expected {FIDELITY_SENTINEL!r} or a list of channel counts, got {raw!r}",
            )
        return FIDELITY_SENTINEL
    entries = _expect_list(raw, path)
    if not entries:
        raise ScenarioError(path, "needs at least one channel count")
    channels = []
    for index, entry in enumerate(entries):
        value = _expect_int(entry, f"{path}[{index}]")
        if value <= 0:
            raise ScenarioError(f"{path}[{index}]", f"must be >= 1, got {value}")
        channels.append(value)
    return channels


def _parse_faults(raw: object, path: str) -> FaultSpec:
    mapping = _expect_mapping(raw, path)
    _reject_unknown_keys(mapping, ("scenario", "rates", "rate"), path)
    scenario = "none"
    if "scenario" in mapping:
        scenario = _expect_registry_name(
            mapping["scenario"],
            f"{path}.scenario",
            available_fault_scenarios(),
            "fault scenario",
        )
    if "rates" in mapping and "rate" in mapping:
        raise ScenarioError(f"{path}.rate", "give either 'rates' or 'rate', not both")
    rates: Union[str, List[float]] = [0.0]
    if "rate" in mapping:
        value = _expect_float(mapping["rate"], f"{path}.rate")
        if not 0.0 <= value <= 1.0:
            raise ScenarioError(f"{path}.rate", f"must be in [0, 1], got {value}")
        # The fig7 pinned-rate form: the pristine baseline plus one severity.
        rates = sorted({0.0, value})
    elif "rates" in mapping:
        if mapping["rates"] == FIDELITY_SENTINEL:
            rates = FIDELITY_SENTINEL
        else:
            entries = _expect_list(mapping["rates"], f"{path}.rates")
            if not entries:
                raise ScenarioError(f"{path}.rates", "needs at least one severity")
            rates = []
            for index, entry in enumerate(entries):
                value = _expect_float(entry, f"{path}.rates[{index}]")
                if not 0.0 <= value <= 1.0:
                    raise ScenarioError(
                        f"{path}.rates[{index}]", f"must be in [0, 1], got {value}"
                    )
                rates.append(value)
    if scenario == "none":
        explicit = rates if isinstance(rates, list) else []
        if rates == FIDELITY_SENTINEL or any(rate > 0 for rate in explicit):
            raise ScenarioError(
                f"{path}.rates",
                "a non-zero severity needs a fault scenario "
                "(e.g. scenario: random-links)",
            )
    return FaultSpec(scenario=scenario, rates=rates)


# ----------------------------------------------------------------------
# Document entry points.
# ----------------------------------------------------------------------

_TOP_LEVEL_KEYS = (
    "name",
    "description",
    "fidelity",
    "systems",
    "traffic",
    "macs",
    "channels",
    "faults",
)


def parse_scenario(raw: object) -> ScenarioSpec:
    """Validate one raw document (a mapping) into a :class:`ScenarioSpec`.

    Raises :class:`ScenarioError` — with the dotted path of the offending
    field — for every malformed, unknown, out-of-range or unregistered
    value.
    """
    mapping = _expect_mapping(raw, "")
    _reject_unknown_keys(mapping, _TOP_LEVEL_KEYS, "")
    if "name" not in mapping:
        raise ScenarioError("name", "required field is missing")
    name = _expect_str(mapping["name"], "name")
    if not name:
        raise ScenarioError("name", "must not be empty")
    description = _expect_str(mapping.get("description", ""), "description")

    level, overrides = _parse_fidelity(mapping.get("fidelity", "default"), "fidelity")

    if "systems" not in mapping:
        raise ScenarioError("systems", "required field is missing")
    entries = _expect_list(mapping["systems"], "systems")
    if not entries:
        raise ScenarioError("systems", "needs at least one system")
    systems = [
        _parse_system(entry, f"systems[{index}]") for index, entry in enumerate(entries)
    ]

    if "traffic" not in mapping:
        raise ScenarioError("traffic", "required field is missing")
    traffic = _parse_traffic(mapping["traffic"], "traffic")

    macs: Union[str, List[str]] = [""]
    if "macs" in mapping:
        if traffic.kind == "application":
            raise ScenarioError(
                "macs", "application traffic does not take a MAC override sweep"
            )
        macs = _parse_macs(mapping["macs"], "macs")

    channels = _parse_channels(mapping.get("channels"), "channels")

    faults = FaultSpec()
    if "faults" in mapping:
        faults = _parse_faults(mapping["faults"], "faults")

    return ScenarioSpec(
        name=name,
        description=description,
        fidelity_level=level,
        fidelity_overrides=overrides,
        systems=systems,
        traffic=traffic,
        macs=macs,
        channels=channels,
        faults=faults,
    )


def _load_yaml(text: str, source: str) -> object:
    try:
        import yaml
    except ImportError:
        raise ScenarioError(
            "",
            f"cannot load YAML scenario {source!r}: PyYAML is not installed "
            "(use a .json document instead)",
        ) from None
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as error:
        raise ScenarioError("", f"invalid YAML in {source!r}: {error}") from None


def loads_scenario(text: str, format: str = "yaml", source: str = "<string>") -> ScenarioSpec:
    """Parse a scenario from document text (``format``: ``yaml`` or ``json``)."""
    if format == "json":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as error:
            raise ScenarioError("", f"invalid JSON in {source!r}: {error}") from None
    elif format == "yaml":
        raw = _load_yaml(text, source)
    else:
        raise ScenarioError("", f"unknown scenario format {format!r} (yaml or json)")
    return parse_scenario(raw)


def load_scenario(path: str) -> ScenarioSpec:
    """Load and validate one scenario document from a ``.yaml``/``.json`` file."""
    lowered = str(path).lower()
    format = "json" if lowered.endswith(".json") else "yaml"
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as error:
        raise ScenarioError("", f"cannot read scenario file {path!r}: {error}") from None
    return loads_scenario(text, format=format, source=str(path))


def dump_scenario(spec: ScenarioSpec, format: str = "json") -> str:
    """Serialise a spec back to canonical document text.

    JSON needs only the standard library (this is what the fuzzer's CI
    artifact dump uses); YAML needs PyYAML.
    """
    raw = spec.to_dict()
    if format == "json":
        return json.dumps(raw, indent=2, sort_keys=False) + "\n"
    if format == "yaml":
        try:
            import yaml
        except ImportError:
            raise ScenarioError(
                "", "cannot dump YAML: PyYAML is not installed (use format='json')"
            ) from None
        return yaml.safe_dump(raw, sort_keys=False)
    raise ScenarioError("", f"unknown scenario format {format!r} (yaml or json)")
