"""Tests of the scenario fuzzer and its kernel-invariant battery.

Two promises under test.  First, *every draw is a valid spec*: whatever
seed the generator gets, the resulting document passes the validator —
hypothesis drives arbitrary seeds through ``random_scenario`` to check it.
Second, the battery actually enforces the four invariants (flit
conservation, deadlock freedom, MAC exclusivity, per-channel energy
reconciliation) against arbitrary registry combinations: the CI-pinned
fixed-seed batch must pass, and a doctored kernel must be *caught* — the
checks run inside every simulation, and the battery turns what a run
raises into a replayable :class:`InvariantViolation`.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.noc import WirelessFabric
from repro.noc.kernel import KernelState
from repro.scenario import compile_scenario, parse_scenario
from repro.scenario.fuzz import (
    DEFAULT_BATTERY_SEED,
    InvariantViolation,
    check_scenario,
    check_task,
    random_scenario,
    run_battery,
)
from repro.traffic.rng import derive_seed


# ----------------------------------------------------------------------
# Every draw is a valid spec.
# ----------------------------------------------------------------------


@given(seed=st.integers(min_value=0, max_value=2**63 - 1))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_every_random_scenario_is_valid(seed):
    """Arbitrary seeds always generate documents the validator accepts."""
    raw = random_scenario(seed)
    spec = parse_scenario(raw)  # would raise ScenarioError on a generator bug
    tasks = compile_scenario(spec)
    assert tasks, "a fuzzed scenario must compile to at least one task"
    # The document survives the artifact dump/replay cycle used by CI.
    assert parse_scenario(json.loads(json.dumps(raw))) == spec


def test_random_scenario_is_deterministic_per_seed():
    assert random_scenario(123) == random_scenario(123)
    assert random_scenario(123) != random_scenario(124)


def test_random_scenarios_cover_the_registries():
    """Across many seeds the generator visits every registry axis."""
    architectures, kinds, macs, fault_scenarios = set(), set(), set(), set()
    for seed in range(120):
        raw = random_scenario(seed)
        architectures.add(raw["systems"][0]["architecture"])
        kinds.add(raw["traffic"]["kind"])
        for mac in raw.get("macs", []):
            macs.add(mac)
        if "faults" in raw:
            fault_scenarios.add(raw["faults"]["scenario"])
    assert architectures == {"wireless", "interposer", "substrate"}
    assert kinds == {"synthetic", "application"}
    assert len(macs) >= 3
    assert len(fault_scenarios) >= 3


# ----------------------------------------------------------------------
# The invariant battery.
# ----------------------------------------------------------------------


@given(seed=st.integers(min_value=0, max_value=2**32))
@settings(max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_arbitrary_scenarios_uphold_the_invariants(seed):
    """Hypothesis-driven end-to-end battery on a handful of random specs."""
    report = check_scenario(random_scenario(seed))
    assert report["tasks"] >= 1


def test_fixed_seed_battery_smoke():
    """A slice of the CI batch (same seed stream) upholds all invariants."""
    reports = run_battery(count=4, base_seed=DEFAULT_BATTERY_SEED)
    assert len(reports) == 4
    expected = [
        random_scenario(derive_seed(DEFAULT_BATTERY_SEED, "battery", index))["name"]
        for index in range(4)
    ]
    assert [r["name"] for r in reports] == expected
    assert sum(r["packets_delivered"] for r in reports) > 0


def test_battery_rejects_non_positive_counts():
    with pytest.raises(ValueError):
        run_battery(count=0)


def test_check_task_reports_wireless_grants():
    """A wireless task reports the flit-hops its exclusivity check covered."""
    raw = {
        "name": "probe",
        "fidelity": {"level": "fast", "cycles": 300, "warmup_cycles": 60},
        "systems": [
            {
                "architecture": "wireless",
                "num_chips": 2,
                "cores_per_chip": 4,
                "num_memory_stacks": 2,
                "vaults_per_stack": 2,
                "cores_per_wi": 2,
            }
        ],
        "traffic": {"kind": "synthetic", "loads": [0.05]},
    }
    tasks = compile_scenario(parse_scenario(raw))
    report = check_task(tasks[0], scenario=raw)
    assert report["wireless_flit_hops"] > 0
    assert report["flits_injected"] > 0


def test_doctored_conservation_violation_is_caught(monkeypatch):
    """The battery is not a rubber stamp: a kernel that loses a flit fails."""
    raw = random_scenario(derive_seed(DEFAULT_BATTERY_SEED, "battery", 0))
    tasks = compile_scenario(parse_scenario(raw))

    residual_flits = KernelState.residual_flits
    monkeypatch.setattr(
        KernelState, "residual_flits", lambda state: residual_flits(state) + 1
    )
    with pytest.raises(InvariantViolation) as excinfo:
        check_task(tasks[0], scenario=raw)
    assert any("flit conservation" in failure for failure in excinfo.value.failures)
    assert excinfo.value.scenario == raw


def test_mac_exclusivity_violation_fails_the_cli_with_an_artifact(tmp_path, monkeypatch):
    """A kernel invariant raised mid-run exits 1 and dumps the document."""
    from repro.scenario import fuzz as fuzz_module

    monkeypatch.setattr(WirelessFabric, "grants", lambda self, *args: True)
    dump = tmp_path / "failing.json"
    exit_code = fuzz_module.main(["--count", "1", "--dump", str(dump)])
    assert exit_code == 1
    artifact = json.loads(dump.read_text(encoding="utf-8"))
    assert any("two transmitters on channel" in f for f in artifact["failures"])
    parse_scenario(artifact["scenario"])


def test_fuzz_cli_dumps_replayable_artifact(tmp_path, monkeypatch, capsys):
    """On a violation the CLI writes the offending document and exits 1."""
    from repro.scenario import fuzz as fuzz_module

    def explode(count, base_seed, on_progress=None):
        raise InvariantViolation(
            random_scenario(1), "task-x", ["flit conservation broken: cooked"]
        )

    monkeypatch.setattr(fuzz_module, "run_battery", explode)
    dump = tmp_path / "failing.json"
    exit_code = fuzz_module.main(["--count", "2", "--dump", str(dump)])
    assert exit_code == 1
    artifact = json.loads(dump.read_text(encoding="utf-8"))
    assert artifact["task"] == "task-x"
    assert artifact["failures"] == ["flit conservation broken: cooked"]
    # The dumped document replays straight through the validator.
    parse_scenario(artifact["scenario"])


def test_fuzz_cli_rejects_non_positive_counts(capsys):
    from repro.scenario import fuzz as fuzz_module

    with pytest.raises(SystemExit) as excinfo:
        fuzz_module.main(["--count", "0"])
    assert excinfo.value.code == 2
    assert "--count must be at least 1" in capsys.readouterr().err


def test_fuzz_cli_passes_on_clean_batch(capsys):
    from repro.scenario import fuzz as fuzz_module

    exit_code = fuzz_module.main(["--count", "2"])
    assert exit_code == 0
    out = capsys.readouterr().out
    assert "upheld all four invariants" in out
