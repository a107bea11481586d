"""Self-test of the end-to-end benchmark, mostly at a reduced run length.

    pytest benchmarks/e2e

Outside the tier-1 ``testpaths``: it launches real benchmark processes and
takes about half a minute.
"""

from __future__ import annotations

import json
import multiprocessing
from dataclasses import replace

import pytest

import hostspeed
import layers
import run
import workloads

#: Reduced run length: the checks need real runs, not representative ones.
CYCLES = 60


def _declared(kind: str) -> dict:
    with (workloads.ROOT / "BENCHMARK.json").open(encoding="utf-8") as handle:
        return {metric["name"]: metric["unit"] for metric in json.load(handle)[kind]}


def _pass(name: str, seed: int, cache_dir, cycles=CYCLES, segment_s=None):
    workload = workloads.WORKLOADS[name]
    specs = workloads.resolve_specs(workload, cycles)
    seeds = workloads.task_seeds(specs, seed)
    return workloads.run_pass(specs, seeds, workload.jobs, str(cache_dir), segment_s)


def test_every_declared_metric_is_emitted_with_its_unit():
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        outcome = run.measure("apps", seconds=0, trace=trace, cycles=CYCLES)
        assert outcome["correct"], outcome["errors"]
        assert run.units(trace) == _declared(kind)
        assert set(outcome["metrics"]) == set(_declared(kind))


def test_segments_are_scaled_by_their_probes_and_change_no_result(tmp_path, monkeypatch):
    # The probe's work is pinned: editing it would rescale every reported time.
    assert hostspeed._work() == 1285601
    workloads.import_repro()
    whole = _pass("apps", workloads.DEFAULT_SEED, tmp_path / "whole")
    monkeypatch.setattr(hostspeed, "probe", lambda: 2 * hostspeed.REFERENCE_S)
    split = _pass("apps", workloads.DEFAULT_SEED, tmp_path / "split", segment_s=0.01)
    assert workloads.digest(split.pairs) == workloads.digest(whole.pairs)
    assert (split.executed, split.hits) == (whole.executed, whole.hits)
    assert len(whole.probes) == 2 and len(split.probes) > 3
    assert split.reference_s == pytest.approx(split.seconds * 0.5**hostspeed.SENSITIVITY)


def test_a_doctored_payload_fails_every_run(tmp_path):
    workloads.import_repro()
    pairs = _pass("apps", workloads.DEFAULT_SEED, tmp_path).pairs
    task, summary = pairs[0]
    doctored = [(task, replace(summary, packets_delivered=summary.packets_delivered + 1))]
    reference = workloads.digest(doctored + pairs[1:])
    assert reference != workloads.digest(pairs)

    outcome = run.measure("apps", seconds=0, cycles=CYCLES, reference=reference)
    assert outcome["attempted"] == run.MIN_COLD_RUNS
    assert outcome["failed"] == outcome["attempted"]  # failed_ratio = 1
    assert not outcome["correct"]
    assert run.exit_code(outcome) != 0


def test_digests_agree_across_job_counts_and_differ_across_seeds(tmp_path):
    workloads.import_repro()
    digests = {}
    for name in ("sweeps", "sweeps-j2"):
        for seed in (7, 11):
            regeneration = _pass(name, seed, tmp_path / f"{name}-{seed}")
            assert (regeneration.executed, regeneration.hits) == (100, 28)
            digests[name, seed] = workloads.digest(regeneration.pairs)
    assert digests["sweeps", 7] == digests["sweeps-j2", 7]
    assert digests["sweeps", 11] == digests["sweeps-j2", 11]
    assert digests["sweeps", 7] != digests["sweeps", 11]


def test_tracing_reproduces_the_golden_and_leaves_no_trace(tmp_path):
    workloads.import_repro()
    tracer = layers.Tracer()
    originals = [(owner, name, vars(owner)[name]) for owner, name, _ in tracer.targets()]
    with tracer.installed():
        traced = _pass(
            "resilience", 7, tmp_path / "traced", cycles=None, segment_s=workloads.SEGMENT_S
        )
    assert all(vars(owner)[name] is raw for owner, name, raw in originals)
    assert workloads.digest(traced.pairs) == workloads.golden_digest("resilience", 7)
    values = tracer.report(traced.seconds, 1, traced.executed, traced.hits)
    assert values["faults.recoveries"] > 0 and values["routing.route_calls"] > 0

    # Pool workers ship their timings on the payloads; none may reach the cache.
    cache = tmp_path / "j2"
    with layers.Tracer().installed() as pooled:
        _pass("sweeps-j2", 7, cache)
    if multiprocessing.get_start_method() == "fork":  # workers inherit the wrappers
        assert pooled.worker_seconds["kernel.allocation_s"] > 0
    assert not any(layers._WORKER_KEY in path.read_text() for path in cache.glob("*.json"))
    assert all(vars(owner)[name] is raw for owner, name, raw in originals)
