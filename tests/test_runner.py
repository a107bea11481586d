"""Tests of the parallel experiment orchestration layer.

Covers the hard guarantees the runner makes: parallel execution is
bit-identical to serial execution, cached results are bit-identical to
fresh ones, cache keys track every result-affecting parameter, and task
seeding is deterministic.
"""

from __future__ import annotations

import pytest

from repro.core.comparison import ArchitectureMetrics
from repro.core.config import Architecture
from repro.core.framework import MultichipSimulation
from repro.experiments.cli import build_parser, runner_from_args
from repro.parallel.runner import (
    ExperimentRunner,
    SimulationTask,
    application_task,
    execute_task,
    uniform_task,
)
from repro.metrics.saturation import LoadPointSummary, SweepSummary
from repro.noc.engine import SimulationConfig
from repro.parallel.cache import ResultCache
from repro.parallel.executor import run_tasks
from repro.parallel.hashing import canonical_json, stable_hash
from repro.scenario.fidelity import Fidelity
from repro.testing import small_system_config
from repro.traffic.rng import derive_seed

#: A deliberately tiny fidelity so each task simulates in well under a second.
TINY = Fidelity(
    name="fast",
    cycles=300,
    warmup_cycles=60,
    load_points=(0.002, 0.004),
    applications=("radix",),
)


def _tiny_tasks(architecture=Architecture.WIRELESS):
    config = small_system_config(architecture)
    tasks = [uniform_task(config, TINY, load=load) for load in TINY.load_points]
    tasks.append(application_task(config, TINY, "radix", rate_scale=0.25))
    return config, tasks


class TestDeterministicSeeding:
    def test_derive_seed_is_deterministic(self):
        assert derive_seed(7, "a", 1) == derive_seed(7, "a", 1)

    def test_derive_seed_decorrelates_components(self):
        seeds = {
            derive_seed(7),
            derive_seed(7, "a"),
            derive_seed(7, "b"),
            derive_seed(8, "a"),
            derive_seed(7, "a", 1),
        }
        assert len(seeds) == 5


class TestCacheKeys:
    def test_equal_tasks_share_a_key(self):
        config, _ = _tiny_tasks()
        a = uniform_task(config, TINY, load=0.002)
        b = uniform_task(config, TINY, load=0.002)
        assert a == b
        assert a.cache_key() == b.cache_key()

    def test_every_parameter_changes_the_key(self):
        config, _ = _tiny_tasks()
        base = uniform_task(config, TINY, load=0.002)
        variants = [
            uniform_task(config, TINY, load=0.004),
            uniform_task(config, TINY, load=0.002, seed=99),
            uniform_task(config, TINY, load=0.002, memory_access_fraction=0.4),
            uniform_task(
                small_system_config(Architecture.INTERPOSER), TINY, load=0.002
            ),
            application_task(config, TINY, "radix"),
        ]
        keys = {base.cache_key()} | {v.cache_key() for v in variants}
        assert len(keys) == len(variants) + 1

    def test_canonical_json_is_order_independent(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})
        assert stable_hash({"b": 1, "a": 2}) == stable_hash({"a": 2, "b": 1})

    def test_task_validation(self):
        config, _ = _tiny_tasks()
        with pytest.raises(ValueError):
            SimulationTask(kind="bogus", config=config, cycles=100, warmup_cycles=10, seed=1)
        with pytest.raises(ValueError):
            SimulationTask(kind="uniform", config=config, cycles=100, warmup_cycles=10, seed=1)
        with pytest.raises(ValueError):
            uniform_task(config, TINY, load=-0.001)
        with pytest.raises(ValueError):
            application_task(config, TINY, "")

    def test_zero_load_point_is_allowed(self):
        """The serial path supported load 0 (true zero-load latency); so must tasks."""
        config, _ = _tiny_tasks()
        summary = LoadPointSummary.from_dict(
            execute_task(uniform_task(config, TINY, load=0.0))
        )
        assert summary.offered_load == 0.0
        assert summary.acceptance_ratio() == 1.0

    def test_summary_line_reports_cache_state(self, tmp_path):
        assert "cache=on" in ExperimentRunner(cache_dir=tmp_path).summary_line()
        assert "cache=off" in ExperimentRunner().summary_line()


class TestParallelEqualsSerial:
    def test_jobs4_results_bit_identical_to_jobs1(self):
        _, tasks = _tiny_tasks()
        serial = ExperimentRunner(jobs=1).run(tasks)
        parallel = ExperimentRunner(jobs=4).run(tasks)
        assert set(serial) == set(parallel)
        for task in tasks:
            assert serial[task].as_dict() == parallel[task].as_dict()

    def test_executor_preserves_input_order(self):
        _, tasks = _tiny_tasks()
        payloads = run_tasks(execute_task, tasks, jobs=2)
        for task, payload in zip(tasks, payloads):
            assert payload == execute_task(task)

    def test_runner_path_matches_legacy_serial_sweep(self):
        """The task runner reproduces serial facade runs bit for bit."""
        config = small_system_config(Architecture.WIRELESS)
        simulation = MultichipSimulation.from_config(
            config, SimulationConfig(cycles=TINY.cycles, warmup_cycles=TINY.warmup_cycles)
        )
        serial = SweepSummary(
            points=[
                LoadPointSummary.from_result(
                    load,
                    simulation.run_pattern(
                        "uniform",
                        injection_rate=load,
                        memory_access_fraction=0.2,
                        seed=TINY.seed,
                    ),
                )
                for load in TINY.load_points
            ]
        )

        runner = ExperimentRunner(jobs=2)
        tasks = [uniform_task(config, TINY, load=load) for load in TINY.load_points]
        results = runner.run(tasks)
        summary = SweepSummary(points=[results[task] for task in tasks])

        assert summary == serial
        assert ArchitectureMetrics.from_sweep_summary(
            config.name, summary
        ) == ArchitectureMetrics.from_sweep_summary(config.name, serial)


class TestResultCache:
    def test_cache_miss_then_hit_skips_simulation(self, tmp_path):
        _, tasks = _tiny_tasks()
        first = ExperimentRunner(jobs=1, cache_dir=tmp_path)
        cold = first.run(tasks)
        assert first.cache_misses == len(tasks)
        assert first.tasks_executed == len(tasks)
        assert first.cache_hits == 0

        # Entries written while the runner still stamped each payload with
        # the engine that ran it stay valid hits: unknown keys are ignored.
        cache = ResultCache(tmp_path)
        for task in tasks:
            entry = cache.get(task.cache_key())
            entry["result"]["engine_used"] = "scalar"
            cache.put(task.cache_key(), entry)

        second = ExperimentRunner(jobs=1, cache_dir=tmp_path)
        warm = second.run(tasks)
        assert second.cache_hits == len(tasks)
        assert second.tasks_executed == 0
        for task in tasks:
            assert warm[task].as_dict() == cold[task].as_dict()

    def test_use_cache_false_never_touches_disk(self, tmp_path, monkeypatch):
        """``--no-cache`` builds a runner with no cache that writes nothing."""
        monkeypatch.chdir(tmp_path)
        _, tasks = _tiny_tasks()
        args = build_parser().parse_args(
            ["fig2", "--cache-dir", str(tmp_path / "cache"), "--no-cache", "-q"]
        )
        runner = runner_from_args(args)
        assert runner.cache is None
        runner.run(tasks[:1])
        assert list(tmp_path.iterdir()) == []

    def test_duplicate_tasks_simulated_once(self):
        _, tasks = _tiny_tasks()
        runner = ExperimentRunner(jobs=1)
        runner.run([tasks[0], tasks[0], tasks[0]])
        assert runner.tasks_executed == 1

    def test_wrong_shaped_entry_is_a_miss(self, tmp_path):
        """Valid JSON with the wrong shape must recompute, not crash."""
        import json

        _, tasks = _tiny_tasks()
        cache = ResultCache(tmp_path)
        key = tasks[0].cache_key()
        for bogus in ({"result": []}, {"result": {}}, {"unrelated": 1}, []):
            cache.path_for(key).write_text(json.dumps(bogus), encoding="utf-8")
            runner = ExperimentRunner(jobs=1, cache_dir=tmp_path)
            out = runner.run(tasks[:1])
            assert runner.tasks_executed == 1
            assert out[tasks[0]].packets_delivered >= 0

    @pytest.mark.parametrize(
        "field, value",
        [
            ("accepted_flits_per_core_per_cycle", "0.0"),
            ("bandwidth_gbps_per_core", "1.5"),
            ("packets_delivered", True),
            ("links_failed", None),
            ("channel_energy_pj", []),
            ("channel_energy_pj", {"0": {"data": "1.0"}}),
            pytest.param(
                "wireless_energy_pj", lambda pj: pj + 1.0, id="wireless_energy_pj-plus-1pJ"
            ),
        ],
    )
    def test_wrong_typed_entry_is_a_miss(self, tmp_path, field, value):
        """A known field of the wrong type, or channel energy that does not
        reconcile with its aggregate, recomputes and overwrites the entry."""
        _, tasks = _tiny_tasks()
        clean = ExperimentRunner(jobs=1, cache_dir=tmp_path).run(tasks[:1])
        cache = ResultCache(tmp_path)
        key = tasks[0].cache_key()
        entry = cache.get(key)
        result = entry["result"]
        result[field] = value(result[field]) if callable(value) else value
        cache.put(key, entry)

        runner = ExperimentRunner(jobs=1, cache_dir=tmp_path)
        out = runner.run(tasks[:1])
        assert runner.tasks_executed == 1
        assert out == clean
        assert LoadPointSummary.from_dict(cache.get(key)["result"]) == clean[tasks[0]]

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        _, tasks = _tiny_tasks()
        cache = ResultCache(tmp_path)
        key = tasks[0].cache_key()
        cache.path_for(key).write_text("{not json", encoding="utf-8")
        assert cache.get(key) is None
        runner = ExperimentRunner(jobs=1, cache_dir=tmp_path)
        runner.run(tasks[:1])
        assert runner.tasks_executed == 1
        assert cache.get(key) is not None

    def test_cache_roundtrip_preserves_summary(self, tmp_path):
        _, tasks = _tiny_tasks()
        payload = execute_task(tasks[0])
        cache = ResultCache(tmp_path)
        cache.put("k", {"result": payload})
        restored = LoadPointSummary.from_dict(cache.get("k")["result"])
        assert restored.as_dict() == payload

    def test_invalid_key_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ResultCache(tmp_path).path_for("../escape")


class TestCliFlags:
    def test_parser_accepts_orchestration_flags(self):
        parser = build_parser()
        args = parser.parse_args(
            ["fig2", "--fidelity", "fast", "--jobs", "4", "--no-cache", "-q"]
        )
        assert args.jobs == 4
        assert args.no_cache is True
        runner = runner_from_args(args)
        assert runner.jobs == 4
        assert runner.cache is None

    def test_parser_defaults_enable_cache(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        args = build_parser().parse_args(["fig3"])
        assert args.jobs == 1
        runner = runner_from_args(args)
        assert runner.cache is not None
