"""Tests of the parallel experiment orchestration layer.

Covers the hard guarantees the runner makes: parallel execution is
bit-identical to serial execution, cached results are bit-identical to
fresh ones, cache keys track every result-affecting parameter, task
seeding is deterministic, and a sweep killed midway serves the tasks it
finished from the cache when rerun.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro import api
from repro.core.comparison import ArchitectureMetrics
from repro.core.config import Architecture
from repro.core.framework import MultichipSimulation
from repro.experiments.cli import build_parser, runner_from_args
from repro.parallel import runner as runner_module
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

    def test_entries_hold_only_summary_fields(self, tmp_path, monkeypatch):
        """An entry is written from the summary, not from the raw payload,
        so a key a wrapper adds to the payload never reaches the disk."""
        execute_batch = runner_module.execute_task_batch

        def tagged(tasks, **kwargs):
            payloads = execute_batch(tasks, **kwargs)
            payloads[0]["_extra"] = {"seconds": 1.0}
            return payloads

        monkeypatch.setattr(runner_module, "execute_task_batch", tagged)
        _, tasks = _tiny_tasks()
        out = ExperimentRunner(jobs=1, cache_dir=tmp_path).run(tasks[:1])
        entry = ResultCache(tmp_path).get(tasks[0].cache_key())
        assert entry["result"] == out[tasks[0]].as_dict()


#: A child that, under the start method ``argv[2]``, checks that a two-worker
#: pool returns results, then fills one with tasks that sleep for a minute;
#: each sleeping worker records its pid as a file in the directory ``argv[1]``.
_SLEEPING_POOL = """
import multiprocessing, os, sys, time
from repro.parallel.executor import run_tasks

def square(value):
    return value * value

def sleep_in_worker(directory):
    open(os.path.join(directory, str(os.getpid())), "w").close()
    time.sleep(60)

if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[2])
    assert run_tasks(square, [1, 2, 3, 4], jobs=2) == [1, 4, 9, 16]
    run_tasks(sleep_in_worker, [sys.argv[1]] * 4, jobs=2)
"""


def _running(pid: int) -> bool:
    """Whether ``pid`` names a live process (a zombie has exited)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            state = stat.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return False
    return state != "Z"


class TestCrashResume:
    def test_killed_sweep_serves_finished_tasks_from_cache(self, tmp_path):
        """SIGKILL a cached sweep after three tasks finished, then rerun it.

        Each task's entry lands as the task finishes, so the finished
        tasks are cache hits on the rerun, only the rest are simulated,
        and the results equal an uncached run.
        """
        fidelity = Fidelity("kill", cycles=2000, warmup_cycles=200, load_points=(), applications=())
        config = small_system_config(Architecture.WIRELESS)
        tasks = [uniform_task(config, fidelity, load=0.01 * step) for step in range(1, 9)]
        cache_dir = tmp_path / "cache"
        (tmp_path / "tasks.pickle").write_bytes(pickle.dumps(tasks))
        script = (
            "import pickle, sys\n"
            "from repro import api\n"
            "tasks = pickle.loads(open(sys.argv[1], 'rb').read())\n"
            "api.sweep(tasks, cache_dir=sys.argv[2], show_progress=True)\n"
        )
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        child = subprocess.Popen(
            [sys.executable, "-c", script, str(tmp_path / "tasks.pickle"), str(cache_dir)],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            for line in child.stderr:
                if line.startswith(f"[runner] 3/{len(tasks)} "):
                    child.send_signal(signal.SIGKILL)
                    break
            assert child.wait(timeout=60) == -signal.SIGKILL
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
            child.stderr.close()
        on_disk = len(list(cache_dir.glob("*.json")))
        assert 3 <= on_disk < len(tasks)

        runner = api.make_runner(cache_dir=str(cache_dir))
        resumed = api.sweep(tasks, runner=runner)
        assert runner.cache_hits == on_disk
        assert runner.tasks_executed == len(tasks) - on_disk
        uncached = api.sweep(tasks)
        assert {t: s.as_dict() for t, s in resumed.items()} == {
            t: s.as_dict() for t, s in uncached.items()
        }

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads process states from /proc")
    @pytest.mark.parametrize("start_method", multiprocessing.get_all_start_methods())
    def test_pool_workers_exit_when_their_parent_is_killed(self, tmp_path, start_method):
        """SIGKILL the process that owns a pool: its workers must not linger.

        A killed parent cannot shut its pool down, so each worker has to
        notice on its own that the parent is gone and exit, even mid-task.
        Under every start method, including ``forkserver``, where a worker's
        parent is the fork server rather than the pool's creator.
        """
        script = tmp_path / "pool.py"
        script.write_text(_SLEEPING_POOL)
        pids_dir = tmp_path / "pids"
        pids_dir.mkdir()
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        child = subprocess.Popen(
            [sys.executable, str(script), str(pids_dir), start_method], env=env
        )
        workers = []
        try:
            deadline = time.monotonic() + 60
            while len(workers) < 2 and time.monotonic() < deadline:
                assert child.poll() is None, "the pool's parent exited on its own"
                time.sleep(0.05)
                workers = [int(path.name) for path in pids_dir.iterdir()]
            assert len(workers) == 2
            child.send_signal(signal.SIGKILL)
            assert child.wait(timeout=10) == -signal.SIGKILL
            deadline = time.monotonic() + 5
            while any(map(_running, workers)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert [pid for pid in workers if _running(pid)] == []
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
            for pid in workers:
                if _running(pid):
                    with contextlib.suppress(ProcessLookupError):
                        os.kill(pid, signal.SIGKILL)


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
