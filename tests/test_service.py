"""Sweep-service tests: wire codec, dedupe/coalescing/priorities, daemon.

The PR-8 contracts:

* **Wire fidelity** — a task round-tripped through the NDJSON wire form
  is equal to the original and hashes to the same cache key (the
  property the service's dedupe and coalescing correctness rests on);
  malformed payloads fail with a typed :class:`WireError`, never a
  silent mis-decode.
* **Dedupe** — resubmitting an already-cached job executes zero new
  tasks; duplicates inside one submission run once.
* **Coalescing** — a task identical to one already queued or running
  for an earlier job subscribes to that single execution.
* **Priorities** — every interactive task dispatches before any queued
  bulk task, and joining a queued task from an interactive job promotes
  it; running tasks are never killed.
* **Daemon** — the subprocess daemon serves the protocol end to end:
  duplicate submissions come back entirely from its cache, a SIGKILL
  mid-task leaves a resumable checkpoint behind, and the restarted
  daemon finishes the job bit-identically to an uninterrupted run.
"""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import pytest

import repro
from repro.core.config import Architecture
from repro.parallel.checkpoints import CheckpointStore
from repro.parallel.runner import execute_task, uniform_task
from repro.service.client import ServiceClient, ServiceError, ServiceRunner, submit_sync
from repro.service.jobs import ServiceConfig, SweepService
from repro.service.wire import (
    WireError,
    decode_line,
    encode_line,
    task_from_wire,
    task_to_wire,
)
from repro.testing import small_system_config


@dataclass(frozen=True)
class _Fidelity:
    cycles: int = 200
    warmup_cycles: int = 50
    seed: int = 5


def _task(load, architecture=Architecture.WIRELESS, cycles=200, seed=5, faults="none"):
    return uniform_task(
        small_system_config(architecture),
        _Fidelity(cycles=cycles, seed=seed),
        load=load,
        faults=faults,
        fault_rate=0.3 if faults != "none" else 0.0,
    )


# ----------------------------------------------------------------------
# Wire codec.
# ----------------------------------------------------------------------


class TestWireCodec:
    def test_round_trip_preserves_task_and_cache_key(self):
        for task in (
            _task(0.02),
            _task(0.05, architecture=Architecture.SUBSTRATE, faults="random-links"),
        ):
            clone = task_from_wire(task_to_wire(task))
            assert clone == task
            assert clone.cache_key() == task.cache_key()

    def test_round_trip_survives_json(self):
        task = _task(0.02)
        line = encode_line({"task": task_to_wire(task)})
        decoded = decode_line(line)
        assert task_from_wire(decoded["task"]) == task

    def test_unknown_field_rejected(self):
        payload = task_to_wire(_task(0.02))
        payload["surprise"] = 1
        with pytest.raises(WireError, match="surprise"):
            task_from_wire(payload)

    def test_bad_enum_value_rejected(self):
        payload = task_to_wire(_task(0.02))
        payload["config"]["architecture"] = "carrier-pigeon"
        with pytest.raises(WireError):
            task_from_wire(payload)

    def test_decode_line_errors(self):
        assert decode_line(b"\n") is None
        with pytest.raises(WireError):
            decode_line(b"not json\n")
        with pytest.raises(WireError):
            decode_line(b"[1, 2]\n")


# ----------------------------------------------------------------------
# In-process service: dedupe, coalescing, priorities.
# ----------------------------------------------------------------------


def _run(coro):
    return asyncio.run(coro)


async def _with_service(config, body):
    service = SweepService(config)
    await service.start()
    try:
        return await body(service)
    finally:
        await service.stop()


async def _let_dispatcher_start_one(service):
    """Yield to the loop until the dispatcher has claimed a task."""
    for _ in range(1000):
        await asyncio.sleep(0.01)
        if service._running:
            return
    raise AssertionError("dispatcher never started a task")


def _gate_task(monkeypatch, gated_task):
    """Block the worker executing ``gated_task`` until the gate opens.

    Lets a test hold one task "running" while it submits overlapping
    jobs, making queued-vs-running distinctions deterministic.
    """
    import threading

    release = threading.Event()

    def gated(task, *args, **kwargs):
        if task.cache_key() == gated_task.cache_key():
            assert release.wait(60)
        return execute_task(task, *args, **kwargs)

    monkeypatch.setattr("repro.service.jobs.execute_task", gated)
    return release


class TestSweepService:
    def test_duplicate_submission_executes_zero_tasks(self, tmp_path):
        tasks = [_task(load) for load in (0.01, 0.02, 0.03)]
        config = ServiceConfig(jobs=1, cache_dir=str(tmp_path), use_processes=False)

        async def scenario(service):
            first = await service.submit(tasks)
            await first.wait()
            second = await service.submit(tasks)
            await second.wait()
            return first, second

        first, second = _run(_with_service(config, scenario))
        assert (first.executed, first.cached) == (3, 0)
        assert (second.executed, second.cached) == (0, 3)
        assert second.results == first.results
        assert {t.load for t in second.summaries()} == {0.01, 0.02, 0.03}

    def test_duplicates_within_one_job_run_once(self, tmp_path):
        repeated = _task(0.02)
        tasks = [repeated, _task(0.04), repeated]
        config = ServiceConfig(jobs=1, cache_dir=str(tmp_path), use_processes=False)

        async def scenario(service):
            events = []
            job = await service.submit(tasks)
            async for event in job.stream():
                events.append(event)
            return job, events

        job, events = _run(_with_service(config, scenario))
        assert events[0].kind == "accepted"
        assert events[0].data["tasks"] == 3
        assert events[0].data["unique"] == 2
        assert job.executed == 2
        assert len(job.results) == 2

    def test_identical_inflight_task_coalesces_across_jobs(self, monkeypatch):
        shared = _task(0.03)
        config = ServiceConfig(jobs=1, use_processes=False)  # no cache
        release = _gate_task(monkeypatch, _task(0.01))

        async def scenario(service):
            job1 = await service.submit([_task(0.01), shared])
            await _let_dispatcher_start_one(service)
            # 0.01 is running (held at the gate), `shared` is queued:
            # job2 must subscribe to the queued execution instead of
            # spawning a second one.
            job2 = await service.submit([shared])
            release.set()
            await job1.wait()
            await job2.wait()
            return job1, job2, await service.status()

        job1, job2, status = _run(_with_service(config, scenario))
        assert (job1.executed, job1.coalesced) == (2, 0)
        assert (job2.executed, job2.coalesced) == (0, 1)
        key = shared.cache_key()
        assert job2.results[key] == job1.results[key]
        assert status["executed"] == 2 and status["coalesced"] == 1

    def test_interactive_preempts_queued_bulk_tasks(self, monkeypatch):
        first, bulk_tail, shared = _task(0.01), _task(0.02), _task(0.03)
        config = ServiceConfig(jobs=1, use_processes=False)
        release = _gate_task(monkeypatch, first)

        async def scenario(service):
            order = []
            job1 = await service.submit([first, bulk_tail, shared], priority="bulk")
            await _let_dispatcher_start_one(service)
            # `first` is running (held at the gate) and must finish, never
            # be killed; `shared` is queued bulk and gets promoted by the
            # interactive join, so it dispatches before `bulk_tail`
            # despite arriving later.
            job2 = await service.submit([shared], priority="interactive")
            release.set()
            async for event in job1.stream():
                if event.kind == "task":
                    order.append(event.data["key"])
            await job2.wait()
            return order, job1, job2

        order, job1, job2 = _run(_with_service(config, scenario))
        assert order == [t.cache_key() for t in (first, shared, bulk_tail)]
        assert job1.executed == 3  # originator of all three
        assert (job2.executed, job2.coalesced) == (0, 1)

    def test_submit_validates_inputs(self):
        async def unknown_priority(service):
            await service.submit([_task(0.01)], priority="urgent")

        with pytest.raises(ValueError, match="unknown priority"):
            _run(_with_service(ServiceConfig(use_processes=False), unknown_priority))
        with pytest.raises(RuntimeError, match="not started"):
            _run(SweepService(ServiceConfig()).submit([_task(0.01)]))

    def test_worker_failure_fails_only_that_task(self, tmp_path, monkeypatch):
        good, bad = _task(0.01), _task(0.02)
        config = ServiceConfig(jobs=1, cache_dir=str(tmp_path), use_processes=False)
        real_execute = execute_task

        def flaky(task, *args, **kwargs):
            if task.cache_key() == bad.cache_key():
                raise RuntimeError("injected worker crash")
            return real_execute(task, *args, **kwargs)

        monkeypatch.setattr("repro.service.jobs.execute_task", flaky)

        async def scenario(service):
            job = await service.submit([good, bad])
            events = [event async for event in job.stream()]
            return job, events

        job, events = _run(_with_service(config, scenario))
        assert job.state.value == "failed"
        assert job.executed == 1 and job.failed == 1
        assert good.cache_key() in job.results
        kinds = [event.kind for event in events]
        assert kinds == ["accepted", "task", "task_failed", "failed"]
        assert "injected worker crash" in job.errors[bad.cache_key()]


# ----------------------------------------------------------------------
# Daemon subprocess: protocol, shared cache, kill + resume.
# ----------------------------------------------------------------------


def _daemon_env():
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _start_daemon(socket_path, *extra):
    return subprocess.Popen(
        [sys.executable, "-m", "repro.service", "--socket", str(socket_path), *extra],
        env=_daemon_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _wait_ready(socket_path, deadline=60.0):
    client = ServiceClient(str(socket_path))
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        try:
            if asyncio.run(client.ping()):
                return client
        except (OSError, ServiceError):
            time.sleep(0.05)
    raise AssertionError("daemon did not become ready")


@pytest.fixture
def daemon_dirs(tmp_path):
    return {
        "socket": tmp_path / "svc.sock",
        "cache": tmp_path / "cache",
        "ckpt": tmp_path / "ckpt",
    }


class TestServiceDaemon:
    def test_submit_twice_second_fully_cached(self, daemon_dirs):
        tasks = [_task(load) for load in (0.01, 0.02)]
        process = _start_daemon(
            daemon_dirs["socket"], "--cache-dir", str(daemon_dirs["cache"])
        )
        try:
            client = _wait_ready(daemon_dirs["socket"])
            first = asyncio.run(client.submit(tasks))
            assert (first["executed"], first["cached"]) == (2, 0)
            second = asyncio.run(client.submit(tasks))
            assert (second["executed"], second["cached"]) == (0, 2)
            assert second["results"] == first["results"]
            # The runner facade maps wire results back to task objects.
            runner = ServiceRunner(str(daemon_dirs["socket"]))
            summaries = runner.run(tasks)
            assert runner.tasks_executed == 0 and runner.cache_hits == 2
            assert {t.load for t in summaries} == {0.01, 0.02}
            status = asyncio.run(client.status())
            assert status["executed"] == 2 and status["cached"] == 4
            asyncio.run(client.shutdown())
            assert process.wait(timeout=30) == 0
            assert not daemon_dirs["socket"].exists()
        finally:
            if process.poll() is None:
                process.kill()

    def test_malformed_requests_get_error_replies(self, daemon_dirs):
        process = _start_daemon(daemon_dirs["socket"])
        try:
            client = _wait_ready(daemon_dirs["socket"])
            with pytest.raises(ServiceError, match="unknown op"):
                asyncio.run(client._roundtrip({"op": "dance"}))
            with pytest.raises(ServiceError, match="exactly one of"):
                asyncio.run(client._roundtrip({"op": "submit"}))
            with pytest.raises(ServiceError, match="priority"):
                asyncio.run(
                    client._roundtrip(
                        {
                            "op": "submit",
                            "tasks": [task_to_wire(_task(0.01))],
                            "priority": "urgent",
                        }
                    )
                )
            # The daemon survived every malformed request.
            assert asyncio.run(client.ping())
        finally:
            process.kill()
            process.wait(timeout=30)

    def test_kill_mid_task_then_resume_is_bit_identical(self, daemon_dirs):
        task = uniform_task(
            small_system_config(Architecture.WIRELESS),
            _Fidelity(cycles=12000, warmup_cycles=500, seed=7),
            load=0.002,
        )
        golden = execute_task(task)
        store = CheckpointStore(daemon_dirs["ckpt"])
        key = task.cache_key()

        daemon_args = (
            "--cache-dir", str(daemon_dirs["cache"]),
            "--checkpoint-every", "400",
            "--checkpoint-dir", str(daemon_dirs["ckpt"]),
        )
        process = _start_daemon(daemon_dirs["socket"], *daemon_args)
        try:
            client = _wait_ready(daemon_dirs["socket"])
            with ThreadPoolExecutor(max_workers=1) as pool:
                doomed = pool.submit(
                    lambda: asyncio.run(client.submit([task]))
                )
                end = time.monotonic() + 120
                while time.monotonic() < end and not store.path_for(key).exists():
                    time.sleep(0.05)
                assert store.path_for(key).exists(), "no checkpoint before deadline"
                process.send_signal(signal.SIGKILL)
                process.wait(timeout=30)
                with pytest.raises(ServiceError):
                    doomed.result(timeout=60)
            # The kill left a resumable checkpoint, not a completed cache
            # entry: the next daemon must resume, not recompute or serve
            # a stale result.
            assert store.path_for(key).exists()

            process = _start_daemon(daemon_dirs["socket"], *daemon_args)
            _wait_ready(daemon_dirs["socket"])
            results = submit_sync([task], str(daemon_dirs["socket"]), timeout=600)
            assert results[task].as_dict() == golden
            assert not store.path_for(key).exists()  # consumed on success
            asyncio.run(ServiceClient(str(daemon_dirs["socket"])).shutdown())
            assert process.wait(timeout=30) == 0
        finally:
            if process.poll() is None:
                process.kill()
