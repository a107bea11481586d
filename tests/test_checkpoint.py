"""Checkpoint/restore: bit-identical resume and the store.

The PR-8 contracts:

* **Golden resume matrix** — for ≥ 2 architectures × {uniform, faulted},
  a run checkpointed every N cycles and resumed from *any* of its
  checkpoints produces a result payload bit-identical to the
  uninterrupted run.  The faulted runs place checkpoints after fault
  events fired, while affected packets are still draining, so the
  injector's event cursor and the recovery routing state round-trip too.
  An application-traffic row does the same for the SynFull generator's
  burst counters, phase index and RNG.
* **Pool growth** — the packet pool grows between checkpoints and the
  later (larger-capacity) snapshots still resume bit-identically.
* **Arrivals in flight** — checkpoints that catch flits pending on
  multi-cycle links in several future cycles resume bit-identically.
* **Resume policy** — a payload that is not a pickled
  :class:`SimulationKernel` is a :class:`CheckpointError` on resume.
* **Store semantics** — atomic save/load round-trip, corrupt and
  version-mismatched files (including the previous schema's) fail loudly via :func:`load_checkpoint` but
  read as "no checkpoint" through :class:`CheckpointStore`, and
  :func:`execute_task` resumes from a planted checkpoint and deletes it
  on completion.
* **Crash resume** — a checkpointed :func:`repro.api.sweep` in a child
  process that is SIGKILLed mid-run leaves its checkpoint behind, and
  re-running the sweep resumes from it bit-identically and consumes it.
"""

from __future__ import annotations

import os
import pickle
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import pytest

import repro
from repro import api
from repro.core.config import Architecture
from repro.faults import create_fault_plan
from repro.metrics.saturation import LoadPointSummary
from repro.noc.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from repro.noc.kernel import KernelState, SimulationKernel
from repro.parallel import runner as runner_module
from repro.parallel.checkpoints import CheckpointStore
from repro.parallel.runner import (
    application_task,
    execute_task,
    task_simulator,
    uniform_task,
)
from repro.testing import small_system_config


@dataclass(frozen=True)
class _Fidelity:
    cycles: int = 400
    warmup_cycles: int = 100
    seed: int = 11


def _task(architecture, faults="none", cycles=400, load=0.05, seed=11):
    return uniform_task(
        small_system_config(architecture),
        _Fidelity(cycles=cycles, seed=seed),
        load=load,
        faults=faults,
        fault_rate=0.4 if faults != "none" else 0.0,
    )


def _payload(task, result):
    """Exactly the fingerprint :func:`execute_task` caches and serves."""
    if task.kind == "synthetic":
        offered = task.load
    else:
        offered = result.offered_load_packets_per_core_per_cycle
    return LoadPointSummary.from_result(offered, result).as_dict()


def _checkpointed_run(task, every, network=None):
    """Run ``task`` once, collecting a checkpoint every ``every`` cycles."""
    checkpoints = []
    simulator = task_simulator(task)
    simulator.network = network
    simulator.simulation_config = replace(
        simulator.simulation_config, checkpoint_every_cycles=every
    )
    simulator.checkpoint_sink = checkpoints.append
    result = simulator.run()
    return checkpoints, _payload(task, result)


def _resume(task, checkpoint):
    return _payload(task, task_simulator(task).run(resume_from=checkpoint))


# ----------------------------------------------------------------------
# Golden resume matrix: every checkpoint of every run resumes
# bit-identically, across architectures and fault modes.
# ----------------------------------------------------------------------


class TestGoldenResumeMatrix:
    @pytest.mark.parametrize(
        "architecture", (Architecture.SUBSTRATE, Architecture.WIRELESS)
    )
    @pytest.mark.parametrize("faults", ("none", "random-links"))
    def test_resume_from_every_checkpoint(self, architecture, faults):
        task = _task(architecture, faults=faults)
        baseline = _payload(task, task_simulator(task).run())
        checkpoints, checkpointed = _checkpointed_run(task, every=100)
        # Checkpointing itself must not perturb the run...
        assert checkpointed == baseline
        # ...and the final cycle is never checkpointed (the run is done).
        assert [c.cycle for c in checkpoints] == [99, 199, 299]
        for checkpoint in checkpoints:
            assert _resume(task, checkpoint) == baseline

    def test_application_traffic_resumes_from_every_checkpoint(self):
        """SynFull traffic round-trips its Markov state and RNG.

        The burst counters, the phase index and the generator's RNG live
        in the pickled traffic model; resuming from any checkpoint must
        continue the request stream exactly where the run left it.
        """
        task = application_task(
            small_system_config(Architecture.WIRELESS), _Fidelity(), "canneal"
        )
        baseline = _payload(task, task_simulator(task).run())
        checkpoints, checkpointed = _checkpointed_run(task, every=100)
        assert checkpointed == baseline
        assert [c.cycle for c in checkpoints] == [99, 199, 299]
        for checkpoint in checkpoints:
            assert _resume(task, checkpoint) == baseline

    def test_faulted_checkpoints_land_mid_drain(self):
        """The faulted matrix rows really do snapshot during fault events.

        ``random-links`` schedules its failures mid-run; with checkpoints
        every 100 cycles, at least one checkpoint must fall at or after
        the first fault event — i.e. while recovery routing is active and
        committed packets are still draining over the failed links.
        """
        task = _task(Architecture.SUBSTRATE, faults="random-links")
        simulator = task_simulator(task)
        plan = create_fault_plan(
            task.faults,
            simulator.topology,
            fault_rate=task.fault_rate,
            seed=task.fault_plan_seed(),
            cycles=task.cycles,
        )
        assert plan.events, "fault_rate=0.4 must schedule at least one failure"
        first_event = min(event.at_cycle for event in plan.events)
        checkpoints, _ = _checkpointed_run(task, every=100)
        assert any(c.cycle >= first_event for c in checkpoints)

    def test_pool_grows_between_checkpoints(self, monkeypatch):
        """Later snapshots carry a grown pool and still resume exactly.

        The production growth chunk (256 records) exceeds what this tiny
        system ever holds live, so the chunk is shrunk to force several
        amortised-doubling growths mid-run; results are independent of
        pool capacity, so the baseline stays comparable.
        """
        monkeypatch.setattr("repro.noc.pool._GROWTH_CHUNK", 8)
        task = _task(Architecture.SUBSTRATE, load=0.15)
        baseline = _payload(task, task_simulator(task).run())
        checkpoints, _ = _checkpointed_run(task, every=100)
        capacities = [
            pickle.loads(c.payload).state.pool.capacity for c in checkpoints
        ]
        assert capacities[-1] > capacities[0]
        grown = next(
            c
            for c, capacity in zip(checkpoints, capacities)
            if capacity > capacities[0]
        )
        assert _resume(task, grown) == baseline


class TestWheelRoundTrip:
    """The kernel's arrival calendar pickles mid-flight.

    A checkpoint lands at a cycle boundary, but flits already launched
    onto multi-cycle links are still pending in ``KernelState.arrivals``,
    keyed by their future delivery cycles.  Those snapshots must resume
    exactly: every pending ``(VC, flit)`` delivery round-trips with the
    VC it targets.
    """

    @staticmethod
    def _occupied_slots(checkpoint):
        arrivals = pickle.loads(checkpoint.payload).state.arrivals
        slots = sorted(cycle for cycle, due in arrivals.items() if due)
        assert all(cycle > checkpoint.cycle for cycle in slots)
        return slots

    def test_mid_flight_wheel_checkpoint_resumes_exactly(self):
        task = _task(Architecture.SUBSTRATE, load=0.08)
        baseline = _payload(task, task_simulator(task).run())
        checkpoints, checkpointed = _checkpointed_run(task, every=100)
        assert checkpointed == baseline
        in_flight = [c for c in checkpoints if len(self._occupied_slots(c)) >= 2]
        # The substrate's inter-chip links take several cycles, so under
        # this load some boundary must catch deliveries pending in at
        # least two distinct future cycles — otherwise this test would
        # only cover an empty calendar and pass vacuously.
        assert in_flight, "no checkpoint caught the arrival calendar mid-flight"
        for checkpoint in in_flight:
            assert _resume(task, checkpoint) == baseline


# ----------------------------------------------------------------------
# Resume policy.
# ----------------------------------------------------------------------


class TestEnginePolicy:
    """The simulation engine resumes only from a pickled kernel graph."""

    def test_state_restore_rejects_wrong_class(self):
        task = _task(Architecture.SUBSTRATE, cycles=200)
        checkpoint = _checkpointed_run(task, every=100)[0][0]
        kernel = SimulationKernel.resume(checkpoint)
        assert isinstance(kernel, SimulationKernel)
        assert isinstance(kernel.state, KernelState)
        # A snapshot of the bare state (or any other object) is not a
        # resumable run: both the kernel and the simulator refuse it.
        wrong = replace(checkpoint, payload=pickle.dumps(kernel.state))
        with pytest.raises(CheckpointError, match="holds a KernelState"):
            SimulationKernel.resume(wrong)
        with pytest.raises(CheckpointError, match="expected SimulationKernel"):
            task_simulator(task).run(resume_from=wrong)


# ----------------------------------------------------------------------
# On-disk format and the store.
# ----------------------------------------------------------------------


class TestCheckpointFiles:
    def _checkpoint(self):
        task = _task(Architecture.SUBSTRATE, cycles=200)
        return _checkpointed_run(task, every=100)[0][0]

    def test_save_load_round_trip(self, tmp_path):
        checkpoint = self._checkpoint()
        path = tmp_path / "run.ckpt"
        save_checkpoint(checkpoint, path)
        loaded = load_checkpoint(path)
        assert loaded == checkpoint

    def test_corrupt_file_raises(self, tmp_path):
        path = tmp_path / "run.ckpt"
        path.write_bytes(b"not a pickle")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_wrong_payload_type_raises(self, tmp_path):
        path = tmp_path / "run.ckpt"
        path.write_bytes(pickle.dumps({"surprise": True}))
        with pytest.raises(CheckpointError, match="dict"):
            load_checkpoint(path)

    def test_missing_module_raises_and_reads_as_cold_start(self, tmp_path):
        """A pickle naming a module this build lacks is a CheckpointError.

        Checkpoints written by an older build can reference modules that
        were since deleted; unpickling them raises ``ModuleNotFoundError``,
        which must not escape the typed error or the store's cold start.
        """
        store = CheckpointStore(tmp_path)
        path = store.path_for("stale")
        path.parent.mkdir(parents=True, exist_ok=True)
        # Protocol-0 GLOBAL opcode: ``repro_retired_module.Gone``, then STOP.
        path.write_bytes(b"crepro_retired_module\nGone\n.")
        with pytest.raises(CheckpointError, match="repro_retired_module"):
            load_checkpoint(path)
        assert store.load("stale") is None

    def test_version_mismatch_raises(self, tmp_path):
        """Older and newer schema files fail loudly but read as cold starts.

        v2 files also carry the retired ``engine`` field; unpickling
        tolerates it and the version check rejects them.
        """
        store = CheckpointStore(tmp_path)
        for version in (2, CHECKPOINT_SCHEMA_VERSION - 1, CHECKPOINT_SCHEMA_VERSION + 1):
            stale = replace(self._checkpoint(), version=version)
            if version == 2:
                object.__setattr__(stale, "engine", "scalar")
            path = tmp_path / f"v{version}.ckpt"
            save_checkpoint(stale, path)
            with pytest.raises(CheckpointError, match="schema"):
                load_checkpoint(path)
            assert store.load(f"v{version}") is None

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "absent.ckpt")

    def test_store_reads_damage_as_cold_start(self, tmp_path):
        store = CheckpointStore(tmp_path)
        assert store.load("missing") is None
        store.path_for("broken").parent.mkdir(parents=True, exist_ok=True)
        store.path_for("broken").write_bytes(b"truncated")
        assert store.load("broken") is None
        checkpoint = self._checkpoint()
        store.save("good", checkpoint)
        assert store.load("good") == checkpoint
        assert store.path_for("good").exists()
        store.discard("good")
        store.discard("good")  # idempotent
        assert not store.path_for("good").exists()
        assert store.path_for("broken").exists()


class TestExecuteTaskResume:
    def test_resumes_planted_checkpoint_and_discards_it(self, tmp_path):
        task = _task(Architecture.WIRELESS, cycles=300)
        baseline = execute_task(task)
        checkpoints, _ = _checkpointed_run(task, every=100)
        store = CheckpointStore(tmp_path)
        key = task.cache_key()
        store.save(key, checkpoints[-1])
        payload = execute_task(
            task, checkpoint_every=100, checkpoint_dir=str(tmp_path)
        )
        assert payload == baseline
        assert not store.path_for(key).exists()

    def test_memo_served_run_resumes_bit_identically(self, tmp_path):
        """Checkpoints of a run on a reused system and network resume exactly.

        The memo serves the task the network an earlier, congested task
        left mid-flight, and the router that task warmed.  Checkpointing
        the run must not perturb it, and each checkpoint must resume
        through :func:`execute_task` to the payload of a fresh build.
        """
        task = _task(Architecture.WIRELESS, cycles=300)
        runner_module._BUILD_MEMO.clear()
        baseline = execute_task(task)
        execute_task(_task(Architecture.WIRELESS, cycles=300, load=0.4, seed=5))
        system = runner_module._BUILD_MEMO.system(task.effective_config())
        assert system.router._cache, "the earlier task must have warmed the router"
        network = runner_module._BUILD_MEMO.network(system.topology, system.config.network)
        checkpoints, checkpointed = _checkpointed_run(task, every=100, network=network)
        assert checkpointed == baseline
        store = CheckpointStore(tmp_path)
        key = task.cache_key()
        for checkpoint in checkpoints:
            store.save(key, checkpoint)
            payload = execute_task(task, checkpoint_every=100, checkpoint_dir=str(tmp_path))
            assert payload == baseline
            assert not store.path_for(key).exists()

    def test_cold_starts_over_corrupt_checkpoint(self, tmp_path):
        task = _task(Architecture.WIRELESS, cycles=300)
        baseline = execute_task(task)
        store = CheckpointStore(tmp_path)
        key = task.cache_key()
        store.path_for(key).parent.mkdir(parents=True, exist_ok=True)
        store.path_for(key).write_bytes(b"damaged by a previous crash")
        payload = execute_task(
            task, checkpoint_every=100, checkpoint_dir=str(tmp_path)
        )
        assert payload == baseline
        assert not store.path_for(key).exists()

    def test_sigkill_mid_run_resumes_bit_identically(self, tmp_path):
        # Long enough that the kill always lands mid-run: the first
        # checkpoint is written at cycle 400 of 12 000, about two seconds
        # before the run would finish.
        task = _task(Architecture.WIRELESS, cycles=12000)
        store = CheckpointStore(tmp_path / "ckpt")
        key = task.cache_key()
        knobs = {"checkpoint_every_cycles": 400, "checkpoint_dir": str(store.directory)}
        (tmp_path / "task.pickle").write_bytes(pickle.dumps(task))
        script = (
            "import pickle, sys\n"
            "from repro import api\n"
            "task = pickle.loads(open(sys.argv[1], 'rb').read())\n"
            f"api.sweep([task], **{knobs!r})\n"
        )
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        child = subprocess.Popen(
            [sys.executable, "-c", script, str(tmp_path / "task.pickle")],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        try:
            deadline = time.monotonic() + 120
            while not store.path_for(key).exists():
                assert child.poll() is None, child.stderr.read().decode()
                assert time.monotonic() < deadline, "no checkpoint before deadline"
                time.sleep(0.02)
            child.send_signal(signal.SIGKILL)
            assert child.wait(timeout=30) == -signal.SIGKILL
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
            child.stderr.close()
        # The kill left a resumable checkpoint, not a finished run.
        assert store.load(key) is not None

        resumed = api.sweep([task], **knobs)
        assert resumed[task].as_dict() == execute_task(task)
        assert not store.path_for(key).exists()  # consumed on success
