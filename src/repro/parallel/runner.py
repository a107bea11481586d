"""Parallel experiment orchestration: tasks, caching, and the runner.

Every figure experiment decomposes into *independent, deterministically
seeded simulation tasks* — one cycle-accurate run of one system
configuration under one traffic setting and one fault scenario
(architecture × load point, architecture × application, or — for the fig7
resilience sweep — architecture × fault rate).  This module defines that task unit
(:class:`SimulationTask`), executes batches of tasks through
:func:`repro.parallel.executor.run_tasks` (inline or across a process
pool), and memoises each task's result as JSON in a
:class:`repro.parallel.cache.ResultCache` keyed by a content hash of the
full task description.

Guarantees:

* **Determinism** — a task's result depends only on its content (config,
  run length, traffic parameters, seed), never on scheduling.  Running with
  ``jobs=8`` therefore produces bit-identical figures to ``jobs=1``.
* **Incremental re-runs** — the cache key covers everything that affects
  the result, so re-running a figure (or upgrading fidelity, which changes
  run lengths and therefore keys) only simulates tasks not yet on disk.

Task lists come from the scenario compiler
(:func:`repro.scenario.compile_scenario`), which builds every task with
:func:`uniform_task` / :func:`application_task`; each figure module
compiles its built-in scenario document and executes the list in one
batch via :class:`ExperimentRunner`.

This module is the execution layer behind the :mod:`repro.api` facade.
"""

from __future__ import annotations

import sys
import time
from collections import OrderedDict
from dataclasses import dataclass, replace
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from ..core import framework
from ..core.architectures import BuiltSystem
from ..core.config import SystemConfig
from ..faults.scenarios import (
    FAULT_SCENARIOS,
    UnknownScenarioError,
    available_fault_scenarios,
    create_fault_plan,
)
from ..metrics.report import format_simulator_throughput, format_table
from ..metrics.saturation import LoadPointSummary
from ..noc import engine
from ..noc.config import NetworkConfig
from ..noc.engine import SimulationConfig
from ..noc.network import Network
from ..topology.graph import TopologyGraph
from ..traffic.registry import pattern_factory
from ..traffic.rng import derive_seed
from ..wireless.mac.registry import mac_spec
from .cache import ResultCache
from .executor import run_tasks
from .hashing import stable_hash

__all__ = [
    "BuildMemo",
    "DEFAULT_CACHE_DIR",
    "ExperimentRunner",
    "SimulationTask",
    "TASK_SCHEMA_VERSION",
    "application_task",
    "execute_task",
    "execute_task_batch",
    "task_simulator",
    "uniform_task",
]

#: Bump when the payload schema or simulation semantics change, so stale
#: cache entries from older code versions are never reused.
#: v3: fault-injection fields (``faults``, ``fault_rate``) joined the task
#: and the cached payload gained the resilience counters.
#: v4: the wireless MAC protocol override (``mac``) joined the task — the
#: experiment CLI's ``--mac`` flag and the fig8 MAC study sweep it — so a
#: task's cache key now pins the arbitration protocol explicitly.
#: v5: the declarative scenario layer (:mod:`repro.scenario`) compiles
#: specs into these same tasks; the bump fences off pre-scenario cache
#: entries so a spec run and its CLI-flag equivalent provably share
#: entries written under one schema.
#: v6: an execution-engine choice briefly joined the runner.  It was never
#: part of the task content or the cache key (every engine was
#: bit-identical), and with one kernel left the v6 entries stay valid as
#: they are.
TASK_SCHEMA_VERSION = 6

#: Default on-disk location of the per-task result cache (relative to the
#: working directory; see EXPERIMENTS.md).
DEFAULT_CACHE_DIR = ".repro-cache"


@dataclass(frozen=True)
class SimulationTask:
    """One independent, deterministically seeded simulation.

    ``kind`` selects the traffic model: ``"synthetic"`` runs one registered
    traffic pattern (``pattern``, see :mod:`repro.traffic.registry`; the
    default is uniform random traffic) at offered load ``load`` with the
    given memory-access fraction; ``"application"`` runs one PARSEC/SPLASH-2
    profile (``application``) scaled by ``rate_scale``.

    ``faults`` names a registered fault scenario
    (:mod:`repro.faults.scenarios`) applied to the run at severity
    ``fault_rate``; the fault plan's seed is derived from the task seed, so
    the injected faults are part of the task's deterministic content.  The
    default ``"none"`` runs the pristine fabric and is bit-identical to a
    pre-fault-subsystem task.

    ``mac`` overrides the wireless MAC protocol of the task's system
    configuration with any name from the MAC registry
    (:mod:`repro.wireless.mac.registry`); the empty default keeps the
    configuration's own protocol.  On wired architectures the override is
    inert (there is no wireless fabric to arbitrate) but still part of the
    cache key.  Instances are frozen (usable as dict keys) and picklable
    (shippable to worker processes).
    """

    kind: str
    config: SystemConfig
    cycles: int
    warmup_cycles: int
    seed: int
    memory_access_fraction: float = 0.2
    load: float = 0.0
    application: str = ""
    rate_scale: float = 1.0
    pattern: str = "uniform"
    faults: str = "none"
    fault_rate: float = 0.0
    mac: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("synthetic", "application"):
            raise ValueError(f"unknown task kind {self.kind!r}")
        if self.kind == "synthetic":
            if self.load < 0:
                raise ValueError("synthetic tasks need a non-negative offered load")
            if not self.pattern:
                raise ValueError("synthetic tasks need a traffic pattern name")
            pattern_factory(self.pattern)  # raises UnknownPatternError early
        if self.kind == "application" and not self.application:
            raise ValueError("application tasks need an application name")
        if self.faults not in FAULT_SCENARIOS:
            known = ", ".join(available_fault_scenarios())
            raise UnknownScenarioError(
                f"unknown fault scenario {self.faults!r}; known scenarios: {known}"
            )
        if not 0.0 <= self.fault_rate <= 1.0:
            raise ValueError("fault_rate must be in [0, 1]")
        if self.mac:
            mac_spec(self.mac)  # raises UnknownMacError early

    @property
    def label(self) -> str:
        """Short human-readable description (used in progress output)."""
        if self.kind == "synthetic":
            detail = f"load={self.load:g} mem={self.memory_access_fraction:g}"
            if self.pattern != "uniform":
                detail = f"pattern={self.pattern} {detail}"
        else:
            detail = f"app={self.application}"
        if self.mac:
            detail = f"{detail} mac={self.mac}"
        if self.faults != "none":
            detail = f"{detail} faults={self.faults}@{self.fault_rate:g}"
        return f"{self.config.name} {detail}"

    def cache_key(self) -> str:
        """Stable content hash identifying this task's result.

        Covers the schema version, the full system configuration and every
        traffic/run-length/fault parameter, so any change that could change
        the simulation output changes the key.
        """
        return stable_hash(
            {
                "version": TASK_SCHEMA_VERSION,
                "kind": self.kind,
                "config": self.config,
                "cycles": self.cycles,
                "warmup_cycles": self.warmup_cycles,
                "seed": self.seed,
                "memory_access_fraction": self.memory_access_fraction,
                "load": self.load,
                "application": self.application,
                "rate_scale": self.rate_scale,
                "pattern": self.pattern,
                "faults": self.faults,
                "fault_rate": self.fault_rate,
                "mac": self.mac,
            }
        )

    def fault_plan_seed(self) -> int:
        """Seed of this task's fault plan, derived from the task seed."""
        return derive_seed(self.seed, "faults", self.faults, self.fault_rate)

    def with_seed(self, seed: int) -> "SimulationTask":
        """The same task with a different RNG seed."""
        return replace(self, seed=seed)

    def effective_config(self) -> SystemConfig:
        """The system configuration with the MAC override applied."""
        if not self.mac or self.config.network.wireless.mac == self.mac:
            return self.config
        return self.config.with_wireless(mac=self.mac)


def uniform_task(
    config: SystemConfig,
    fidelity,
    load: float,
    memory_access_fraction: float = 0.2,
    seed: Optional[int] = None,
    pattern: str = "uniform",
    faults: str = "none",
    fault_rate: float = 0.0,
    mac: str = "",
) -> SimulationTask:
    """One synthetic-traffic task at one offered load.

    ``fidelity`` is any object with ``cycles``, ``warmup_cycles`` and
    ``seed`` attributes (normally a :class:`repro.scenario.fidelity.Fidelity`).
    ``pattern`` selects any registered traffic pattern (default: uniform
    random traffic, the paper's synthetic workload); ``faults`` /
    ``fault_rate`` select a registered fault scenario and its severity;
    ``mac`` overrides the wireless MAC protocol by registered name.
    """
    return SimulationTask(
        kind="synthetic",
        config=config,
        cycles=fidelity.cycles,
        warmup_cycles=fidelity.warmup_cycles,
        seed=fidelity.seed if seed is None else seed,
        memory_access_fraction=memory_access_fraction,
        load=load,
        pattern=pattern,
        faults=faults,
        fault_rate=fault_rate,
        mac=mac,
    )


def application_task(
    config: SystemConfig,
    fidelity,
    application: str,
    rate_scale: Optional[float] = None,
    seed: Optional[int] = None,
    faults: str = "none",
    fault_rate: float = 0.0,
) -> SimulationTask:
    """One application-traffic (SynFull-substitute) task."""
    if rate_scale is None:
        rate_scale = getattr(fidelity, "application_rate_scale", 1.0)
    return SimulationTask(
        kind="application",
        config=config,
        cycles=fidelity.cycles,
        warmup_cycles=fidelity.warmup_cycles,
        seed=fidelity.seed if seed is None else seed,
        application=application,
        rate_scale=rate_scale,
        faults=faults,
        fault_rate=fault_rate,
    )


#: The ``network`` field every topology key carries: :func:`build_system`
#: never reads it, so configs differing only there share one topology.
_ANY_NETWORK = NetworkConfig()


class BuildMemo:
    """Bounded memo of built systems and their networks, for one process.

    A figure simulates a few systems at many loads, so consecutive tasks
    mostly share a system.  The memo keeps the :attr:`SYSTEMS` most recently
    used built systems (topology plus router, with the router's warm route
    and forest caches) and the :attr:`NETWORKS` most recently used
    networks, and hands them out again instead of rebuilding.  Systems are
    keyed by the configuration without its ``network`` field, which
    :func:`build_system` never reads; networks by the system's topology and
    :meth:`Network.build_key` of the network configuration, the fields the
    network's constructor reads.  So configurations that differ only in
    the wireless fabric (MAC, channel count, sleepy receivers) share one
    network: the simulator resets it to the run's configuration, which
    builds that run's wireless fabric.  A faulted run restores the topology
    and router it mutated, so a served object is indistinguishable from a
    fresh build (``tests/test_build_memo.py``).

    Builds go through ``framework.build_system`` and ``engine.Network``,
    looked up at call time.  The least recently used entry is evicted before
    a build, and an evicted network is disposed of, so reference counting
    frees it at once.
    """

    #: Entries kept of each kind.  Two catch the reuse of every figure:
    #: tasks arrive grouped by configuration, and the interleaved ones
    #: (fig5, fig6) alternate between two.  A sweeps regeneration then
    #: builds 10 systems and 12 networks for its 100 tasks (3 of them for
    #: fig8's 48), against 7 and 9 with no bound at all.
    SYSTEMS = 2
    NETWORKS = 2

    def __init__(self) -> None:
        self._systems: "OrderedDict[SystemConfig, BuiltSystem]" = OrderedDict()
        self._networks: "OrderedDict[Tuple[TopologyGraph, Tuple], Network]" = OrderedDict()

    def system(self, config: SystemConfig) -> BuiltSystem:
        """The built system of ``config``.

        It carries ``config`` itself, because a simulation reads its network
        configuration from there.
        """
        key = replace(config, network=_ANY_NETWORK)
        built = self._systems.get(key)
        if built is None:
            if len(self._systems) >= self.SYSTEMS:
                _, evicted = self._systems.popitem(last=False)
                for stale in [k for k in self._networks if k[0] is evicted.topology]:
                    self._networks.pop(stale).dispose()
            built = framework.build_system(config)
            self._systems[key] = built
        else:
            self._systems.move_to_end(key)
        return BuiltSystem(config=config, multichip=built.multichip, router=built.router)

    def network(self, topology: TopologyGraph, config: NetworkConfig) -> Network:
        """A network on ``topology`` (a memoised system's) for ``config``.

        The network is shared with later tasks whose configurations have
        the same :meth:`Network.build_key`: the caller runs it through a
        :class:`~repro.noc.engine.Simulator`, which resets it to ``config``
        first, and keeps it no longer than that run.
        """
        key = (topology, Network.build_key(config))
        network = self._networks.get(key)
        if network is None:
            if len(self._networks) >= self.NETWORKS:
                self._networks.popitem(last=False)[1].dispose()
            network = engine.Network(topology, config)
            self._networks[key] = network
        else:
            self._networks.move_to_end(key)
        return network

    def clear(self) -> None:
        """Drop every memoised system and network."""
        self._systems.clear()
        while self._networks:
            self._networks.popitem()[1].dispose()


#: The memo behind :func:`task_simulator` and :func:`execute_task`.
_BUILD_MEMO = BuildMemo()


def task_simulator(task: SimulationTask, profile: bool = False):
    """Build (but do not run) the fully wired simulator of one task.

    The single construction path behind :func:`execute_task`: the system
    of the task's effective configuration comes from the process's
    :class:`BuildMemo`, the fault plan (if any) is derived from the task
    seed, and the traffic model is resolved through the traffic registry —
    exactly as a figure run would.  The simulator builds a fresh network
    when run; :func:`execute_task` hands it a memoised one instead.  The
    scenario fuzzer runs it directly to read counters the cached summary
    does not carry.
    """
    system = _BUILD_MEMO.system(task.effective_config())
    simulation = framework.MultichipSimulation(
        system,
        SimulationConfig(
            cycles=task.cycles,
            warmup_cycles=task.warmup_cycles,
            profile_phases=profile,
        ),
    )
    fault_plan = None
    if task.faults != "none":
        fault_plan = create_fault_plan(
            task.faults,
            simulation.system.topology,
            fault_rate=task.fault_rate,
            seed=task.fault_plan_seed(),
            cycles=task.cycles,
        )
    if task.kind == "synthetic":
        traffic = simulation.pattern_traffic(
            task.pattern,
            injection_rate=task.load,
            memory_access_fraction=task.memory_access_fraction,
            seed=task.seed,
        )
    else:
        traffic = simulation.application_traffic(
            task.application, rate_scale=task.rate_scale, seed=task.seed
        )
    return simulation.simulator_for(traffic, fault_plan=fault_plan)


def execute_task(task: SimulationTask, profile: bool = False) -> Dict[str, object]:
    """Run one task and return its JSON-serialisable result payload.

    This is the function shipped to worker processes; it takes the system
    and network for the task's configuration from the process's
    :class:`BuildMemo`, runs the cycle-accurate simulator, and summarises
    the run as a :class:`repro.metrics.saturation.LoadPointSummary` dict.  With
    ``profile`` set the kernel times each phase and the payload carries a
    ``phase_seconds`` entry (the CLI's ``--profile`` table; profiled runs
    bypass the result cache, so the timings always come from real work).
    """
    simulator = task_simulator(task, profile=profile)
    simulator.network = _BUILD_MEMO.network(simulator.topology, simulator.network_config)
    result = simulator.run()
    if task.kind == "synthetic":
        offered = task.load
    else:
        offered = result.offered_load_packets_per_core_per_cycle
    payload = LoadPointSummary.from_result(offered, result).as_dict()
    if profile:
        # Extra key; LoadPointSummary.from_dict ignores unknown fields.
        payload["phase_seconds"] = dict(result.phase_seconds)
    return payload


def execute_task_batch(
    tasks: Sequence[SimulationTask], profile: bool = False
) -> List[Dict[str, object]]:
    """Run a batch of tasks one after another; payloads in task order."""
    return [execute_task(task, profile) for task in tasks]


class ExperimentRunner:
    """Executes batches of simulation tasks with caching and parallelism.

    Parameters
    ----------
    jobs:
        Maximum worker processes; ``1`` (the default) runs everything
        inline.  Results are bit-identical at any value.
    cache_dir:
        Directory of the per-task JSON result cache; ``None`` (the CLI's
        ``--no-cache``) disables caching entirely: the cache is neither
        read nor written.
    show_progress:
        When ``True``, prints a one-line progress update to stderr after
        each task completes.

    The counters ``cache_hits``, ``cache_misses`` and ``tasks_executed``
    accumulate across :meth:`run` calls and back the CLI's summary line,
    as do ``wall_clock_seconds`` and ``simulated_cycles`` (the simulator
    self-throughput report; orchestration-side, so cached and parallel
    results stay bit-identical to serial ones).
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: Optional[str] = None,
        show_progress: bool = False,
        profile: bool = False,
    ) -> None:
        self.jobs = max(1, int(jobs))
        #: Per-phase kernel profiling (the CLI's ``--profile``): every task
        #: runs with phase timing enabled and the per-task timings are
        #: accumulated into :attr:`phase_seconds`.  Profiling bypasses the
        #: result cache in both directions — cached payloads carry no
        #: timings, and timed payloads must come from real simulation work.
        self.profile = profile
        self.cache: Optional[ResultCache] = (
            ResultCache(cache_dir) if (cache_dir and not profile) else None
        )
        self.show_progress = show_progress
        self.cache_hits = 0
        self.cache_misses = 0
        self.tasks_executed = 0
        self.wall_clock_seconds = 0.0
        self.simulated_cycles = 0
        self.phase_seconds: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------

    def run(
        self, tasks: Sequence[SimulationTask]
    ) -> Dict[SimulationTask, LoadPointSummary]:
        """Execute every distinct task and return task → result summary.

        Cached tasks are served from disk; the rest are executed (in
        parallel when ``jobs > 1``) and each is written to the cache as it
        finishes, so a killed run loses only the tasks still running and a
        rerun serves the finished ones from the cache.  Duplicate tasks in
        ``tasks`` are executed once.
        """
        unique: List[SimulationTask] = []
        seen = set()
        for task in tasks:
            if task not in seen:
                seen.add(task)
                unique.append(task)

        results: Dict[SimulationTask, LoadPointSummary] = {}
        pending: List[SimulationTask] = []
        for task in unique:
            summary = self._cached_summary(task)
            if summary is not None:
                results[task] = summary
                self.cache_hits += 1
            else:
                pending.append(task)
        self.cache_misses += len(pending)

        if self.show_progress and unique:
            self._progress_line(
                0, len(pending), f"{len(unique)} tasks, {len(unique) - len(pending)} cached"
            )

        finished: Dict[SimulationTask, LoadPointSummary] = {}

        def on_batch_done(done: int, total: int, batch, payloads) -> None:
            # Called in this process as each batch completes, at any jobs.
            for task, payload in zip(batch, payloads):
                for name, seconds in payload.get("phase_seconds", {}).items():
                    self.phase_seconds[name] = self.phase_seconds.get(name, 0.0) + seconds
                summary = LoadPointSummary.from_dict(payload)
                finished[task] = summary
                if self.cache is not None:
                    # The summary's own dict, not the payload, so a key
                    # a wrapper adds to the payload never reaches the disk.
                    self.cache.put(
                        task.cache_key(),
                        {
                            "version": TASK_SCHEMA_VERSION,
                            "label": task.label,
                            "result": summary.as_dict(),
                        },
                    )
            if self.show_progress:
                self._progress_line(done, total, batch[0].label)

        # One task per pool item, so workers pick up work task by task.
        # ``execute_task_batch`` is looked up here, at call time.
        started = time.perf_counter()
        run_tasks(
            partial(execute_task_batch, profile=self.profile),
            [[task] for task in pending],
            jobs=self.jobs,
            progress=on_batch_done,
        )
        if pending:
            self.wall_clock_seconds += time.perf_counter() - started
            self.simulated_cycles += sum(task.cycles for task in pending)
        for task in pending:
            results[task] = finished[task]
        self.tasks_executed += len(pending)
        return results

    def _cached_summary(self, task: SimulationTask) -> Optional[LoadPointSummary]:
        """The cached result of ``task``, or ``None`` on any kind of miss.

        A wrong-shaped entry (hand-edited file, schema drift) is a miss —
        the task is simply recomputed and the entry overwritten — never an
        error that aborts the experiment.
        """
        if self.cache is None:
            return None
        payload = self.cache.get(task.cache_key())
        if not payload or not isinstance(payload.get("result"), dict):
            return None
        try:
            return LoadPointSummary.from_dict(payload["result"])
        except (TypeError, ValueError):
            return None

    # ------------------------------------------------------------------
    # Reporting.
    # ------------------------------------------------------------------

    def summary_line(self) -> str:
        """One-line execution summary for CLI output."""
        line = (
            f"{self.tasks_executed} task(s) simulated, "
            f"{self.cache_hits} served from cache "
            f"(jobs={self.jobs}, cache={'on' if self.cache is not None else 'off'})"
        )
        throughput = self.throughput_line()
        if throughput:
            line = f"{line}\n[runner] {throughput}"
        return line

    def phase_report(self) -> str:
        """Aggregated per-phase wall-clock table of the profiled tasks.

        Seconds are summed over every executed task (across worker
        processes when ``jobs > 1``), so the share column attributes the
        simulation cost to kernel phases regardless of parallelism.
        """
        if not self.phase_seconds:
            return "no phase timings recorded (run with profiling enabled)"
        total = sum(self.phase_seconds.values())
        rows = []
        for name, seconds in sorted(self.phase_seconds.items(), key=lambda item: -item[1]):
            share = seconds / total if total > 0 else 0.0
            rows.append([name, f"{seconds:.3f}", f"{share:.1%}"])
        rows.append(["total", f"{total:.3f}", "100.0%"])
        return format_table(["Kernel phase", "seconds", "share"], rows)

    def throughput_line(self) -> Optional[str]:
        """Simulator self-throughput over the executed (uncached) tasks.

        Cycles are summed across all tasks while the wall clock is the
        batch interval, so with ``jobs > 1`` this is *aggregate* (all
        workers combined) throughput — the line says so, to keep it from
        reading as a per-kernel speedup.
        """
        if self.wall_clock_seconds <= 0 or not self.simulated_cycles:
            return None
        line = format_simulator_throughput(
            self.simulated_cycles, self.wall_clock_seconds, tasks=self.tasks_executed
        )
        if self.jobs > 1:
            line += f" [aggregate across {self.jobs} workers]"
        return line

    @staticmethod
    def _progress_line(done: int, total: int, detail: str) -> None:
        print(f"[runner] {done}/{total} {detail}", file=sys.stderr, flush=True)
