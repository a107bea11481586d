"""Per-layer timing of one traced regeneration.

:class:`Tracer` wraps public functions of each layer at the name its caller
looks up, records every wrapped call as a span, and restores every original
afterwards.  A span's *self time* is its duration minus the durations of the
spans it directly encloses, so the self times of all layers plus
``trace.unattributed_s`` add up to the traced wall-clock time.

The kernel phases are timed by the kernel itself: the tracer turns on its
``profile_phases`` switch by wrapping ``repro.parallel.runner.task_simulator``
with ``profile=True``.  (The runner's own ``profile=True`` mode bypasses the
result cache and would change the workload.)  A phase's self time is its
``phase_seconds`` entry minus the spans nested in it: route lookups of new
packets run in the generation phase, and fault application and recovery
run in the faults phase.

Pool workers started by ``fork`` inherit the wrappers.  Each worker times its
batch afresh and ships the totals back on the batch's first payload; the
parent strips them before the runner sees the payloads.
"""

from __future__ import annotations

import os
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

KERNEL_PHASES = ("arrival", "generation", "injection", "fabric", "allocation", "faults")

#: Spans nested in a kernel phase: their time comes off that phase's self time.
_NESTED_IN_PHASE = {"routing.route_s": "generation", "faults.reroute_s": "faults"}

_WORKER_KEY = "_e2e_worker_trace"

#: Per-layer metrics and their units, in report order.
UNITS: Dict[str, str] = {
    "scenario.compile_s": "s",
    "parallel.tasks_executed": "count",
    "parallel.cache_hits": "count",
    "parallel.cache_hit_ratio": "ratio",
    "parallel.hash_s": "s",
    "parallel.cache_get_s": "s",
    "parallel.cache_put_s": "s",
    "parallel.run_tasks_s": "s",
    "parallel.execute_s": "s",
    "parallel.efficiency": "ratio",
    "core.build_system_s": "s",
    "traffic.build_s": "s",
    "faults.plan_s": "s",
    "faults.recover_s": "s",
    "faults.reroute_s": "s",
    "faults.recoveries": "count",
    "routing.route_calls": "count",
    "routing.route_s": "s",
    "routing.audit_s": "s",
    "noc.network_build_s": "s",
    "noc.simulate_s": "s",
    "noc.settle_s": "s",
    "noc.flit_hops": "count",
    "noc.us_per_flit_hop": "us",
    **{f"kernel.{phase}_s": "s" for phase in KERNEL_PHASES},
    "metrics.summary_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_s": "s",
}


class Tracer:
    """Span recorder for one traced pass; see the module docstring."""

    def __init__(self) -> None:
        self._pid = os.getpid()
        self._stack: List[Dict[str, float]] = []
        self._saved: List[Tuple[object, str, object]] = []
        #: Self seconds per metric, recorded in this process.
        self.seconds: Dict[str, float] = defaultdict(float)
        #: Self seconds per metric, shipped back by pool workers.
        self.worker_seconds: Dict[str, float] = defaultdict(float)
        #: Counts, plus the totals the derived metrics need (keys with "_").
        self.counts: Dict[str, float] = defaultdict(float)

    # ------------------------------------------------------------------
    # Spans.
    # ------------------------------------------------------------------

    def _call(self, metric: str, function: Callable, args, kwargs, split=None):
        children: Dict[str, float] = defaultdict(float)
        self._stack.append(children)
        started = perf_counter()
        try:
            result = function(*args, **kwargs)
        finally:
            total = perf_counter() - started
            self._stack.pop()
            if self._stack:
                self._stack[-1][metric] += total
        if split is None:
            self.seconds[metric] += total - sum(children.values())
        else:
            split(result, total, children)
        return result

    def _span(self, metric: str, count: Optional[str] = None, split=None):
        def wrap(original: Callable) -> Callable:
            @wraps(original)
            def wrapper(*args, **kwargs):
                if count is not None:
                    self.counts[count] += 1
                return self._call(metric, original, args, kwargs, split)

            return wrapper

        return wrap

    def _split_simulation(self, result, total: float, children: Dict[str, float]) -> None:
        """Divide one ``Simulator.run`` among network build, kernel and settle."""
        phases = {phase: result.phase_seconds.get(phase, 0.0) for phase in KERNEL_PHASES}
        nested = {phase: 0.0 for phase in KERNEL_PHASES}
        for metric, phase in _NESTED_IN_PHASE.items():
            nested[phase] += children.get(metric, 0.0)
        for phase in KERNEL_PHASES:
            self.seconds[f"kernel.{phase}_s"] += phases[phase] - nested[phase]
        network = children.get("noc.network_build_s", 0.0)
        wall = result.wall_clock_seconds
        # Spans the kernel ran outside any known phase come off its loop time.
        other = sum(children.values()) - network - sum(nested.values())
        self.seconds["noc.simulate_s"] += wall - sum(phases.values()) - other
        self.seconds["noc.settle_s"] += total - wall - network
        self.counts["noc.flit_hops"] += result.flit_hops
        self.counts["_flit_clock_s"] += wall - phases["faults"]

    def _profiled(self, original: Callable) -> Callable:
        @wraps(original)
        def task_simulator(task, profile=False, **kwargs):
            return self._call("core.build_system_s", original, (task,), dict(kwargs, profile=True))

        return task_simulator

    def _batch(self, original: Callable) -> Callable:
        @wraps(original)
        def execute_task_batch(tasks, *args, **kwargs):
            in_worker = os.getpid() != self._pid
            if in_worker:
                # A forked worker inherits the parent's totals and open spans.
                self._stack = []
                self.seconds = defaultdict(float)
                self.counts = defaultdict(float)
            started = perf_counter()
            payloads = self._call("parallel.execute_s", original, (tasks, *args), kwargs)
            self.counts["_busy_s"] += perf_counter() - started
            if in_worker and payloads:
                shipped = {"seconds": dict(self.seconds), "counts": dict(self.counts)}
                payloads[0][_WORKER_KEY] = shipped
            return payloads

        return execute_task_batch

    def _run_tasks(self, original: Callable) -> Callable:
        @wraps(original)
        def run_tasks(*args, **kwargs):
            started = perf_counter()
            results = self._call("parallel.run_tasks_s", original, args, kwargs)
            self.counts["_run_tasks_wall_s"] += perf_counter() - started
            for payloads in results:
                shipped = payloads[0].pop(_WORKER_KEY, None) if payloads else None
                if shipped:
                    for metric, seconds in shipped["seconds"].items():
                        self.worker_seconds[metric] += seconds
                    for name, value in shipped["counts"].items():
                        self.counts[name] += value
            return results

        return run_tasks

    # ------------------------------------------------------------------
    # Installation.
    # ------------------------------------------------------------------

    def targets(self) -> List[Tuple[object, str, Callable[[Callable], Callable]]]:
        """Every ``(owner, attribute, wrapper factory)`` the tracer installs."""
        import repro.scenario
        from repro.core import framework
        from repro.faults import injector, recovery
        from repro.metrics.saturation import LoadPointSummary
        from repro.noc import engine
        from repro.parallel import runner
        from repro.parallel.cache import ResultCache
        from repro.routing.base import BaseRouter

        routers, frontier = [], [BaseRouter]
        while frontier:
            cls = frontier.pop()
            frontier.extend(cls.__subclasses__())
            if "route" in vars(cls):
                routers.append(cls)
        return [
            (repro.scenario, "compile_scenario", self._span("scenario.compile_s")),
            (runner.SimulationTask, "cache_key", self._span("parallel.hash_s")),
            (ResultCache, "get", self._span("parallel.cache_get_s")),
            (ResultCache, "put", self._span("parallel.cache_put_s")),
            (runner, "run_tasks", self._run_tasks),
            (runner, "execute_task_batch", self._batch),
            (runner, "task_simulator", self._profiled),
            (framework, "build_system", self._span("core.build_system_s")),
            (framework.MultichipSimulation, "pattern_traffic", self._span("traffic.build_s")),
            (framework.MultichipSimulation, "application_traffic", self._span("traffic.build_s")),
            (runner, "create_fault_plan", self._span("faults.plan_s")),
            (injector, "recover_routing", self._span("faults.recover_s", "faults.recoveries")),
            (injector.FaultInjector, "advance", self._span("faults.reroute_s")),
            *[
                (cls, "route", self._span("routing.route_s", "routing.route_calls"))
                for cls in routers
            ],
            (recovery, "find_channel_dependency_cycle", self._span("routing.audit_s")),
            (engine, "Network", self._span("noc.network_build_s")),
            (engine.Simulator, "run", self._span("noc.simulate_s", split=self._split_simulation)),
            (LoadPointSummary, "from_result", self._span("metrics.summary_s")),
            (LoadPointSummary, "from_dict", self._span("metrics.summary_s")),
        ]

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Install every wrapper for the ``with`` block, then restore the originals."""
        try:
            for owner, name, wrap in self.targets():
                raw = vars(owner)[name]
                self._saved.append((owner, name, raw))
                if isinstance(raw, classmethod):
                    setattr(owner, name, classmethod(wrap(raw.__func__)))
                else:
                    setattr(owner, name, wrap(raw))
            yield self
        finally:
            while self._saved:
                owner, name, raw = self._saved.pop()
                setattr(owner, name, raw)

    # ------------------------------------------------------------------
    # Report.
    # ------------------------------------------------------------------

    def report(self, regen_s: float, jobs: int, executed: int, hits: int) -> Dict[str, float]:
        """Per-layer metrics of the traced pass that took ``regen_s`` seconds.

        ``trace.overhead_ratio`` needs the untraced runs and is left to the
        caller.  Worker self times count towards their layers but not towards
        the attributed time, which is the parent's wall clock.
        """
        values = {metric: 0.0 for metric in UNITS}
        for source in (self.seconds, self.worker_seconds):
            for metric, seconds in source.items():
                values[metric] += seconds
        for name in ("faults.recoveries", "routing.route_calls", "noc.flit_hops"):
            values[name] = self.counts[name]
        values["parallel.tasks_executed"] = executed
        values["parallel.cache_hits"] = hits
        values["parallel.cache_hit_ratio"] = hits / (executed + hits) if executed + hits else 0.0
        run_wall = self.counts["_run_tasks_wall_s"]
        if run_wall:
            values["parallel.efficiency"] = self.counts["_busy_s"] / (jobs * run_wall)
        hops = self.counts["noc.flit_hops"]
        values["noc.us_per_flit_hop"] = 1e6 * self.counts["_flit_clock_s"] / hops if hops else 0.0
        values["trace.unattributed_s"] = regen_s - sum(self.seconds.values())
        del values["trace.overhead_ratio"]
        return values
