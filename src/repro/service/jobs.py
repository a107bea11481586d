"""The asyncio sweep service: job queue, dedupe, coalescing, priorities.

One :class:`SweepService` instance owns a worker pool and a shared result
cache and serves any number of concurrently submitted *jobs* (task
lists).  Each submitted task takes exactly one of three paths:

* **cache** — its content-hash key is already in the result cache: the
  stored summary is delivered immediately, nothing runs.
* **coalesced** — an identical task (same key) is already queued or
  running for an earlier job: the job subscribes to that single
  execution instead of spawning a second one.
* **run** — the task is genuinely new: it enters the priority queue and
  eventually executes on the pool.

Scheduling is two-level at task granularity: every ``"interactive"``
task is dispatched before any *queued* ``"bulk"`` task, regardless of
arrival order (an already-running bulk task is never killed — with
checkpointing enabled it would be resumable, but letting it finish its
slot is both simpler and never slower than re-running the prefix).
Joining an in-flight queued task from an interactive job promotes the
task's priority.

Everything here runs on the event loop — submissions, dispatch and
result fan-out are single-threaded, so there are no locks; only
:func:`repro.parallel.runner.execute_task` runs on pool workers.  With
the checkpoint knobs set, workers persist resumable kernel checkpoints
keyed by task (see :mod:`repro.parallel.checkpoints`), so a crashed or
killed attempt's successor resumes from the last checkpoint
bit-identically instead of starting over.
"""

from __future__ import annotations

import asyncio
import heapq
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Any, AsyncIterator, Dict, List, Optional, Sequence, Set, Tuple

from ..parallel.cache import ResultCache
from ..parallel.runner import TASK_SCHEMA_VERSION, SimulationTask, execute_task

__all__ = [
    "JobEvent",
    "JobHandle",
    "JobState",
    "PRIORITIES",
    "ServiceConfig",
    "SweepService",
]

#: Priority name → heap rank (lower dispatches first).
PRIORITIES: Dict[str, int] = {"interactive": 0, "bulk": 1}


@dataclass(frozen=True)
class ServiceConfig:
    """Static configuration of one :class:`SweepService` instance."""

    #: Maximum concurrently executing tasks (pool width).
    jobs: int = 1
    #: Result-cache directory; ``None`` disables the cache (every task
    #: runs, and nothing is remembered between submissions).
    cache_dir: Optional[str] = None
    #: Checkpoint cadence in cycles; ``0`` disables checkpointing.
    checkpoint_every_cycles: int = 0
    #: Checkpoint-store directory; must be set for checkpointing to engage.
    checkpoint_dir: str = ""
    #: Run tasks on worker *processes* (true parallelism) instead of the
    #: loop's thread pool.  ``None`` picks processes iff ``jobs > 1``.
    use_processes: Optional[bool] = None


class JobState(str, Enum):
    """Lifecycle of one submitted job."""

    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"


@dataclass(frozen=True)
class JobEvent:
    """One progress event of one job (``as_dict`` is the wire form)."""

    kind: str
    data: Dict[str, Any]

    def as_dict(self) -> Dict[str, Any]:
        return {"event": self.kind, **self.data}


class JobHandle:
    """A submitted job: live event stream, accumulated results, counters.

    Results are keyed by task cache key in :attr:`results` (the wire
    keying); :meth:`summaries` maps them back to the submitted task
    objects.  The counters split the job's unique tasks by path:
    ``cached`` + ``coalesced`` + ``executed`` + ``failed`` equals the
    number of distinct tasks once the job is done.
    """

    def __init__(self, job_id: int, tasks: Sequence[SimulationTask]) -> None:
        self.job_id = job_id
        self.tasks: Tuple[SimulationTask, ...] = tuple(tasks)
        self.state = JobState.RUNNING
        self.events: "asyncio.Queue[JobEvent]" = asyncio.Queue()
        self.results: Dict[str, Dict[str, Any]] = {}
        self.errors: Dict[str, str] = {}
        self.cached = 0
        self.coalesced = 0
        self.executed = 0
        self.failed = 0
        self.done = asyncio.Event()
        self._pending: Set[str] = set()

    @property
    def total_unique(self) -> int:
        return len(self.results) + len(self.errors) + len(self._pending)

    async def wait(self) -> Dict[str, Dict[str, Any]]:
        """Block until the job finishes; returns results by cache key."""
        await self.done.wait()
        return self.results

    async def stream(self) -> AsyncIterator[JobEvent]:
        """Yield progress events in order, ending after the terminal one."""
        while True:
            event = await self.events.get()
            yield event
            if event.kind in ("done", "failed"):
                return

    def summaries(self) -> Dict[SimulationTask, Any]:
        """Completed results keyed by the submitted task objects."""
        from ..metrics.saturation import LoadPointSummary

        out: Dict[SimulationTask, Any] = {}
        for task in self.tasks:
            payload = self.results.get(task.cache_key())
            if payload is not None and task not in out:
                out[task] = LoadPointSummary.from_dict(payload)
        return out

    # -- service-side plumbing (event-loop thread only) -----------------

    def _emit(self, kind: str, **data: Any) -> None:
        self.events.put_nowait(JobEvent(kind, {"job": self.job_id, **data}))

    def _deliver(self, key: str, label: str, payload: Dict[str, Any], source: str) -> None:
        self._pending.discard(key)
        self.results[key] = payload
        if source == "cache":
            self.cached += 1
        elif source == "coalesced":
            self.coalesced += 1
        else:
            self.executed += 1
        self._emit(
            "task",
            key=key,
            label=label,
            source=source,
            result=payload,
            completed=len(self.results) + len(self.errors),
            total=self.total_unique,
        )
        self._maybe_finish()

    def _fail(self, key: str, label: str, error: str) -> None:
        self._pending.discard(key)
        self.errors[key] = error
        self.failed += 1
        self._emit("task_failed", key=key, label=label, error=error)
        self._maybe_finish()

    def _maybe_finish(self) -> None:
        if self._pending or self.done.is_set():
            return
        self.state = JobState.FAILED if self.errors else JobState.DONE
        self._emit(
            "failed" if self.errors else "done",
            executed=self.executed,
            cached=self.cached,
            coalesced=self.coalesced,
            failed=self.failed,
        )
        self.done.set()


class _Entry:
    """One distinct in-flight task and the jobs subscribed to it."""

    __slots__ = ("key", "task", "rank", "seq", "state", "jobs")

    def __init__(self, key: str, task: SimulationTask, rank: int, seq: int) -> None:
        self.key = key
        self.task = task
        self.rank = rank
        self.seq = seq
        self.state = "queued"  # -> "running"
        #: Subscribed jobs in attach order; the first is the originator
        #: (counted as ``executed``), the rest coalesced onto it.
        self.jobs: List[JobHandle] = []


class SweepService:
    """See the module docstring.  Construct, :meth:`start`, :meth:`submit`."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.cache: Optional[ResultCache] = (
            ResultCache(self.config.cache_dir) if self.config.cache_dir else None
        )
        self._inflight: Dict[str, _Entry] = {}
        self._heap: List[Tuple[int, int, _Entry]] = []
        self._seq = 0
        self._job_seq = 0
        self._running = 0
        self._pool: Optional[ProcessPoolExecutor] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._wake: Optional[asyncio.Event] = None
        self._stopping = False
        self.total_executed = 0
        self.total_cached = 0
        self.total_coalesced = 0
        self.total_failed = 0

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Start the dispatcher (must run inside the event loop)."""
        if self._dispatcher is not None:
            raise RuntimeError("service already started")
        use_processes = self.config.use_processes
        if use_processes is None:
            use_processes = self.config.jobs > 1
        if use_processes:
            self._pool = ProcessPoolExecutor(max_workers=self.config.jobs)
        self._wake = asyncio.Event()
        self._dispatcher = asyncio.create_task(self._dispatch_loop())

    async def stop(self) -> None:
        """Stop dispatching and release the pool (running tasks finish)."""
        self._stopping = True
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    # ------------------------------------------------------------------
    # Submission.
    # ------------------------------------------------------------------

    async def submit(
        self, tasks: Sequence[SimulationTask], priority: str = "bulk"
    ) -> JobHandle:
        """Queue one job; returns immediately with its live handle."""
        if self._wake is None:
            raise RuntimeError("service not started")
        try:
            rank = PRIORITIES[priority]
        except KeyError:
            known = ", ".join(sorted(PRIORITIES))
            raise ValueError(f"unknown priority {priority!r}; known: {known}") from None

        self._job_seq += 1
        job = JobHandle(self._job_seq, tasks)

        unique: List[SimulationTask] = []
        seen: Set[str] = set()
        for task in tasks:
            key = task.cache_key()
            if key not in seen:
                seen.add(key)
                unique.append(task)

        hits: List[Tuple[SimulationTask, Dict[str, Any]]] = []
        for task in unique:
            key = task.cache_key()
            payload = self._cache_get(key)
            if payload is not None:
                # Hit keys go through _pending too, so the job cannot
                # finish mid-way through delivering its own cache hits.
                job._pending.add(key)
                hits.append((task, payload))
                continue
            job._pending.add(key)
            entry = self._inflight.get(key)
            if entry is not None:
                entry.jobs.append(job)
                if entry.state == "queued" and rank < entry.rank:
                    # Promotion: re-push at the better rank; the stale
                    # heap record is skipped on pop (rank mismatch).
                    entry.rank = rank
                    heapq.heappush(self._heap, (rank, entry.seq, entry))
                continue
            self._seq += 1
            entry = _Entry(key, task, rank, self._seq)
            entry.jobs.append(job)
            self._inflight[key] = entry
            heapq.heappush(self._heap, (rank, entry.seq, entry))

        job._emit(
            "accepted",
            tasks=len(tasks),
            unique=len(unique),
            cached=len(hits),
            priority=priority,
        )
        # Cache hits are delivered after "accepted" so subscribers always
        # see the job header first.
        for task, payload in hits:
            self.total_cached += 1
            job._deliver(task.cache_key(), task.label, payload, "cache")
        job._maybe_finish()
        self._wake.set()
        return job

    async def status(self) -> Dict[str, Any]:
        """Queue/pool occupancy and lifetime counters."""
        running = sum(1 for e in self._inflight.values() if e.state == "running")
        return {
            "queued": len(self._inflight) - running,
            "running": running,
            "jobs": self.config.jobs,
            "executed": self.total_executed,
            "cached": self.total_cached,
            "coalesced": self.total_coalesced,
            "failed": self.total_failed,
            "checkpoint_every_cycles": self.config.checkpoint_every_cycles,
        }

    # ------------------------------------------------------------------
    # Dispatch and execution (event-loop internal).
    # ------------------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        assert self._wake is not None
        while True:
            await self._wake.wait()
            self._wake.clear()
            while self._running < self.config.jobs and self._heap:
                rank, _seq, entry = heapq.heappop(self._heap)
                if entry.state != "queued" or rank != entry.rank:
                    continue  # stale record of a promoted/started entry
                entry.state = "running"
                self._running += 1
                asyncio.get_running_loop().create_task(self._execute(entry))

    async def _execute(self, entry: _Entry) -> None:
        config = self.config
        call = partial(
            execute_task,
            entry.task,
            checkpoint_every=config.checkpoint_every_cycles,
            checkpoint_dir=config.checkpoint_dir,
        )
        try:
            payload = await asyncio.get_running_loop().run_in_executor(self._pool, call)
        except Exception as error:  # noqa: BLE001 - forwarded to subscribers
            message = f"{type(error).__name__}: {error}"
            self.total_failed += 1
            for job in entry.jobs:
                job._fail(entry.key, entry.task.label, message)
        else:
            self._cache_put(entry.key, entry.task, payload)
            for index, job in enumerate(entry.jobs):
                source = "run" if index == 0 else "coalesced"
                if index == 0:
                    self.total_executed += 1
                else:
                    self.total_coalesced += 1
                job._deliver(entry.key, entry.task.label, payload, source)
        finally:
            self._running -= 1
            del self._inflight[entry.key]
            if self._wake is not None:
                self._wake.set()

    # ------------------------------------------------------------------
    # Cache plumbing (same entry format as ExperimentRunner's).
    # ------------------------------------------------------------------

    def _cache_get(self, key: str) -> Optional[Dict[str, Any]]:
        if self.cache is None:
            return None
        payload = self.cache.get(key)
        if not payload or not isinstance(payload.get("result"), dict):
            return None
        return payload["result"]

    def _cache_put(self, key: str, task: SimulationTask, payload: Dict[str, Any]) -> None:
        if self.cache is None:
            return
        self.cache.put(
            key,
            {"version": TASK_SCHEMA_VERSION, "label": task.label, "result": payload},
        )
