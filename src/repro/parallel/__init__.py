"""Parallel execution: hashing, caching, worker pools, the task runner.

This package owns the orchestration machinery every execution surface
(the figure CLIs and the :mod:`repro.api` facade) is built on:

* :mod:`repro.parallel.hashing` — canonical JSON serialisation and stable
  content hashes of task/configuration objects, used as cache keys.
* :mod:`repro.parallel.cache` — an atomic, JSON-file-per-entry result cache
  keyed by those hashes.
* :mod:`repro.parallel.executor` — ordered fan-out of independent tasks over
  a :class:`concurrent.futures.ProcessPoolExecutor` (or inline when
  ``jobs=1``), with progress callbacks.
* :mod:`repro.parallel.runner` — the simulation task model
  (:class:`~repro.parallel.runner.SimulationTask`) and the
  :class:`~repro.parallel.runner.ExperimentRunner` tying the three
  together.
* :mod:`repro.parallel.checkpoints` — on-disk store of resumable kernel
  checkpoints keyed by task cache key, which makes a checkpointed run
  resumable after a crash.
"""

from .cache import ResultCache
from .checkpoints import CheckpointStore
from .executor import run_tasks
from .hashing import canonical_json, stable_hash, to_jsonable
from .runner import ExperimentRunner, SimulationTask

__all__ = [
    "CheckpointStore",
    "ExperimentRunner",
    "ResultCache",
    "SimulationTask",
    "canonical_json",
    "run_tasks",
    "stable_hash",
    "to_jsonable",
]
