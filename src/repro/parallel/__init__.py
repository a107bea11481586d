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
  together.  It writes each task's cache entry as the task finishes, so a
  crashed or killed sweep resumes from the cache: a rerun simulates only
  the tasks that had not finished.
"""

from .cache import ResultCache
from .executor import run_tasks
from .hashing import canonical_json, stable_hash, to_jsonable
from .runner import ExperimentRunner, SimulationTask

__all__ = [
    "ExperimentRunner",
    "ResultCache",
    "SimulationTask",
    "canonical_json",
    "run_tasks",
    "stable_hash",
    "to_jsonable",
]
