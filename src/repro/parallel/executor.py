"""Ordered fan-out of independent tasks over a process pool.

``run_tasks`` is the single execution primitive of the orchestration layer:
it applies a picklable function to every task, inline when ``jobs <= 1`` and
via :class:`concurrent.futures.ProcessPoolExecutor` otherwise, and returns
the results *in input order* regardless of completion order.  Because every
task is independent and deterministically seeded, the two execution modes
produce identical results — parallelism only changes wall-clock time.

Pool workers never outlive the process that created the pool: each one
watches that process and exits once it is gone, even when it was killed
without a chance to shut the pool down.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Any, Callable, List, Optional, Sequence, TypeVar

TaskT = TypeVar("TaskT")
ResultT = TypeVar("ResultT")

#: Signature of the optional progress callback:
#: ``(completed_count, total_count, task, result)``.
ProgressCallback = Callable[[int, int, Any, Any], None]


def _exit_with_parent(creator_pid: int, start_method: str) -> None:
    """Pool-worker initializer: exit the worker once the pool's creator is gone.

    A creator killed by SIGKILL cannot shut its pool down, and its workers
    would otherwise finish their task and then wait on its queues forever.
    A worker the creator forked or spawned is re-parented when the creator
    dies, so a ``getppid()`` other than ``creator_pid`` means it is gone.
    Under ``forkserver`` the parent is the fork server, which the workers
    themselves keep alive; there the worker waits on its parent sentinel, a
    pipe only the creator holds open.  ``os._exit`` ends the worker mid-task
    at once.
    """

    def watch() -> None:
        if start_method == "forkserver":
            multiprocessing.connection.wait([multiprocessing.parent_process().sentinel])
        else:
            while os.getppid() == creator_pid:
                time.sleep(0.25)
        os._exit(1)

    threading.Thread(target=watch, name="exit-with-parent", daemon=True).start()


def run_tasks(
    function: Callable[[TaskT], ResultT],
    tasks: Sequence[TaskT],
    jobs: int = 1,
    progress: Optional[ProgressCallback] = None,
) -> List[ResultT]:
    """Apply ``function`` to every task, possibly in parallel.

    Parameters
    ----------
    function:
        A module-level (picklable) callable executed once per task.
    tasks:
        The independent units of work.
    jobs:
        Maximum worker processes.  ``jobs <= 1`` runs inline in this
        process (no pool, no pickling); higher values use a process pool
        with ``min(jobs, len(tasks))`` workers.
    progress:
        Optional callback invoked after each completion with
        ``(completed, total, task, result)``; called from this process in
        completion order.

    Returns
    -------
    list
        One result per task, in the same order as ``tasks``.
    """
    total = len(tasks)
    if total == 0:
        return []
    if jobs <= 1 or total == 1:
        results: List[ResultT] = []
        for index, task in enumerate(tasks):
            result = function(task)
            results.append(result)
            if progress is not None:
                progress(index + 1, total, task, result)
        return results

    workers = min(jobs, total)
    ordered: List[Optional[ResultT]] = [None] * total
    with ProcessPoolExecutor(
        max_workers=workers,
        initializer=_exit_with_parent,
        initargs=(os.getpid(), multiprocessing.get_start_method()),
    ) as pool:
        future_to_index = {
            pool.submit(function, task): index for index, task in enumerate(tasks)
        }
        completed = 0
        pending = set(future_to_index)
        try:
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    index = future_to_index[future]
                    result = future.result()
                    ordered[index] = result
                    completed += 1
                    if progress is not None:
                        progress(completed, total, tasks[index], result)
        except BaseException:
            # Surface the failure immediately: drop every still-queued task
            # instead of letting the pool drain a possibly hours-long batch
            # before the exception reaches the caller.
            pool.shutdown(wait=True, cancel_futures=True)
            raise
    return ordered  # type: ignore[return-value]
