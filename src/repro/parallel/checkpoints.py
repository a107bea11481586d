"""On-disk store of resumable kernel checkpoints, keyed by task cache key.

Any :func:`repro.parallel.runner.execute_task` call with checkpointing
enabled (``ExperimentRunner(checkpoint_every_cycles=, checkpoint_dir=)``,
or the same knobs on :func:`repro.api.sweep`) persists mid-run
:class:`~repro.noc.checkpoint.KernelCheckpoint` snapshots here, one file
per task at ``<directory>/<cache_key>.ckpt``.  Keying by the task's
content hash means a preempted or crashed attempt and its retry agree on
where to look without any coordination — the same property the result
cache builds on.  Files are written atomically and deleted when the task
completes, so a populated store is exactly the set of interrupted runs.

A corrupt, truncated or older-schema file (e.g. the process was killed
during an earlier schema's run) reads as "no checkpoint": the task
cold-starts and overwrites it, never erroring out.
"""

from __future__ import annotations

from functools import partial
from pathlib import Path
from typing import Callable, Optional, Union

from ..noc.checkpoint import (
    CheckpointError,
    KernelCheckpoint,
    load_checkpoint,
    save_checkpoint,
)

__all__ = ["CheckpointStore"]

_SUFFIX = ".ckpt"


class CheckpointStore:
    """Directory of ``<cache_key>.ckpt`` checkpoint files."""

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)

    def path_for(self, key: str) -> Path:
        """Where the checkpoint of the task hashing to ``key`` lives."""
        return self.directory / f"{key}{_SUFFIX}"

    def save(self, key: str, checkpoint: KernelCheckpoint) -> None:
        """Persist ``checkpoint`` atomically (creating the directory)."""
        save_checkpoint(checkpoint, self.path_for(key))

    def sink_for(self, key: str) -> Callable[[KernelCheckpoint], None]:
        """A ``Simulator.checkpoint_sink`` writing to this store.

        Built on :func:`functools.partial` so the sink stays picklable —
        worker processes construct their own store, but a sink crossing a
        process boundary must not drag a closure along.
        """
        return partial(self.save, key)

    def load(self, key: str) -> Optional[KernelCheckpoint]:
        """The stored checkpoint for ``key``, or ``None``.

        Missing and corrupt files both read as ``None`` (cold start); see
        the module docstring for why corruption is not an error here.
        """
        path = self.path_for(key)
        if not path.exists():
            return None
        try:
            return load_checkpoint(path)
        except CheckpointError:
            return None

    def discard(self, key: str) -> None:
        """Delete the checkpoint for ``key`` if present (task finished)."""
        try:
            self.path_for(key).unlink()
        except FileNotFoundError:
            pass
