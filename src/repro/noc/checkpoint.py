"""Checkpoint/restore for the simulation kernel.

A checkpoint is a :class:`KernelCheckpoint`: the complete mutable state of
one mid-run :class:`~repro.noc.kernel.SimulationKernel`, captured as a
pickle of the kernel object graph at a cycle boundary.  Everything a cycle
can mutate — the :class:`~repro.noc.pool.PacketPool` arrays, VC rings and
port round-robin state, scheduler wake sets, traffic-model RNGs, the
energy accountant, the fault injector's event cursor — is reachable from
the kernel, and pickling the graph preserves the aliasing between them
(e.g. the kernel state's hot array caches stay views of the pool's lists),
so a restored kernel continues the run *bit-identically* to one that was
never interrupted.  ``tests/test_checkpoint.py`` pins that guarantee on
the golden-fingerprint matrix.

Checkpoints are taken at cycle boundaries only (after the cycle's phases
and watchdog ran), so no phase-internal scratch state exists at capture
time.

On-disk format: a single pickle of the :class:`KernelCheckpoint`
dataclass, written atomically (tempfile + ``os.replace``) so a crash
mid-write can never leave a truncated checkpoint that parses.
"""

from __future__ import annotations

import os
import pickle
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Union

__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "CheckpointError",
    "KernelCheckpoint",
    "graph_pickling_limit",
    "load_checkpoint",
    "save_checkpoint",
]

#: Bumped whenever the pickled kernel graph changes shape incompatibly.
#: A version mismatch is a :class:`CheckpointError` at load time, never a
#: silent misresume.  v2: the vector state's owner/rev dicts became flat
#: claim-index lists and the arrivals dict became a calendar-wheel of
#: preallocated arrays.  v3: the vector engine and the checkpoint's
#: ``engine`` field are gone; every checkpoint is a scalar kernel graph.
#: v4: the pickled topology graph carries its link index, the Dijkstra
#: forests sorted predecessor tuples, and the shortest-path router its
#: region table and XY-run memo.  v5: the pickled simulation result lost its
#: metrics mode and streaming accumulators.  v6: the packet pool lost its
#: ``ejection_cycle`` and ``flits_ejected`` columns and its flit-pool back
#: reference, and the energy accountant its static-energy switch.  v7: the
#: wireless fabric keeps each channel's latest (cycle, sender), and the
#: kernel state and simulation result lost their ``stalled`` flags.
CHECKPOINT_SCHEMA_VERSION = 7


class CheckpointError(RuntimeError):
    """A checkpoint could not be read, validated, or resumed."""


@contextmanager
def graph_pickling_limit(num_switches: int) -> Iterator[None]:
    """Temporarily widen the recursion limit for pickling a kernel graph.

    Pickling recurses the fabric's switch-port-VC chain hop by hop (the
    pickler enters each ``Switch → InputPort → VirtualChannel →
    OutputPort → Switch`` link before memoising it), costing roughly 20
    interpreter frames per switch on the longest unmemoised path.  The
    budget below is ~3x that, plus generous headroom for the caller's own
    stack — scaled to the topology so any architecture size snapshots
    without touching the process-wide default.  *Un*pickling builds
    iteratively off the memo and needs no widening.
    """
    limit = sys.getrecursionlimit()
    needed = 2000 + 64 * max(0, num_switches)
    if needed > limit:
        sys.setrecursionlimit(needed)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


@dataclass(frozen=True)
class KernelCheckpoint:
    """One resumable kernel snapshot.

    ``cycle`` is the last fully executed cycle; resuming continues at
    ``cycle + 1``.  ``payload`` is the pickled kernel object graph.
    """

    cycle: int
    payload: bytes
    version: int = CHECKPOINT_SCHEMA_VERSION


def save_checkpoint(checkpoint: KernelCheckpoint, path: Union[str, Path]) -> None:
    """Write ``checkpoint`` to ``path`` atomically."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    handle, temp_name = tempfile.mkstemp(
        dir=target.parent, prefix=target.name, suffix=".tmp"
    )
    try:
        with os.fdopen(handle, "wb") as stream:
            pickle.dump(checkpoint, stream, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(temp_name, target)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise


def load_checkpoint(path: Union[str, Path]) -> KernelCheckpoint:
    """Read and validate a checkpoint written by :func:`save_checkpoint`."""
    try:
        with open(path, "rb") as stream:
            checkpoint = pickle.load(stream)
    except OSError as error:
        raise CheckpointError(f"cannot read checkpoint {path}: {error}") from error
    except (pickle.UnpicklingError, EOFError, AttributeError, ValueError) as error:
        raise CheckpointError(f"corrupt checkpoint {path}: {error}") from error
    except ImportError as error:
        # The pickle names a module this build no longer has: written by an
        # older build, so it can only be rejected, never resumed.
        raise CheckpointError(f"checkpoint {path} is from another build: {error}") from error
    if not isinstance(checkpoint, KernelCheckpoint):
        raise CheckpointError(
            f"checkpoint {path} holds a {type(checkpoint).__name__}, "
            "expected KernelCheckpoint"
        )
    if checkpoint.version != CHECKPOINT_SCHEMA_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has schema v{checkpoint.version}, "
            f"this build reads v{CHECKPOINT_SCHEMA_VERSION}"
        )
    return checkpoint
