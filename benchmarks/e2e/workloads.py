"""Workloads of the end-to-end benchmark and the helpers every process shares.

The benchmark drives the program only through its public surfaces:
``repro.api.resolve_scenario``, ``repro.scenario.compile_scenario``,
``SimulationTask.with_seed``, ``repro.api.make_runner`` and
``repro.api.sweep``.  It never passes ``engine`` or ``batch_lanes`` and
leaves ``engine_used`` out of every digest, so it keeps working when the
execution engines change.

Seeds: a built-in figure gives all its tasks one fidelity seed, so its load
points draw correlated traffic and the amount of simulated work swings with
that seed (flit hops over seeds 1-10: 17 % interquartile spread on
``sweeps``).  The benchmark therefore gives each task its own seed, derived
from ``--seed`` and the task's content.  Identical tasks of different
figures still coincide, so cache hits stay as they are; the spread of the
simulated work falls to 3 %.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import hostspeed

#: Root of the checkout: the benchmark lives at ``<root>/benchmarks/e2e``.
ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

#: The fidelity levels' own seed; the committed goldens are taken at it.
DEFAULT_SEED = 7

GOLDEN_PATH = Path(__file__).resolve().with_name("golden.json")


class MissingProgram(RuntimeError):
    """The checkout holds no program sources to benchmark."""


def import_repro() -> None:
    """Make the checkout's ``src/repro`` importable, or raise :class:`MissingProgram`."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingProgram(f"no program sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: built-in figure scenarios run at one job count.

    ``cycles`` overrides the fidelity level's run length (the warm-up is a
    sixth of it), which keeps one cold regeneration at a few seconds so a
    run can take the median of several.
    """

    name: str
    figures: Tuple[Tuple[str, str], ...]  # (built-in scenario, fidelity level)
    jobs: int
    cycles: int


SWEEP_FIGURES = (
    ("fig2", "fast"),
    ("fig3", "fast"),
    ("fig4", "fast"),
    ("fig5", "fast"),
    ("fig8", "fast"),
)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # 100 pristine load-sweep tasks plus 28 cache hits (fig3 reuses
        # fig2's entries): kernel allocation and per-task build dominate.
        Workload("sweeps", SWEEP_FIGURES, jobs=1, cycles=300),
        # The same tasks over two worker processes: the difference from
        # ``sweeps`` is pure orchestration (pool start-up, pickling, balance).
        # Run by name only: on two vCPUs shared with other tenants its time
        # varies more than the host-speed probe can correct.
        Workload("sweeps-j2", SWEEP_FIGURES, jobs=2, cycles=300),
        # fig7's fault-recovery rerouting.  Links fail in cycles
        # [cycles/10, cycles/2), one recovery per distinct failure cycle; at
        # 12 cycles that window holds 5 cycles and every faulted task fills
        # it, so the recovery count, and with it the cost, does not depend
        # on the seed's draw of failed links.
        Workload("resilience", (("fig7", "fast"),), jobs=1, cycles=12),
        # fig6's SynFull application traffic: traffic generation is a far
        # larger share than in the synthetic sweeps.
        Workload("apps", (("fig6", "default"),), jobs=1, cycles=600),
    )
}


def resolve_specs(workload: Workload, cycles: Optional[int] = None) -> List[object]:
    """The workload's scenario specs with its run length applied."""
    from repro.api import resolve_scenario

    length = cycles or workload.cycles
    overrides = {"cycles": length, "warmup_cycles": length // 6}
    return [
        replace(resolve_scenario(figure, fidelity), fidelity_overrides=overrides)
        for figure, fidelity in workload.figures
    ]


def task_seeds(specs: Sequence[object], seed: int) -> Dict[object, int]:
    """Each compiled task's own seed, derived from ``seed`` and its cache key."""
    import repro.scenario

    seeds = {}
    for spec in specs:
        for task in repro.scenario.compile_scenario(spec):
            key = hashlib.sha256(f"{seed}/{task.cache_key()}".encode()).digest()
            seeds[task] = int.from_bytes(key[:4], "big")
    return seeds


#: A cold pass is timed in segments of at least this many seconds.
SEGMENT_S = 0.25


@dataclass
class Pass:
    """One regeneration: its results and its time, raw and in reference seconds."""

    pairs: list = field(default_factory=list)  # distinct (task, summary), figure order
    executed: int = 0  # tasks simulated
    hits: int = 0  # tasks served from the cache
    seconds: float = 0.0  # wall time, probes excluded
    reference_s: float = 0.0  # the same, scaled segment by segment
    probes: List[float] = field(default_factory=list)  # one before, between and after them


def run_pass(
    specs: Sequence[object],
    seeds: Dict[object, int],
    jobs: int,
    cache_dir: str,
    segment_s: Optional[float] = None,
    opening_probe: Optional[float] = None,
) -> Pass:
    """Regenerate every spec, each through a fresh runner over one cache.

    The pass is timed in segments, with a host-speed probe before, between
    and after them, and each segment is scaled by the probes on its two
    sides (:func:`hostspeed.scaled`).  Without ``segment_s`` the whole pass
    is one segment.  With it, a segment ends at the first boundary after
    ``segment_s`` seconds, so that the probes follow the host's bursts.
    With one job each task then goes through its own ``sweep`` call on
    its figure's runner, which runs tasks one after another either way;
    with more jobs the boundaries are the figures, so that each figure
    keeps its one process pool.  ``opening_probe``, a probe timed right
    before the call, saves timing another.
    """
    import repro.scenario
    from repro.api import make_runner, sweep

    out = Pass(probes=[opening_probe or hostspeed.probe()])
    mark = perf_counter()

    def close_segment() -> None:
        nonlocal mark
        seconds = perf_counter() - mark
        out.probes.append(hostspeed.probe())
        out.seconds += seconds
        out.reference_s += hostspeed.scaled(seconds, out.probes[-2:])
        mark = perf_counter()

    for spec in specs:
        tasks = list(
            dict.fromkeys(
                task.with_seed(seeds[task]) for task in repro.scenario.compile_scenario(spec)
            )
        )
        runner = make_runner(jobs=jobs, cache_dir=cache_dir)
        calls = [[task] for task in tasks] if segment_s and jobs == 1 else [tasks]
        results: dict = {}
        for call in calls:
            if segment_s and perf_counter() - mark >= segment_s:
                close_segment()
            results.update(sweep(call, runner=runner))
        out.pairs.extend((task, results[task]) for task in tasks)
        out.executed += runner.tasks_executed
        out.hits += runner.cache_hits
    close_segment()
    return out


def digest(pairs: Sequence[Tuple[object, object]]) -> str:
    """sha256 of the ordered ``(cache key, payload minus engine_used)`` list."""
    entries = []
    for task, summary in pairs:
        payload = summary.as_dict()
        payload.pop("engine_used", None)
        entries.append([task.cache_key(), payload])
    return hashlib.sha256(json.dumps(entries, sort_keys=True).encode()).hexdigest()


def golden_digest(workload: str, seed: int, cycles: Optional[int] = None) -> Optional[str]:
    """The committed digest of a workload at a seed, if one exists.

    Goldens exist only at the workloads' own run lengths.
    """
    if cycles is not None and cycles != WORKLOADS[workload].cycles:
        return None
    with GOLDEN_PATH.open(encoding="utf-8") as handle:
        return json.load(handle).get(workload, {}).get(str(seed))
