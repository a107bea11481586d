"""End-to-end figure-regeneration benchmark: host time to regenerate figures.

    python3 benchmarks/e2e/run.py --workload sweeps [--seed 7] [--seconds 32] [--trace 1]

Every run starts fresh child processes (``child.py``) one at a time, each
with an empty result cache under ``.e2e-work/`` in the checkout.  With
``--trace 0`` it measures the end-to-end metrics:

* ``regen_s`` — median over cold regenerations, each timed from the first
  figure's compilation to the last figure's results;
* ``warm_s`` — median over warm passes in the cold runs' processes, each
  through fresh runners over the filled cache;
* ``setup_s`` — median over child launches, timed from launch until the
  program is imported, the workload's specs are resolved and its task
  seeds derived;
* ``peak_rss_mb`` — median over cold runs of the peak resident set of the
  child and its pool workers.

The three times are in reference seconds (:mod:`hostspeed`): each stretch
of a sample is scaled by the host-speed probes timed on either side of it
(a cold pass is timed in quarter-second segments), so the host's drift
cancels and a change to the program does not.  The raw medians and the
probe are printed beside them.

With ``--trace 1`` it alternates untraced and traced cold runs and reports
the per-layer metrics of :mod:`layers`, as medians over the traced runs.

Either way it launches cold runs while the next one, taking as long as the
last, would end within ``--seconds`` (and at least a minimum count), checks every run's payload digest against the committed
golden (or, for a seed without one, against the other runs), prints every
metric by name with its unit, and ends with one JSON line.  It exits 1 if
any run failed or any check did not hold, and 2 without a result when the
checkout holds no program.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

import hostspeed
import layers
import workloads

HERE = Path(__file__).resolve().parent
WORK_DIR = workloads.ROOT / ".e2e-work"
PYCACHE_DIR = WORK_DIR / "pycache"

DEFAULT_SECONDS = 32
SETUP_LAUNCHES = 5
MIN_COLD_RUNS = 3
WARM_PASSES = 8
MIN_TRACE_PAIRS = 2
#: No measured child is launched after this many seconds of a run.
LAUNCH_CUTOFF_S = 100
#: Any child still running this many seconds into a run is killed, so a
#: run ends within 180 s even if children hang.  A child takes under 10 s.
RUN_LIMIT_S = 160

#: End-to-end metrics and their units.
END_TO_END: Dict[str, str] = {
    "regen_s": "s",
    "warm_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class ChildFailed(RuntimeError):
    """A child process crashed, timed out or printed no result."""


def _kill_group(process: subprocess.Popen) -> None:
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def launch(
    workload: str,
    seed: int,
    mode: str,
    timeout: float,
    warm: int = 0,
    cycles: Optional[int] = None,
) -> dict:
    """Run one child to completion; its result, with ``setup_s`` added.

    ``setup_s`` is raw; ``launch_probe`` is the host-speed probe timed
    right before the launch.
    """
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK_DIR))
    command = [sys.executable, str(HERE / "child.py"), "--workload", workload]
    command += ["--seed", str(seed), "--mode", mode, "--warm", str(warm)]
    command += ["--cache", str(workdir / "cache")]
    if cycles is not None:
        command += ["--cycles", str(cycles)]
    # Children share one bytecode cache per run, so set-up measures a start
    # from compiled modules whether or not the environment writes bytecode.
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(PYCACHE_DIR))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    launch_probe = hostspeed.probe()
    try:
        with open(workdir / "stderr", "w+", encoding="utf-8") as stderr:
            started = perf_counter()
            # A new process group, so a timeout also kills the child's pool workers.
            process = subprocess.Popen(
                command,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=stderr,
                text=True,
                env=env,
                start_new_session=True,
            )
            timer = threading.Timer(timeout, _kill_group, (process,))
            timer.start()
            try:
                ready = process.stdout.readline()
                setup_s = perf_counter() - started
                rest = process.stdout.read()
                process.wait()
            finally:
                timer.cancel()
                _kill_group(process)
                process.stdout.close()
            stderr.seek(0)
            errors = stderr.read()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if process.returncode != 0 or ready.strip() != "ready":
        tail = errors.strip().splitlines()[-1:] or [f"exit code {process.returncode}"]
        raise ChildFailed(f"{mode} child failed: {tail[0]}")
    try:
        result = json.loads(rest.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise ChildFailed(f"{mode} child printed no result") from None
    result["setup_s"] = setup_s
    result["launch_probe"] = launch_probe
    return result


def measure(
    workload: str,
    seed: int = workloads.DEFAULT_SEED,
    seconds: float = DEFAULT_SECONDS,
    trace: bool = False,
    cycles: Optional[int] = None,
    reference: Optional[str] = None,
) -> dict:
    """Measure one workload; returns the metrics, the verdict and the samples.

    ``reference`` is the digest every run must reproduce; it defaults to the
    committed golden, and for a seed without one to the first run's digest.
    """
    workloads.import_repro()
    if workload not in workloads.WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    golden = workloads.golden_digest(workload, seed, cycles)
    reference = reference or golden
    started = perf_counter()
    deadline = started + seconds
    runs: List[dict] = []  # successful cold runs, or traced runs with their untraced twin
    setups: List[float] = []  # reference seconds
    raw_setups: List[float] = []
    probes: List[float] = []
    errors: List[str] = []
    attempted = failed = 0

    def attempt(mode: str, warm: int = 0) -> Optional[dict]:
        """Launch one child and check it; ``None`` if it failed.

        Set-up launches measure only ``setup_s``: their failures make the
        run incorrect but do not count as failed runs.
        """
        nonlocal attempted, failed, reference
        measured = mode != "setup"
        attempted += measured
        label = f"{mode} child {attempted}"
        timeout = max(1.0, RUN_LIMIT_S - (perf_counter() - started))
        try:
            result = launch(workload, seed, mode, timeout, warm=warm, cycles=cycles)
        except ChildFailed as error:
            problems = [str(error)]
        else:
            problems = list(result.get("warm_errors", ()))
            if "digest" in result:
                reference = reference or result["digest"]
                if result["digest"] != reference:
                    problems.append(f"digest {result['digest'][:12]} differs from {reference[:12]}")
        if problems:
            failed += measured
            errors.extend(f"{label}: {problem}" for problem in problems)
            return None
        bracket = (result["launch_probe"], result["setup_probe"])
        probes.extend(result.get("probes", bracket[1:]))
        raw_setups.append(result["setup_s"])
        setups.append(hostspeed.scaled(result["setup_s"], bracket))
        return result

    step_s = 0.0  # how long the last cold child (or traced pair) took

    def more(launched: int, minimum: int) -> bool:
        """Whether to launch another step: one that would end by the deadline."""
        if perf_counter() - started > LAUNCH_CUTOFF_S:
            return False
        return launched < minimum or perf_counter() + step_s < deadline

    try:
        if not trace:
            for _ in range(SETUP_LAUNCHES):
                if perf_counter() - started < LAUNCH_CUTOFF_S:
                    attempt("setup")
            while more(attempted, MIN_COLD_RUNS):
                step_started = perf_counter()
                result = attempt("cold", warm=WARM_PASSES)
                step_s = perf_counter() - step_started
                if result is not None:
                    runs.append(result)
        else:
            while more(attempted // 2, MIN_TRACE_PAIRS):
                step_started = perf_counter()
                untraced = attempt("cold")
                traced = attempt("traced")
                step_s = perf_counter() - step_started
                if untraced is not None and traced is not None:
                    traced["untraced_regen_s"] = untraced["regen_s"]
                    runs.append(traced)
    finally:
        shutil.rmtree(PYCACHE_DIR, ignore_errors=True)
        if WORK_DIR.is_dir() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()

    regen = [run["regen_s"] for run in runs]
    warm = sorted(sample for run in runs for sample in run["warm_s"])
    raw_warm = [sample for run in runs for sample in run["raw_warm_s"]]
    metrics: Dict[str, float] = {}
    if runs and not trace:
        metrics = {
            "regen_s": statistics.median(regen),
            "warm_s": statistics.median(warm),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(run["peak_rss_mb"] for run in runs),
        }
    elif runs:
        metrics = {
            name: statistics.median(run["layers"][name] for run in runs)
            for name in layers.UNITS
            if name != "trace.overhead_ratio"
        }
        untraced = statistics.median(run["untraced_regen_s"] for run in runs)
        metrics["trace.overhead_ratio"] = statistics.median(regen) / untraced
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "correct": not errors and bool(runs),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "digest": reference,
        "golden": golden,
        "samples": {
            "regen_s": regen,
            "setup_s": setups,
            "raw_regen_s": [run["raw_regen_s"] for run in runs],
            "raw_setup_s": raw_setups,
            "raw_warm_median_s": statistics.median(raw_warm) if raw_warm else None,
            "probe_s": probes,
            "warm_passes": len(warm),
            "warm_p90_s": warm[int(0.9 * len(warm))] if warm else None,
        },
        "errors": errors,
    }


def units(trace: bool) -> Dict[str, str]:
    """The metrics a run reports, with their units."""
    return dict(layers.UNITS) if trace else dict(END_TO_END)


def exit_code(outcome: dict) -> int:
    return 0 if outcome["correct"] else 1


def render(outcome: dict) -> List[str]:
    """Human-readable lines: every metric by name with its unit, and the checks."""
    workload = workloads.WORKLOADS[outcome["workload"]]
    trace = bool(outcome["trace"])
    samples = outcome["samples"]
    lines = [
        f"e2e {workload.name} seed={outcome['seed']} jobs={workload.jobs} trace={int(trace)}: "
        f"{outcome['attempted']} measured run(s), {outcome['failed']} failed"
    ]
    notes = {}
    if not trace and outcome["metrics"]:
        for name in ("regen_s", "setup_s"):
            values = samples[name]
            notes[name] = f"median of {len(values)}, max {max(values):.6f}"
        notes["warm_s"] = f"median of {samples['warm_passes']}, p90 {samples['warm_p90_s']:.6f}"
        notes["peak_rss_mb"] = f"median of {len(samples['regen_s'])}"
        raw = {
            "regen_s": statistics.median(samples["raw_regen_s"]),
            "warm_s": samples["raw_warm_median_s"],
            "setup_s": statistics.median(samples["raw_setup_s"]),
        }
        for name, value in raw.items():
            notes[name] += f", raw {value:.6f}"
    for name, unit in units(trace).items():
        if name in outcome["metrics"]:
            note = f"  ({notes[name]})" if name in notes else ""
            lines.append(f"  {name:<26} {outcome['metrics'][name]:>14.6f} {unit}{note}")
    if trace and outcome["metrics"]:
        regen = statistics.median(samples["raw_regen_s"])
        share = 1.0 - outcome["metrics"]["trace.unattributed_s"] / regen
        lines.append(f"  layer self times cover {share:.1%} of the traced {regen:.4f} s")
    if samples["probe_s"]:
        probe = statistics.median(samples["probe_s"])
        lines.append(
            f"  host-speed probe {probe:.6f} s, median of {len(samples['probe_s'])} "
            f"(reference {hostspeed.REFERENCE_S} s)"
        )
    ratio = outcome["failed"] / max(outcome["attempted"], 1)
    lines.append(f"  failed_ratio {outcome['failed']}/{outcome['attempted']} = {ratio:.3f}")
    digest = outcome["digest"] or "none"
    if outcome["golden"]:
        verdict = "matches" if outcome["digest"] == outcome["golden"] else "DIFFERS FROM"
        lines.append(f"  digest {digest} {verdict} the golden at seed {outcome['seed']}")
    else:
        lines.append(f"  digest {digest} (no golden at this seed; compare runs by it)")
    lines.extend(f"  error: {error}" for error in outcome["errors"])
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        outcome = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except workloads.MissingProgram as error:
        print(f"e2e: {error}", file=sys.stderr)
        return 2
    for line in render(outcome):
        print(line)
    unit = units(bool(args.trace))
    print(
        json.dumps(
            {
                "correct": outcome["correct"],
                "attempted": outcome["attempted"],
                "failed": outcome["failed"],
                "metrics": {
                    name: {"value": value, "unit": unit[name]}
                    for name, value in outcome["metrics"].items()
                },
            }
        )
    )
    return exit_code(outcome)


if __name__ == "__main__":
    sys.exit(main())
