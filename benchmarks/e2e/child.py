"""One fresh benchmark process, launched by ``run.py``.

It imports the program, resolves the workload's specs and derives each
task's seed, prints ``ready`` (the parent times set-up up to that line),
times the host-speed probe (:mod:`hostspeed`), and then, unless
``--mode setup``:

* ``cold``: regenerates the workload into the empty cache ``--cache`` and
  repeats it ``--warm`` times over the now-warm cache, each time through
  fresh runners;
* ``traced``: regenerates it once under :class:`layers.Tracer`.

Each pass is timed between host-speed probes (:func:`workloads.run_pass`);
the cold one in segments of a quarter second, a warm one whole.  The last
line of the output is one JSON object with the times, raw and in reference
seconds, the probes and the digests.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys

import hostspeed
import workloads


def _peak_rss_mb() -> float:
    """Peak resident set of this process and its reaped children, in MB."""
    kilobytes = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kilobytes / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "cold", "traced"), required=True)
    parser.add_argument("--cache", help="empty result-cache directory (cold and traced)")
    parser.add_argument("--warm", type=int, default=0, help="warm passes after a cold one")
    parser.add_argument("--cycles", type=int, help="override the workload's run length")
    args = parser.parse_args(argv)

    workloads.import_repro()
    import repro.api  # noqa: F401  (part of the measured set-up)
    import repro.scenario  # noqa: F401

    workload = workloads.WORKLOADS[args.workload]
    specs = workloads.resolve_specs(workload, args.cycles)
    seeds = workloads.task_seeds(specs, args.seed)
    print("ready", flush=True)
    out: dict = {"setup_probe": hostspeed.probe()}
    if args.mode == "setup":
        print(json.dumps(out), flush=True)
        return 0

    def regenerate(opening_probe: float, segment_s=None) -> workloads.Pass:
        return workloads.run_pass(
            specs, seeds, workload.jobs, args.cache, segment_s, opening_probe
        )

    if args.mode == "traced":
        import layers

        tracer = layers.Tracer()
        with tracer.installed():
            cold = regenerate(out["setup_probe"], workloads.SEGMENT_S)
        out["layers"] = tracer.report(cold.seconds, workload.jobs, cold.executed, cold.hits)
    else:
        cold = regenerate(out["setup_probe"], workloads.SEGMENT_S)
        out["peak_rss_mb"] = _peak_rss_mb()
    out["regen_s"] = cold.reference_s
    out["raw_regen_s"] = cold.seconds
    out["probes"] = cold.probes
    out["digest"] = workloads.digest(cold.pairs)
    out["tasks_executed"] = cold.executed
    out["cache_hits"] = cold.hits

    out["warm_s"], out["raw_warm_s"], out["warm_errors"] = [], [], []
    for index in range(args.warm):
        warm = regenerate(out["probes"][-1])
        out["warm_s"].append(warm.reference_s)
        out["raw_warm_s"].append(warm.seconds)
        out["probes"] += warm.probes[1:]
        if warm.executed:
            out["warm_errors"].append(f"warm pass {index} simulated {warm.executed} task(s)")
        elif workloads.digest(warm.pairs) != out["digest"]:
            out["warm_errors"].append(f"warm pass {index} returned payloads unlike the cold pass")
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
