"""Collect sets of benchmark runs into one JSON file for ``compare.py``.

    python3 benchmarks/e2e/collect.py --out runs.json [--sets 2] [--seeds 10]

Each set measures every workload of BENCHMARK.json once per seed, seeds
1..N with the workloads interleaved, with tracing off; then one traced run
per workload at the default seed.  Every set uses the same seeds, so digests compare across
sets.  The file also records ``nproc`` and the Python version.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

import run
import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args(argv)

    document = {
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "seconds": run.DEFAULT_SECONDS,
        "sets": [],
    }
    with (workloads.ROOT / "BENCHMARK.json").open(encoding="utf-8") as handle:
        names = [workload["name"] for workload in json.load(handle)["workloads"]]
    plan = [(name, seed, False) for seed in range(1, args.seeds + 1) for name in names]
    plan += [(name, workloads.DEFAULT_SEED, True) for name in names]
    for index in range(args.sets):
        records = []
        for name, seed, trace in plan:
            outcome = run.measure(name, seed, run.DEFAULT_SECONDS, trace)
            records.append(outcome)
            print(f"set {index} {run.render(outcome)[0]}", file=sys.stderr, flush=True)
        document["sets"].append(records)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
