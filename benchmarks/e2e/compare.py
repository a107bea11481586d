"""Compare two sets of benchmark runs under BENCHMARK.json's bounds.

    python3 benchmarks/e2e/compare.py BASE.json NEW.json
    python3 benchmarks/e2e/compare.py BENCH_e2e.json   # its first set against its second

For every workload and end-to-end metric it prints both medians of the
untraced runs, the change (positive is worse) and each side's spread: the
distance between the first and third quartile as a share of the median.

* ``ok`` — worse by no more than the metric's bound.
* ``REGRESSION`` — worse by more than the bound, with both spreads within it.
* ``unresolved`` — a spread is wider than the bound, so the runs cannot
  tell; unless every new run beats every base run (``better``).

The per-layer medians of the traced runs follow, for information.  It exits
1 on a regression, on a failed or incorrect run, and when the two sides'
digests differ for the same workload and seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Dict, List, Tuple

import workloads

BENCHMARK = workloads.ROOT / "BENCHMARK.json"


def spread(values: List[float]) -> float:
    """Interquartile distance as a share of the median (0 for one value)."""
    median = statistics.median(values)
    if len(values) < 2 or not median:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def _load(path: str) -> List[List[dict]]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["sets"]


def _values(records: List[dict], workload: str, metric: str, trace: int) -> List[float]:
    return [
        r["metrics"][metric]
        for r in records
        if r["workload"] == workload and r["trace"] == trace and metric in r["metrics"]
    ]


def _digests(records: List[dict]) -> Dict[Tuple[str, int], set]:
    digests: Dict[Tuple[str, int], set] = {}
    for record in records:
        digests.setdefault((record["workload"], record["seed"]), set()).add(record["digest"])
    return digests


def compare(base: List[dict], new: List[dict], spec: dict) -> Tuple[List[str], List[str]]:
    """Report lines and the problems that fail the comparison."""
    problems = [
        f"{side}: {r['workload']} seed {r['seed']} trace {r['trace']}: "
        f"{r['failed']}/{r['attempted']} failed, correct={r['correct']}"
        for side, records in (("base", base), ("new", new))
        for r in records
        if r["failed"] or not r["correct"]
    ]
    base_digests, new_digests = _digests(base), _digests(new)
    for key in sorted(base_digests.keys() & new_digests.keys()):
        if len(base_digests[key] | new_digests[key]) > 1:
            problems.append(f"digests differ for {key[0]} seed {key[1]}")

    lines = [
        f"{'workload':<11} {'metric':<12} {'unit':<5} {'base':>11} {'new':>11} "
        f"{'change':>8} {'spread':>15} {'bound':>6}  verdict"
    ]
    for workload in workloads.WORKLOADS:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = _values(base, workload, name, 0), _values(new, workload, name, 0)
            if not a or not b:
                continue
            sign = 1.0 if metric["better"] == "lower" else -1.0
            ma, mb = statistics.median(a), statistics.median(b)
            change = sign * (mb - ma) / ma
            sa, sb = spread(a), spread(b)
            if max(sa, sb) > bound:
                beats = all(sign * x < sign * y for x in b for y in a)
                verdict = "better" if beats else "unresolved"
            elif change > bound:
                verdict = "REGRESSION"
                problems.append(f"{workload} {name} worse by {change:+.1%} (bound {bound:.0%})")
            else:
                verdict = "ok"
            lines.append(
                f"{workload:<11} {name:<12} {metric['unit']:<5} {ma:>11.5g} {mb:>11.5g} "
                f"{change:>+8.1%} {sa:>7.1%}/{sb:>6.1%} {bound:>6.0%}  {verdict} "
                f"(n={len(a)}/{len(b)})"
            )

    layer_lines = []
    for workload in workloads.WORKLOADS:
        for metric in spec["per_layer"]:
            a = _values(base, workload, metric["name"], 1)
            b = _values(new, workload, metric["name"], 1)
            if a and b:
                layer_lines.append(
                    f"{workload:<11} {metric['name']:<26} {metric['unit']:<6} "
                    f"{statistics.median(a):>14.6g} {statistics.median(b):>14.6g}"
                )
    if layer_lines:
        lines += ["", "per-layer medians of the traced runs (base, new):", *layer_lines]
    return lines, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("files", nargs="+", help="BASE.json [NEW.json] written by collect.py")
    args = parser.parse_args(argv)
    if len(args.files) == 1:
        sets = _load(args.files[0])
        if len(sets) < 2:
            parser.error(f"{args.files[0]} holds {len(sets)} set(s); give two files")
        base, new = sets[0], sets[1]
    elif len(args.files) == 2:
        base, new = ([r for s in _load(path) for r in s] for path in args.files)
    else:
        parser.error("give one or two files")
    with BENCHMARK.open(encoding="utf-8") as handle:
        spec = json.load(handle)
    lines, problems = compare(base, new, spec)
    print("\n".join(lines))
    for problem in problems:
        print(f"FAIL: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
