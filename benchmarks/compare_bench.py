"""Compare a fresh kernel-benchmark snapshot against the committed baseline.

The CI ``bench-trend`` job regenerates ``BENCH_kernel.json`` with
``benchmarks/bench_kernel.py`` and runs this script against the committed
snapshot.  Two hard gates, applied per architecture and per result section
(``results``, ``results_saturation`` and the two wireless saturation
points; scheduler bit-parity itself is asserted inside the benchmark
before any entry is written):

* **speedup ratio** — the per-architecture active-vs-dense quotient is a
  same-machine, same-run ratio, so it transfers across hosts (unlike
  absolute wall-clock), and a drop means the active-set scheduler is doing
  relatively more work per simulated cycle.  A fresh speedup more than
  ``--max-regression`` (default 25 %) below the committed one fails.
* **absolute throughput** — the pooled data plane is expected to hold its
  ``active_cycles_per_second``; a fresh value more than
  ``--max-cps-regression`` (default 50 %) below the committed snapshot
  fails.  The wide default absorbs runner-hardware variance while still
  catching the regression class the ratio cannot see: both schedulers
  getting uniformly slower (e.g. the per-flit path growing allocations
  back), which leaves the ratio flat.

Usage::

    python benchmarks/compare_bench.py BENCH_kernel.json fresh.json \
        [--max-regression 0.25] [--max-cps-regression 0.5]
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, Mapping

DEFAULT_MAX_REGRESSION = 0.25
DEFAULT_MAX_CPS_REGRESSION = 0.5

#: Snapshot keys holding per-architecture result sections: (key, label,
#: speedup entry key, cycles/s entry key).  Every section records the
#: active/dense quotient and the active scheduler's cycles/s.
RESULT_SECTIONS = (
    ("results", "mid load", "speedup", "active_cycles_per_second"),
    ("results_saturation", "near saturation", "speedup", "active_cycles_per_second"),
    (
        "results_wireless_token",
        "token-MAC wireless saturation",
        "speedup",
        "active_cycles_per_second",
    ),
    (
        "results_wireless_control8",
        "8-channel control-packet wireless saturation",
        "speedup",
        "active_cycles_per_second",
    ),
)


def load_snapshot(path: str) -> Mapping[str, object]:
    """One snapshot file's full payload."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload.get("results"), dict) or not payload["results"]:
        raise SystemExit(f"{path}: not a bench_kernel snapshot (no results)")
    return payload


def compare_section(
    label: str,
    baseline: Dict[str, Dict[str, float]],
    fresh: Dict[str, Dict[str, float]],
    max_regression: float,
    max_cps_regression: float,
    speedup_key: str = "speedup",
    cps_key: str = "active_cycles_per_second",
) -> int:
    """Print one section's comparison table; return the hard-gate failures."""
    failures = 0
    header = (
        f"{label:<16} {'speedup old':>12} {'speedup new':>12} "
        f"{'ratio':>7}   {'cycles/s old':>12} {'cycles/s new':>12} {'ratio':>7}"
    )
    print(header)
    print("-" * len(header))
    for name in sorted(baseline):
        if name not in fresh:
            print(f"{name:<16} MISSING from fresh snapshot -> FAIL")
            failures += 1
            continue
        old = baseline[name]
        new = fresh[name]
        old_speedup = float(old[speedup_key])
        new_speedup = float(new[speedup_key])
        ratio = new_speedup / old_speedup if old_speedup > 0 else float("inf")
        old_cps = float(old.get(cps_key, 0.0))
        new_cps = float(new.get(cps_key, 0.0))
        cps_ratio = new_cps / old_cps if old_cps > 0 else float("inf")
        verdict = ""
        if ratio < 1.0 - max_regression:
            verdict += "  <-- FAIL (speedup regression)"
            failures += 1
        if cps_ratio < 1.0 - max_cps_regression:
            verdict += "  <-- FAIL (cycles/s regression)"
            failures += 1
        print(
            f"{name:<16} {old_speedup:>12.2f} {new_speedup:>12.2f} "
            f"{ratio:>6.2f}x   {old_cps:>12.1f} {new_cps:>12.1f} "
            f"{cps_ratio:>6.2f}x{verdict}"
        )
    return failures


def compare(
    baseline: Mapping[str, object],
    fresh: Mapping[str, object],
    max_regression: float,
    max_cps_regression: float,
) -> int:
    """Compare every result section; return the total hard-gate failures."""
    failures = 0
    for key, label, speedup_key, cps_key in RESULT_SECTIONS:
        base_section = baseline.get(key)
        if not isinstance(base_section, dict) or not base_section:
            continue  # the committed snapshot predates this section
        fresh_section = fresh.get(key)
        if not isinstance(fresh_section, dict):
            print(f"section {key!r} MISSING from fresh snapshot -> FAIL")
            failures += 1
            continue
        failures += compare_section(
            label,
            base_section,
            fresh_section,
            max_regression,
            max_cps_regression,
            speedup_key=speedup_key,
            cps_key=cps_key,
        )
        print()
    print(
        "hard gates per architecture and load point: "
        f">{max_regression:.0%} drop of the active/dense speedup ratio, "
        f">{max_cps_regression:.0%} drop of active cycles/s vs the committed "
        "snapshot."
    )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed BENCH_kernel.json")
    parser.add_argument("fresh", help="freshly generated snapshot")
    parser.add_argument(
        "--max-regression",
        type=float,
        default=DEFAULT_MAX_REGRESSION,
        help="tolerated fractional speedup drop (default: 0.25)",
    )
    parser.add_argument(
        "--max-cps-regression",
        type=float,
        default=DEFAULT_MAX_CPS_REGRESSION,
        help=(
            "tolerated fractional drop of active cycles/s versus the "
            "committed snapshot (default: 0.5; generous because runner "
            "hardware varies)"
        ),
    )
    args = parser.parse_args(argv)
    if not 0.0 < args.max_regression < 1.0:
        parser.error("--max-regression must be in (0, 1)")
    if not 0.0 < args.max_cps_regression < 1.0:
        parser.error("--max-cps-regression must be in (0, 1)")
    failures = compare(
        load_snapshot(args.baseline),
        load_snapshot(args.fresh),
        args.max_regression,
        args.max_cps_regression,
    )
    if failures:
        print(f"\n{failures} hard-gate failure(s)", file=sys.stderr)
        return 1
    print("\nbench-trend gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
