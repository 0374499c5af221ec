"""Noise self-check: do two sets of runs of the same code agree?

    python3 benchmarks/e2e/agree.py --seed 1

runs the suite twice on this commit and fails when any end-to-end metric of
the second run is worse than the first by more than its bound.

    python3 benchmarks/e2e/agree.py --spread 10 [--workload NAME]

is the acceptance test the driver applies to the benchmark itself: ten runs
per workload, each with another seed; for each end-to-end metric the
distance between the first and third quartile of the ten values, as a share
of their median, must stay within the metric's bound (``setup_s`` is
reported but exempt) — and should stay below a third of it.  The last
column is the same spread of the uncalibrated medians, where a row has one.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

import definitions
from run import OUT, spawn, suite


def worse_by(first: float, second: float, better: str) -> float:
    """Share of ``first`` by which ``second`` is worse (negative: better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def agree(seed: int, seconds: float) -> int:
    runs = [suite(seed, seconds, traced=False, smoke=False, quiet=True)
            for _ in range(2)]
    disagreements = 0
    print(f"{'workload':<20}{'metric':<20}{'first':>12}{'second':>12}"
          f"{'worse by':>10}{'bound':>7}")
    for first, second in zip(runs[0]["results"], runs[1]["results"]):
        for name, _, better, bound in definitions.END_TO_END:
            a = first["result"]["metrics"].get(name, {}).get("value")
            b = second["result"]["metrics"].get(name, {}).get("value")
            if not a or not b:
                verdict, disagreements = "MISSING", disagreements + 1
                print(f"{first['workload']:<20}{name:<20}{verdict:>12}")
                continue
            worse = worse_by(a, b, better)
            flag = "" if worse <= bound else "  DISAGREE"
            disagreements += bool(flag)
            print(f"{first['workload']:<20}{name:<20}{a:>12.5g}{b:>12.5g}"
                  f"{worse:>+10.3f}{bound:>7.2f}{flag}")
        failed = first["result"]["failed"] + second["result"]["failed"]
        if failed:
            disagreements += 1
            print(f"{first['workload']:<20}{failed} failed operation(s)")
    print(f"env first: {runs[0]['results'][0]['env']}")
    print(f"env second: {runs[1]['results'][0]['env']}")
    print("AGREE" if not disagreements
          else f"{disagreements} metric(s) outside their bound")
    return 0 if not disagreements else 1


def iqr_share(values) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def spread(count: int, first_seed: int, seconds: float, workloads) -> int:
    over = 0
    report = {}
    for workload in workloads:
        values: dict = {name: [] for name in definitions.END_TO_END_NAMES}
        raw: dict = {name: [] for name in definitions.END_TO_END_NAMES}
        for seed in range(first_seed, first_seed + count):
            detail = spawn(workload, seed, seconds, trace=False, smoke=False)
            if detail["result"]["failed"]:
                over += 1
                print(f"{workload} seed {seed}: {detail['failures']}")
            for name in values:
                metric = detail["result"]["metrics"].get(name)
                if metric:
                    values[name].append(metric["value"])
                if "raw" in detail["rows"].get(name, {}):
                    raw[name].append(detail["rows"][name]["raw"])
        print(f"\n== {workload}: {count} seeds from {first_seed} ==")
        print(f"{'metric':<20}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'iqr/median':>12}{'bound':>7}{'uncalibrated':>14}")
        for name, _, _, bound in definitions.END_TO_END:
            if len(values[name]) < 2:
                continue
            q1, _, q3 = statistics.quantiles(values[name], n=4)
            median = statistics.median(values[name])
            share = iqr_share(values[name])
            before = (f"{iqr_share(raw[name]):>14.4f}"
                      if len(raw[name]) > 1 else "")
            flag = ""
            if name != "setup_s" and share > bound:
                flag, over = "  OVER THE BOUND", over + 1
            elif name != "setup_s" and share > bound / 3:
                flag = "  above a third of the bound"
            print(f"{name:<20}{median:>12.5g}{q1:>12.5g}{q3:>12.5g}"
                  f"{share:>12.4f}{bound:>7.2f}{before}{flag}")
            report.setdefault(workload, {})[name] = {
                "values": values[name], "raw": raw[name], "median": median,
                "q1": q1, "q3": q3, "iqr_over_median": share, "bound": bound}
        sys.stdout.flush()
    OUT.mkdir(exist_ok=True)
    (OUT / f"spread-seed{first_seed}.json").write_text(
        json.dumps(report, indent=1))
    print("\nSTEADY" if not over else f"\n{over} problem(s)")
    return 0 if not over else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(definitions.RUN_SECONDS))
    parser.add_argument("--spread", type=int, metavar="RUNS",
                        help="RUNS seeds per workload starting at --seed, "
                             "instead of the suite twice on one seed")
    parser.add_argument("--workload", action="append",
                        choices=list(definitions.WORKLOADS))
    args = parser.parse_args(argv)
    if args.spread:
        return spread(args.spread, args.seed, args.seconds,
                      args.workload or list(definitions.WORKLOADS))
    return agree(args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
