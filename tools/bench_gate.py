"""The one performance gate: the repository benchmark on parent and change.

Everything it compares comes from ``BENCHMARK.json``: the command, the
workloads, the run length, and each end-to-end metric's direction and bound.
The parent revision is unpacked (``git archive``) into a temporary
directory; the change is the checkout this file sits in.  Per workload the
two sides run in alternating order, in the driver's form, and the last
stdout line of every run is the result::

    python tools/bench_gate.py <base-rev> [--pairs N]
                               [--claim METRIC@WORKLOAD ...]

Exit 1 iff, on some workload, an end-to-end median is worse than the
parent's by more than its bound while the parent's own q1-q3 spread is
inside that bound, or a larger share of operations failed.  Every other
metric prints ``within``, or ``unresolved`` when the parent's runs spread
wider than the bound (and not every run of the change reads better than
every run of the parent): too noisy to call, which is not "unchanged".

``--claim`` (repeatable) also judges a gain the change claims, by the
rule for a small sandbox: the change wins at least nine tenths of the
pairs run (a tie is a win for neither side) and the medians differ by more
than the distance between the parent's own quartiles.  A claim that is
not met exits 1 like a regression.

Before the verdicts it prints ``parallel_capacity_x``: how much work two
CPU-bound processes finish per second against one, five alternating
readings (2.0 = a second core is free, 1.0 = the box delivers one), so a
claim about parallelism is read against what the box delivers.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


#: a child that spins for a fixed amount of interpreter work and prints
#: the seconds it took
_SPIN = ("import time; start = time.perf_counter(); "
         "sum(i * i for i in range({work})); "
         "print(time.perf_counter() - start)")


def parallel_capacity(alternations: int = 5, work: int = 4_000_000) -> list:
    """Per alternation, ``2 x seconds of one spinning process / seconds of
    two spinning side by side`` (the slower of the two)."""
    def spin(processes: int) -> float:
        children = [subprocess.Popen(
            [sys.executable, "-c", _SPIN.format(work=work)],
            stdout=subprocess.PIPE, text=True) for _ in range(processes)]
        try:
            return max(float(child.communicate(timeout=300)[0])
                       for child in children)
        finally:
            for child in children:
                child.kill()        # a no-op once it has exited

    readings = []
    for alternation in range(alternations):
        if alternation % 2 == 0:
            one, two = spin(1), spin(2)
        else:
            two, one = spin(2), spin(1)
        readings.append(2 * one / two)
    return readings


def one_run(tree: Path, spec: dict, workload: str) -> dict:
    """The driver's invocation inside ``tree``; its last stdout line."""
    command = [*spec["command"], "--workload", workload, "--seed", "1",
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    done = subprocess.run(command, cwd=tree, stdout=subprocess.PIPE,
                          text=True, timeout=900)
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"attempted": 1, "failed": 1, "metrics": {}}


def values(runs: list, name: str) -> list:
    return [run["metrics"][name]["value"] for run in runs
            if name in run["metrics"]]


def quartiles(samples: list) -> tuple:
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    return tuple(statistics.quantiles(samples, n=4, method="inclusive"))


def judge(metric: dict, parent: list, change: list) -> tuple:
    """``(verdict, text)`` for one metric on one workload."""
    if not parent or not change:
        return "unresolved", "no value on one side"
    sign = 1 if metric["better"] == "lower" else -1
    q1, base, q3 = quartiles(parent)
    median = statistics.median(change)
    worse_by = sign * (median - base) / base
    text = (f"{base:.4g} ({q1:.4g}-{q3:.4g}) -> {median:.4g}  "
            f"{sign * worse_by:+.1%}")
    if (q3 - q1) / base > metric["bound"]:
        all_better = all(sign * new < sign * old
                         for new in change for old in parent)
        return ("within" if all_better else "unresolved"), text
    return ("worse" if worse_by > metric["bound"] else "within"), text


def judge_claim(metric: dict, pairs: list) -> tuple:
    """``(met, text)`` for a claimed gain on one metric of one workload.

    ``pairs`` holds one ``(parent, change)`` value per pair of runs, a
    side that produced no value as ``None`` (such a pair is no win).
    """
    sign = 1 if metric["better"] == "lower" else -1
    wins = sum(1 for old, new in pairs
               if old is not None and new is not None
               and sign * new < sign * old)
    parent = [old for old, _ in pairs if old is not None]
    change = [new for _, new in pairs if new is not None]
    if not parent or not change:
        return False, f"wins {wins}/{len(pairs)}, no value on one side"
    q1, base, q3 = quartiles(parent)
    median = statistics.median(change)
    gap = sign * (base - median)
    met = 10 * wins >= 9 * len(pairs) and gap > q3 - q1
    return met, (f"wins {wins}/{len(pairs)}, median {base:.4g} -> "
                 f"{median:.4g}  {(median - base) / base:+.1%}, gap "
                 f"{gap:.4g} vs parent q1-q3 distance {q3 - q1:.4g}")


def failed_share(runs: list) -> float:
    return (sum(run["failed"] for run in runs)
            / sum(run["attempted"] for run in runs))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="git revision of the parent commit")
    parser.add_argument("--pairs", type=int, default=5,
                        help="parent/change pairs per workload (default 5)")
    parser.add_argument("--claim", action="append", default=[],
                        metavar="METRIC@WORKLOAD",
                        help="a gain the change claims; exit 1 unless it "
                             "wins >= 9/10 of the pairs and the medians "
                             "differ by more than the parent's q1-q3 "
                             "distance (repeatable)")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {metric["name"]: metric for metric in spec["end_to_end"]}
    claims = [tuple(claim.partition("@")[::2]) for claim in args.claim]
    for name, workload in claims:
        if name not in metrics or workload not in (
                entry["name"] for entry in spec["workloads"]):
            parser.error(f"--claim {name}@{workload}: not an end-to-end "
                         f"metric and a workload of BENCHMARK.json")
    print("parallel_capacity_x " + " ".join(
        f"{reading:.2f}" for reading in parallel_capacity())
        + "  (2 x one-process seconds / two-process seconds)", flush=True)
    problems = []
    with tempfile.TemporaryDirectory(prefix="bench-gate-") as parent_tree:
        archive = subprocess.run(["git", "archive", args.base], cwd=ROOT,
                                 stdout=subprocess.PIPE, check=True).stdout
        subprocess.run(["tar", "-x", "-C", parent_tree], input=archive,
                       check=True)
        trees = {"parent": Path(parent_tree), "change": ROOT}
        for workload in (entry["name"] for entry in spec["workloads"]):
            runs = {"parent": [], "change": []}
            for pair in range(args.pairs):
                order = ("parent", "change") if pair % 2 == 0 \
                    else ("change", "parent")
                for side in order:
                    result = one_run(trees[side], spec, workload)
                    runs[side].append(result)
                    shown = " ".join(
                        f"{name}={row['value']:.4g}"
                        for name, row in result["metrics"].items())
                    print(f"run {workload} pair {pair + 1} {side}: {shown} "
                          f"failed={result['failed']}/{result['attempted']}",
                          flush=True)
            print(f"== {workload}: parent median (q1-q3) -> change "
                  f"median, {args.pairs} pair(s) ==")
            for metric in spec["end_to_end"]:
                name = metric["name"]
                verdict, text = judge(metric, values(runs["parent"], name),
                                      values(runs["change"], name))
                print(f"{name:<20}{text:<52}{verdict}")
                if verdict == "worse":
                    problems.append(f"{workload}: {name} {text} is worse "
                                    f"by more than {metric['bound']:.0%}")
            for name, where in claims:
                if where != workload:
                    continue
                met, text = judge_claim(metrics[name], [
                    tuple(run["metrics"].get(name, {}).get("value")
                          for run in pair)
                    for pair in zip(runs["parent"], runs["change"])])
                print(f"claim {name}: {text}  "
                      f"{'met' if met else 'NOT MET'}")
                if not met:
                    problems.append(f"{workload}: claimed gain on {name} "
                                    f"not met ({text})")
            before, after = (failed_share(runs["parent"]),
                             failed_share(runs["change"]))
            print(f"{'failed_share':<20}{before:.4g} -> {after:.4g}\n",
                  flush=True)
            if after > before:
                problems.append(f"{workload}: failed share rose "
                                f"{before:.4g} -> {after:.4g}")
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    if not problems:
        print("OK: no end-to-end metric outside its BENCHMARK.json bound"
              + (f", {len(claims)} claim(s) met" if claims else ""))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
