"""The repository's benchmark: four workloads, end-to-end and per-layer.

One workload, as the driver runs it (last stdout line is the result)::

    python3 benchmarks/e2e/run.py --workload hospital-daily --seed 1 \
        --seconds 15 --trace 0

The whole suite, each workload in its own subprocess, every metric printed
by name with unit, value, quartiles and sample count::

    python3 benchmarks/e2e/run.py --seed 1 [--traced] [--smoke]

``--trace 1`` / ``--traced`` is the separate pass that yields the per-layer
rows; end-to-end numbers always come from a run with tracing off.  See
README.md in this directory for every definition.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"

if not (SRC / "repro" / "__init__.py").is_file():
    sys.exit(f"run.py: the program under test is missing ({SRC}/repro); "
             f"run from a checkout of the repository")
sys.path.insert(0, str(SRC))

import definitions  # noqa: E402 - needs no program code
from measure import env_stamp, stop_child_processes  # noqa: E402


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> dict:
    """One workload in this process: ``{"rows", "attempted", "failures"}``."""
    if trace:
        import layers
        return layers.run_traced(name, seed, seconds, smoke)
    if name in definitions.IN_PROCESS:
        from workloads import run_in_process
        return run_in_process(name, seed, seconds, smoke)
    from service import run_service
    return run_service(seed, seconds, smoke)


def result_line(result: dict, names) -> dict:
    """The driver's contract: exactly these four keys, every named metric
    a number.  A layer that did no work on this workload reads 0."""
    metrics = {}
    for name in names:
        value = (result["rows"].get(name) or {}).get("value")
        metrics[name] = {"value": 0 if value is None else value,
                         "unit": definitions.UNITS[name]}
    failed = len(result["failures"])
    return {"correct": failed == 0, "attempted": max(1, result["attempted"]),
            "failed": failed, "metrics": metrics}


def single(args) -> int:
    # A terminated run unwinds like any other, through every ``finally``.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), args.smoke)
    finally:
        # The run's own children are stopped where they are started; this
        # also ends what the program started behind its API (the spawn
        # pool's resource tracker), so nothing outlives this process.
        stop_child_processes()
    for failure in result["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)
    names = (definitions.PER_LAYER_NAMES if args.trace
             else definitions.END_TO_END_NAMES)
    detail = {"workload": args.workload, "seed": args.seed,
              "trace": bool(args.trace), "smoke": args.smoke,
              "env": {**env_stamp(), **result.get("env", {})},
              "rows": result["rows"],
              "notes": result.get("notes", {}),
              "failures": result["failures"]}
    print(json.dumps({"detail": detail}))
    print(json.dumps(result_line(result, names)))
    return 0 if not result["failures"] else 1


# ----------------------------------------------------------------------
def spawn(name: str, seed: int, seconds: float, trace: bool,
          smoke: bool) -> dict:
    """Run one workload in a fresh interpreter and parse its two lines."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "1" if trace else "0"]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        return {"workload": name, "trace": trace, "rows": {}, "notes": {},
                "failures": [f"exit {done.returncode} without a result"],
                "result": {"correct": False, "attempted": 1, "failed": 1,
                           "metrics": {}}}
    detail = json.loads(lines[-2])["detail"]
    detail["result"] = json.loads(lines[-1])
    detail["exit"] = done.returncode
    return detail


def format_number(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int) or float(value).is_integer():
        return f"{int(value):,}"
    return f"{value:.6g}"


def print_table(detail: dict) -> None:
    names = (definitions.PER_LAYER_NAMES if detail["trace"]
             else definitions.END_TO_END_NAMES)
    kinds = {row[0]: row[3] for row in definitions.PER_LAYER}
    title = "per-layer (traced pass)" if detail["trace"] else "end-to-end"
    print(f"\n== {detail['workload']} — {title} ==")
    print(f"{'metric':<32}{'unit':>7}{'value':>14}{'q1':>14}{'q3':>14}"
          f"{'n':>6}{'raw':>12}  kind")
    for name in names:
        row = detail["rows"].get(name) or {}
        print(f"{name:<32}{definitions.UNITS[name]:>7}"
              f"{format_number(row.get('value')):>14}"
              f"{format_number(row.get('q1')):>14}"
              f"{format_number(row.get('q3')):>14}"
              f"{row.get('n', 0):>6}"
              f"{format_number(row.get('raw')) if 'raw' in row else '':>12}"
              f"  {kinds.get(name, 'measured')}")
    for name, note in sorted(detail.get("notes", {}).items()):
        print(f"  note: {name}: {note}")
    result = detail["result"]
    share = result["failed"] / result["attempted"]
    print(f"{'failed_share':<32}{'share':>7}{format_number(share):>14}"
          f"  ({result['failed']} of {result['attempted']} operations)")
    for failure in detail["failures"]:
        print(f"  FAILED: {failure}")


def suite(seed: int, seconds: float, traced: bool, smoke: bool,
          workloads=None, quiet: bool = False) -> dict:
    """Every workload in its own subprocess, tracing off; then, with
    ``traced``, the separate per-layer pass."""
    passes = [False, True] if traced else [False]
    results = []
    for trace in passes:
        for name in workloads or definitions.WORKLOADS:
            detail = spawn(name, seed, seconds, trace, smoke)
            results.append(detail)
            if not quiet:
                print_table(detail)
                sys.stdout.flush()
    return {"seed": seed, "seconds": seconds, "smoke": smoke,
            "results": results}


def smoke_validation() -> list[str]:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return ["BENCHMARK.json is missing at the repository root"]
    return definitions.validate(json.loads(path.read_text()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(definitions.WORKLOADS),
                        help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(definitions.RUN_SECONDS),
                        help="length of each timed section")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 = the per-layer pass")
    parser.add_argument("--traced", action="store_true",
                        help="suite: add the per-layer pass")
    parser.add_argument("--smoke", action="store_true",
                        help="minimal sizes: checks and name/limit "
                             "validation only, numbers are not measurements")
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds = min(args.seconds, 1.0)
        problems = smoke_validation()
        for problem in problems:
            print(f"INVALID: {problem}", file=sys.stderr)
        if problems:
            return 2
    if args.workload:
        return single(args)
    outcome = suite(args.seed, args.seconds, args.traced, args.smoke)
    OUT.mkdir(exist_ok=True)
    target = OUT / f"results-seed{args.seed}{'-smoke' if args.smoke else ''}.json"
    target.write_text(json.dumps(outcome, indent=1))
    failed = sum(r["result"]["failed"] for r in outcome["results"])
    print(f"\n{'smoke run: not measurements; ' if args.smoke else ''}"
          f"{len(outcome['results'])} run(s), {failed} failed operation(s); "
          f"rows written to {target.relative_to(ROOT)}")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
