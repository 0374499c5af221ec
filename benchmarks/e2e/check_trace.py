"""Accounting test for the traced pass (a script, not a pytest module, so
the tier-1 suite does not collect it)::

    python3 benchmarks/e2e/check_trace.py [--full]

1. nested wrappers are counted once: ``Mediator.cache_result`` ->
   ``create_temp_table`` records parent and child, their self times add up
   to the outer duration, and it is one call into the layer;
2. on each in-process workload the traced document is byte-identical to
   the untraced one and ``trace.residual_share`` <= 0.10 (both are checks
   inside ``layers.run_traced``; this script fails when either did).

Without ``--full`` the workloads run at their ``--smoke`` sizes.
"""

from __future__ import annotations

import argparse
import sys

import run  # noqa: F401 - puts src/ on sys.path
import definitions
import layers
from repro.relational import Mediator
from repro.relational.source import ResultSet


def check_nested_wrappers() -> list[str]:
    recorder = layers.SpanRecorder()
    mediator = Mediator()
    layers.instrument(recorder, {}, mediator)
    recorder.active = True
    try:
        with recorder.span("document"):
            mediator.cache_result(
                "cache_1", ResultSet(["a", "b"], [(1, 2), (3, 4), (5, 6)]))
    finally:
        recorder.active = False
        mediator.close()
    problems = []
    names = [span["name"] for span in recorder.spans]
    if names != ["document", "relational.mediator_ship",
                 "relational.mediator_ship"]:
        problems.append(f"expected document > ship > ship, got {names}")
        return problems
    outer, inner = recorder.spans[1], recorder.spans[2]
    if outer["parent"] != 0 or inner["parent"] != 1:
        problems.append("create_temp_table is not a child of cache_result")
    selfs = recorder.self_times()
    outer_duration = outer["end"] - outer["start"]
    if abs(selfs[1] + selfs[2] - outer_duration) > 1e-9:
        problems.append("nested self times do not add up to the outer span")
    rows, _ = layers.document_rows(recorder)
    if rows["relational.mediator_calls"]["value"] != 1:
        problems.append("nested wrappers counted as more than one call")
    ship = rows["relational.mediator_ship_s"]["value"]
    if abs(ship - outer_duration) > 1e-9:
        problems.append("mediator_ship_s counts the nested interval twice")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--full", action="store_true",
                        help="full-size workloads instead of smoke sizes")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    problems = check_nested_wrappers()
    for name in definitions.IN_PROCESS:
        seconds = float(definitions.RUN_SECONDS) if args.full else 0.5
        result = layers.run_traced(name, args.seed, seconds,
                                   smoke=not args.full)
        residual = result["rows"]["trace.residual_share"]["value"]
        print(f"{name}: {result['attempted']} checks, residual "
              f"{residual:.4f}, overhead "
              f"{result['rows']['trace.overhead_x']['value']:.3f}x")
        problems += [f"{name}: {failure}" for failure in result["failures"]]
    for problem in problems:
        print(f"FAILED: {problem}")
    print("OK" if not problems else f"{len(problems)} problem(s)")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
