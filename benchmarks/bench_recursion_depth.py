"""Ablation E: recursion-depth strategies (Section 5.5).

"A conservative estimate of the recursion depth will yield a non-recursive
DTD equivalent to the original in most cases.  This allows us to exploit
the cost-based estimation used in the non-recursive case, while avoiding as
much as possible the need to iterate the process at runtime."

Compares, on the small dataset: (a) an exact data-driven estimate
(``unfold_depth="auto"``), (b) a conservative over-estimate, and (c) a
too-small estimate that forces runtime re-unrolling — measuring wall time
and the number of evaluation rounds each strategy needs.
"""

import time

import pytest

from repro.relational import Network
from repro.runtime import Middleware
from repro.runtime.recursion import estimate_recursion_depth

from conftest import dataset_for, sources_for


def run_strategy(hospital_aig, unfold_depth):
    sources = sources_for("small")
    date = dataset_for("small").busiest_date()
    middleware = Middleware(hospital_aig, sources, Network.mbps(1.0),
                            unfold_depth=unfold_depth, max_unfold_depth=64)
    started = time.perf_counter()
    report = middleware.evaluate({"date": date})
    wall = time.perf_counter() - started
    return report, wall


def test_recursion_depth_strategies(benchmark, hospital_aig):
    from conftest import report as write_report

    def build():
        estimated = estimate_recursion_depth(hospital_aig,
                                             sources_for("small"))
        lines = [f"Recursion-depth strategies (small dataset; data needs "
                 f"depth ≈ {estimated})",
                 f"{'strategy':>22s}{'final depth':>12s}{'plan nodes':>11s}"
                 f"{'wall(s)':>9s}"]
        documents = []
        rows = []
        for label, depth in (("auto (chain stats)", "auto"),
                             ("conservative (16)", 16),
                             ("too small (2)", 2)):
            report, wall = run_strategy(hospital_aig, depth)
            documents.append(report.document)
            rows.append((label, report.unfold_depth, report.node_count,
                         wall))
            lines.append(f"{label:>22s}{report.unfold_depth:12d}"
                         f"{report.node_count:11d}{wall:9.2f}")
        return estimated, documents, rows, "\n".join(lines)

    estimated, documents, rows, text = benchmark.pedantic(build, rounds=1,
                                                          iterations=1)
    write_report("recursion_depth", "\n" + text, wall=True)
    # every strategy delivers the identical document
    assert documents[0] == documents[1] == documents[2]
    # the auto estimate avoids any runtime re-unrolling
    assert rows[0][1] == estimated
    # the too-small estimate had to extend beyond its starting point
    assert rows[2][1] > 2


@pytest.mark.parametrize("depth", ["auto", 16])
def test_depth_strategy_kernel(benchmark, hospital_aig, depth):
    wall = benchmark.pedantic(
        lambda: run_strategy(hospital_aig, depth)[1], rounds=2, iterations=1)
    assert wall >= 0
