"""Data-plane benchmark: materialized tree vs streaming plane.

A deliberately wide warehouse relation (13 columns, 5 referenced) feeds a
flat ``catalog -> product*`` document plus a constant boilerplate subtree
per product.  Per scale we run both planes over identical data:

* **materialized** — ``Middleware().evaluate`` builds the full XML tree,
  then ``serialize(..., indent=2)`` renders it in one string;
* **streaming** — ``Middleware().evaluate_stream`` emits bytes through
  ``StreamSerializer`` without ever holding the tree or the document.

Measured per scale: wall time -> rows/sec and tracemalloc peak (memory
runs are separate from timing runs: tracing slows allocation
several-fold).  Hard assertions: byte-identical output (sha256), the
``large`` CI smoke (streaming peak < materialized peak) and the headline
``huge`` bound (materialized peak >= 5x streaming peak).  Results land in
``BENCH_dataplane.json`` at the repo root.
"""

import hashlib
import time
import tracemalloc

from repro.aig import AIG, Const, assign, inh, query
from repro.dtd import parse_dtd
from repro.obs import Tracer
from repro.relational import Catalog, DataSource, SourceSchema
from repro.relational.schema import relation
from repro.runtime import Middleware
from repro.xmlmodel import serialize

from conftest import BENCH_DATAPLANE_JSON, record_json, report

DAY = "2026-08-07"

SCALES = {"small": 200, "medium": 2_000, "large": 8_000, "huge": 20_000}

#: huge: the materialized plane must peak at >= 5x the streaming plane.
HUGE_PEAK_RATIO_FLOOR = 5.0
#: medium: streaming throughput must stay within 10% of materialized.
MEDIUM_THROUGHPUT_FLOOR = 0.9

DTD_TEXT = """
    <!ELEMENT catalog (product*)>
    <!ELEMENT product (sku, title, price, vendor, listing)>
    <!ELEMENT listing (currency, unit, audited, origin, grade, channel)>
"""

#: 5 of the 13 columns are referenced (4 projected + the day predicate);
#: u0..u7 make the relation wider than the query.
UNUSED_COLUMNS = tuple(f"u{i}" for i in range(8))

PRODUCTS_QUERY = """
select i.sku, i.title, i.price, i.vendor
from WH:items i
where i.day = $day
"""


def build_scenario(row_count, backend=None):
    """A wide single-source catalog AIG plus its loaded source."""
    schema = SourceSchema("WH", (relation(
        "items", "sku", "title", "price", "vendor", "day",
        *UNUSED_COLUMNS, key=("sku",)),))
    aig = AIG(parse_dtd(DTD_TEXT), Catalog([schema]), root_inh=("day",))
    aig.inh("product", "sku", "title", "price", "vendor")
    aig.rule("catalog", inh={"product": query(PRODUCTS_QUERY)})
    aig.rule("product", inh={
        "sku": assign(val=inh("sku")),
        "title": assign(val=inh("title")),
        "price": assign(val=inh("price")),
        "vendor": assign(val=inh("vendor")),
    })
    aig.rule("listing", inh={
        "currency": assign(val=Const("USD")),
        "unit": assign(val=Const("each")),
        "audited": assign(val=Const("no")),
        "origin": assign(val=Const("warehouse")),
        "grade": assign(val=Const("retail")),
        "channel": assign(val=Const("online")),
    })
    source = DataSource(schema, backend=backend)
    source.load_rows("items", [
        (f"sku{i:07d}", f"Widget {i} deluxe", str(10 + i % 997),
         f"vendor{i % 37}", DAY, *(f"filler-{i}-{j}" for j in range(8)))
        for i in range(row_count)])
    return aig.validate(), {"WH": source}


class _DigestWriter:
    """Hashes the streamed bytes without retaining them."""

    def __init__(self):
        self._hash = hashlib.sha256()
        self.length = 0

    def write(self, chunk):
        self._hash.update(chunk.encode("utf-8"))
        self.length += len(chunk)

    def hexdigest(self):
        return self._hash.hexdigest()


def _materialized_pass(aig, sources):
    middleware = Middleware(aig, sources)
    result = middleware.evaluate({"day": DAY})
    return serialize(result.document, indent=2)


def _streaming_pass(aig, sources):
    writer = _DigestWriter()
    Middleware(aig, sources).evaluate_stream({"day": DAY}, writer.write,
                                             indent=2)
    return writer


def _timed(fn, *args):
    start = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - start


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def _run_scale(rows):
    aig, sources = build_scenario(rows)

    xml, wall_mat = _timed(_materialized_pass, aig, sources)
    writer, wall_stream = _timed(_streaming_pass, aig, sources)

    mat_digest = hashlib.sha256(xml.encode("utf-8")).hexdigest()
    assert writer.hexdigest() == mat_digest, \
        "streaming output diverged from serialized tree"
    assert writer.length == len(xml)

    peak_mat = _traced_peak(_materialized_pass, aig, sources)
    peak_stream = _traced_peak(_streaming_pass, aig, sources)

    return {
        "rows": rows,
        "document_chars": len(xml),
        "sha256": mat_digest,
        "materialized": {
            "wall_seconds": round(wall_mat, 4),
            "rows_per_sec": round(rows / wall_mat, 1),
            "peak_tracked_bytes": peak_mat,
        },
        "streaming": {
            "wall_seconds": round(wall_stream, 4),
            "rows_per_sec": round(rows / wall_stream, 1),
            "peak_tracked_bytes": peak_stream,
        },
        "peak_ratio": round(peak_mat / peak_stream, 2),
    }


def test_dataplane_planes(benchmark):
    def run_grid():
        return {scale: _run_scale(rows) for scale, rows in SCALES.items()}

    grid = benchmark.pedantic(run_grid, rounds=1, iterations=1)

    lines = ["Data plane: materialized tree vs streaming",
             f"{'scale':>8s}{'rows':>8s}{'mat s':>9s}{'stream s':>10s}"
             f"{'mat MiB':>10s}{'stream MiB':>12s}{'peak x':>8s}"]
    for scale, cell in grid.items():
        lines.append(
            f"{scale:>8s}{cell['rows']:>8d}"
            f"{cell['materialized']['wall_seconds']:>9.3f}"
            f"{cell['streaming']['wall_seconds']:>10.3f}"
            f"{cell['materialized']['peak_tracked_bytes'] / 2**20:>10.2f}"
            f"{cell['streaming']['peak_tracked_bytes'] / 2**20:>12.2f}"
            f"{cell['peak_ratio']:>8.2f}")
    report("dataplane", "\n".join(lines))
    record_json("dataplane", grid, path=BENCH_DATAPLANE_JSON)

    # CI smoke: on large the streaming plane must already be cheaper.
    large = grid["large"]
    assert (large["streaming"]["peak_tracked_bytes"]
            < large["materialized"]["peak_tracked_bytes"])

    # Headline claim: on huge, materializing costs >= 5x the peak memory.
    assert grid["huge"]["peak_ratio"] >= HUGE_PEAK_RATIO_FLOOR, \
        f"peak ratio {grid['huge']['peak_ratio']} below " \
        f"{HUGE_PEAK_RATIO_FLOOR}x on huge"

    # Throughput: streaming must not tank rows/sec on the medium scale.
    medium = grid["medium"]
    floor = MEDIUM_THROUGHPUT_FLOOR * medium["materialized"]["rows_per_sec"]
    assert medium["streaming"]["rows_per_sec"] >= floor, \
        "streaming plane slower than 0.9x materialized on medium"


#: Backend-comparison scale (rows) and the specs measured when available.
BACKEND_BENCH_ROWS = 2_000


def _backend_pass(backend):
    aig, sources = build_scenario(BACKEND_BENCH_ROWS, backend=backend)
    load_done = time.perf_counter()
    tracer = Tracer()
    middleware = Middleware(aig, sources, tracer=tracer)
    result = middleware.evaluate({"day": DAY})
    xml = serialize(result.document, indent=2)
    evaluate_done = time.perf_counter()
    rewrites = tracer.metrics.counter("ship_rewrites")
    for source in sources.values():
        source.close()
    return xml, evaluate_done - load_done, rewrites


def test_dataplane_backends(benchmark):
    """Per-backend evaluation cost over identical data (docs/BACKENDS.md).

    SQLite and the file backend always run; DuckDB joins when its driver
    is installed.  Byte-identity across backends is a hard assertion —
    this is the bench-side echo of the conformance suite — and the
    recorded wall times land under their own ``dataplane_backends`` key,
    so the regression gate only compares backends measured on both sides.
    """
    from repro.relational import backend_available

    specs = ["sqlite", "file"]
    if backend_available("duckdb"):
        specs.append("duckdb")

    def run_backends():
        cells = {}
        for spec in specs:
            xml, wall, rewrites = _backend_pass(spec)
            cells[spec] = {
                "rows": BACKEND_BENCH_ROWS,
                "wall_seconds": round(wall, 4),
                "rows_per_sec": round(BACKEND_BENCH_ROWS / wall, 1),
                "ship_rewrites": rewrites,
                "sha256": hashlib.sha256(xml.encode()).hexdigest(),
            }
        return cells

    cells = benchmark.pedantic(run_backends, rounds=1, iterations=1)

    digests = {cell["sha256"] for cell in cells.values()}
    assert len(digests) == 1, "backends produced diverging documents"
    # the flat catalog plan ships nothing (its only parameter is the
    # scalar $day), so rewrites stay 0 here on every backend; the
    # rewrite-exercising differential lives in tests/test_backends.py
    assert all(cell["ship_rewrites"] == 0 for cell in cells.values())

    lines = [f"Backend comparison ({BACKEND_BENCH_ROWS} rows, "
             f"evaluate + serialize)",
             f"{'backend':>8s}{'wall s':>9s}{'rows/s':>10s}{'rewrites':>10s}"]
    for spec, cell in cells.items():
        lines.append(f"{spec:>8s}{cell['wall_seconds']:>9.3f}"
                     f"{cell['rows_per_sec']:>10.1f}"
                     f"{cell['ship_rewrites']:>10d}")
    report("dataplane_backends", "\n".join(lines))
    record_json("dataplane_backends", cells, path=BENCH_DATAPLANE_JSON)
