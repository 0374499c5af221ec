"""Scenario builders and the untraced in-process workload runner.

Only the public API is used here (``Middleware``, ``evaluate``,
``evaluate_stream``, ``serialize``, ``check_constraints``, ``conforms_to``,
``ConceptualEvaluator``), so a refactor behind those names cannot break an
end-to-end number.  The traced adapter (``layers.py``) is never imported
from this module.

Why the seed draws *values* but never *shape*: the driver reads the spread
of each metric over ten seeds, so a seed that moved the number of rows,
groups or procedure edges would measure the generator's variance instead of
the program's (``make_loaded_sources("large", seed)`` moves the hospital
documents by +-10 % in nodes from seed to seed).  Cardinalities, the
procedure DAG and visit dates therefore come from one pinned shape seed;
prices, names, scores and vendors come from ``--seed``.
"""

from __future__ import annotations

import gc
import hashlib
import random
import time
from dataclasses import dataclass
from typing import Callable

from repro import (AIG, Catalog, ConceptualEvaluator, DataSource, Middleware,
                   Network, SourceSchema, assign, check_constraints,
                   conforms_to, inh, parse_dtd, query, relation, serialize)
from repro.aig import Const
from repro.datagen import generate, load_dataset
from repro.datagen.generator import DATES
from repro.hospital import build_hospital_aig
from repro.hospital.schema import make_sources

from measure import Calibrator, DigestWriter, peak_rss_mb, summarize

INDENT = 2
#: Shape of the hospital data (what ``repro demo``/``serve`` load by default).
HOSPITAL_SHAPE_SEED = 42


# ----------------------------------------------------------------------
# hospital-daily: PAPER.md Example 1.1 / Figure 10
# ----------------------------------------------------------------------
def make_hospital_sources(seed: int, scale: str) -> dict:
    dataset = generate(scale, HOSPITAL_SHAPE_SEED)
    rng = random.Random(seed)
    dataset.billing = [(tr_id, str(rng.randrange(100, 950)))
                       for tr_id, _ in dataset.billing]
    dataset.patient = [(ssn, f"patient-{rng.randrange(10**5, 10**6)}", policy)
                       for ssn, _, policy in dataset.patient]
    sources = make_sources()
    load_dataset(dataset, sources)
    return sources


def hospital_middleware(aig, sources) -> Middleware:
    return Middleware(aig, sources, Network.mbps(1.0), unfold_depth="auto")


# ----------------------------------------------------------------------
# groups-constraints: the bench_shard document (root -> group* -> member*)
# ----------------------------------------------------------------------
GROUP_DTD = """
<!ELEMENT root (group*)>
<!ELEMENT group (gid, members)>
<!ELEMENT members (member*)>
<!ELEMENT member (mid, score)>
<!ELEMENT gid (#PCDATA)>
<!ELEMENT mid (#PCDATA)>
<!ELEMENT score (#PCDATA)>
"""
GROUP_SCHEMA = SourceSchema("S", (relation("groups", "gid"),
                                  relation("members", "eid", "mid", "score")))
MEMBERS_PER_GROUP = 8


def build_group_aig() -> AIG:
    aig = AIG(parse_dtd(GROUP_DTD), Catalog([GROUP_SCHEMA]),
              root_inh=("run",))
    aig.inh("group", "gid")
    aig.inh("members", "gid")
    aig.inh("member", "mid", "score")
    aig.rule("root", inh={"group": query("select g.gid from S:groups g")})
    aig.rule("group", inh={"gid": assign(val=inh("gid")),
                           "members": assign(gid=inh("gid"))})
    aig.rule("members", inh={"member": query(
        "select m.mid, m.score from S:members m")})
    aig.rule("member", inh={"mid": assign(val=inh("mid")),
                            "score": assign(val=inh("score"))})
    aig.key("root", "group", "gid")
    aig.key("group", "member", "mid")
    aig.key("group", "member", "score")
    aig.key("group", "member", ("mid", "score"))
    aig.inclusion("group", "member", "score", "member", "score")
    aig.inclusion("group", "member", "mid", "member", "mid")
    aig.inclusion("group", "member", ("mid", "score"),
                  "member", ("mid", "score"))
    return aig.validate()


def make_group_sources(seed: int, groups: int) -> dict:
    rng = random.Random(seed)
    # the keys on mid and on score need both distinct within a group
    scores = rng.sample(range(10, 100), MEMBERS_PER_GROUP)
    source = DataSource(GROUP_SCHEMA)
    source.load_rows("groups", [(f"g{i:05d}",) for i in range(groups)])
    source.load_rows("members", [("x", f"m{m:04d}", str(scores[m]))
                                 for m in range(MEMBERS_PER_GROUP)])
    return {"S": source}


# ----------------------------------------------------------------------
# catalog-stream: the bench_dataplane wide relation (13 columns, 5 read)
# ----------------------------------------------------------------------
CATALOG_DTD = """
    <!ELEMENT catalog (product*)>
    <!ELEMENT product (sku, title, price, vendor, listing)>
    <!ELEMENT listing (currency, unit, audited, origin, grade, channel)>
"""
CATALOG_DAYS = tuple(f"2026-08-{day:02d}" for day in range(3, 8))
UNUSED_COLUMNS = tuple(f"u{i}" for i in range(8))
CATALOG_SCHEMA = SourceSchema("WH", (relation(
    "items", "sku", "title", "price", "vendor", "day",
    *UNUSED_COLUMNS, key=("sku",)),))
PRODUCTS_QUERY = """
select i.sku, i.title, i.price, i.vendor
from WH:items i
where i.day = $day
"""


def build_catalog_aig() -> AIG:
    aig = AIG(parse_dtd(CATALOG_DTD), Catalog([CATALOG_SCHEMA]),
              root_inh=("day",))
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
    return aig.validate()


def make_catalog_sources(seed: int, rows: int) -> dict:
    rng = random.Random(seed)
    days = len(CATALOG_DAYS)
    source = DataSource(CATALOG_SCHEMA)
    source.load_rows("items", [
        (f"sku{i:07d}", f"Widget {i:07d} deluxe", str(rng.randrange(100, 1000)),
         f"vendor{rng.randrange(10, 47)}", CATALOG_DAYS[i % days],
         *(f"filler-{i}-{j}" for j in range(8)))
        for i in range(rows)])
    return {"WH": source}


def default_middleware(aig, sources) -> Middleware:
    return Middleware(aig, sources)


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Scenario:
    """One in-process workload: how to build it and what to ask of it."""

    build_aig: Callable[[], AIG]
    make_sources: Callable[[int, object], dict]
    middleware: Callable[[AIG, dict], Middleware]
    roots: tuple
    #: ``evaluate_stream`` into a hashing writer instead of evaluate +
    #: serialize of a materialized tree.
    stream: bool
    #: data sizes: the timed run, the instance the conceptual evaluator
    #: is compared on, and ``--smoke``.
    full: object
    oracle: object
    smoke: object


SCENARIOS = {
    "hospital-daily": Scenario(
        build_hospital_aig, make_hospital_sources,
        hospital_middleware, tuple({"date": date} for date in DATES),
        stream=False, full="large", oracle="large", smoke="tiny"),
    "groups-constraints": Scenario(
        build_group_aig, make_group_sources,
        default_middleware, ({"run": "1"},),
        stream=False, full=4000, oracle=200, smoke=50),
    "catalog-stream": Scenario(
        build_catalog_aig, make_catalog_sources,
        default_middleware, tuple({"day": day} for day in CATALOG_DAYS),
        stream=True, full=100_000, oracle=500, smoke=250),
}


def close_sources(sources: dict) -> None:
    for source in sources.values():
        source.close()


def produce(scenario: Scenario, middleware: Middleware, root: dict):
    """One complete document, root attributes to last byte.

    Returns ``(sha256 hex, UTF-8 byte count)``; nothing of the document
    survives the call, so the next one starts from the same heap."""
    if scenario.stream:
        writer = DigestWriter()
        middleware.evaluate_stream(dict(root), writer.write, indent=INDENT)
        return writer.hexdigest(), writer.bytes
    report = middleware.evaluate(dict(root))
    data = serialize(report.document, indent=INDENT).encode("utf-8")
    return hashlib.sha256(data).hexdigest(), len(data)


class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def attempt(self, what: str, fn, *args):
        """Run one operation; an exception is a failure, not a crash."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as error:  # noqa: BLE001 - counted and reported
            self.failures.append(f"{what}: {type(error).__name__}: {error}")
            return None


def whole_rounds(seconds: float):
    """Yields once per round to run: the first always, a later one only if
    it would end within ``seconds``, taking the last round's length as its
    own — so a run's cost is known before it is made."""
    started, last = time.perf_counter(), 0.0
    while True:
        began = time.perf_counter()
        if last and began - started + last > seconds:
            return
        yield
        last = time.perf_counter() - began


def timed_loop(seconds: float, roots, one_document, tally: Tally,
               calibrator: Calibrator) -> dict:
    """Closed loop, one client: as many whole rounds over ``roots`` as fit
    into ``seconds`` (calibration bursts included), at least one.  Whole
    rounds keep every run's sample the same mix of documents, so the median
    does not depend on where the clock cut the last round."""
    out = {"wall": [], "cpu": [], "raw": [], "mb_per_s": [], "window": [],
           "round_docs_per_s": [], "digests": {}}
    for _ in whole_rounds(seconds):
        done_before = len(out["window"])
        for index, root in enumerate(roots):
            # the previous document is a parent<->child cycle; reclaim it
            # outside the document's window so each starts from one heap
            window_start = time.perf_counter()
            gc.collect()
            wall0, cpu0 = time.perf_counter(), time.process_time()
            made = tally.attempt(f"document {root}", one_document, root)
            wall1, cpu1 = time.perf_counter(), time.process_time()
            scale = calibrator.scale(wall1 - window_start)
            if made is None:
                continue
            digest, size = made
            out["raw"].append(wall1 - wall0)
            out["wall"].append((wall1 - wall0) * scale)
            out["cpu"].append((cpu1 - cpu0) * scale)
            out["window"].append((wall1 - window_start) * scale)
            out["mb_per_s"].append(size / 1e6 / out["wall"][-1])
            tally.check(out["digests"].setdefault(index, digest) == digest,
                        f"document {root} changed between rounds")
        this_round = out["window"][done_before:]
        if this_round:
            out["round_docs_per_s"].append(len(this_round) / sum(this_round))
    return out


def row(value, samples=None, raw=None) -> dict:
    """A result row: the headline value with the spread of its samples
    (a count or a derived figure is its own single sample); ``raw`` is the
    same statistic before calibration, in the box's own seconds."""
    summary = summarize([value] if samples is None else samples)
    out = {"value": value, "q1": summary["q1"], "q3": summary["q3"],
           "n": summary["n"]}
    if raw is not None:
        out["raw"] = raw
    return out


def median_row(samples, raw=None) -> dict:
    return row(summarize(samples)["median"], samples,
               summarize(raw)["median"] if raw else None)


def run_in_process(name: str, seed: int, seconds: float,
                   smoke: bool = False) -> dict:
    """Set-up, cold documents, the timed loop and the correctness gate of
    one in-process workload, tracing off."""
    scenario = SCENARIOS[name]
    size = scenario.smoke if smoke else scenario.full
    tally = Tally()
    calibrator = Calibrator()

    # a cheap set-up is a noisy one: repeat it until a second is spent
    setup, setup_raw, sources = [], [], None
    least, most = (1, 1) if smoke else (3, 12)
    while len(setup) < least or (sum(setup_raw) < 1.0 and len(setup) < most):
        if sources is not None:
            close_sources(sources)
        started = time.perf_counter()
        sources = scenario.make_sources(seed, size)
        setup_raw.append(time.perf_counter() - started)
        setup.append(setup_raw[-1] * calibrator.scale(setup_raw[-1]))
    aig = scenario.build_aig()

    cold, cold_raw = [], []

    def cold_document() -> Middleware:
        """A fresh ``Middleware`` (statistics, depth estimate, compile,
        optimise) through its first complete document."""
        gc.collect()
        started = time.perf_counter()
        fresh = scenario.middleware(aig, sources)
        tally.attempt("cold document", produce, scenario, fresh,
                      scenario.roots[0])
        cold_raw.append(time.perf_counter() - started)
        cold.append(cold_raw[-1] * calibrator.scale(cold_raw[-1]))
        return fresh

    # two before the loop, two after it: the box's speed drifts over
    # seconds, and back-to-back samples would all see one moment
    for _ in range(1 if smoke else 2):
        middleware = cold_document()
    loop = timed_loop(seconds, scenario.roots,
                      lambda root: produce(scenario, middleware, root),
                      tally, calibrator)
    rss = peak_rss_mb()
    for _ in range(0 if smoke else 2):
        cold_document()

    verify(scenario, aig, sources, middleware, loop["digests"], seed,
           smoke, tally)
    close_sources(sources)
    calibrator.close()

    rows = {
        "setup_s": median_row(setup, setup_raw),
        "cold_first_doc_s": median_row(cold, cold_raw),
        "doc_latency_p50_s": median_row(loop["wall"], loop["raw"]),
        "doc_cpu_p50_s": median_row(loop["cpu"]),
        "doc_mb_per_s": median_row(loop["mb_per_s"]),
        "requests_per_s": row(
            len(loop["window"]) / sum(loop["window"]) if loop["window"]
            else None, loop["round_docs_per_s"]),
        "peak_rss_mb": row(rss),
    }
    return {"rows": rows, "attempted": tally.attempted,
            "failures": tally.failures, "env": calibrator.stamp()}


def verify(scenario: Scenario, aig, sources, middleware, digests: dict,
           seed: int, smoke: bool, tally: Tally) -> None:
    """The correctness gate, run after ``peak_rss_mb`` was sampled.

    The timed loop already pinned every document's sha256 across rounds.
    Here two seeded roots are materialized once more: each must conform
    to the DTD, satisfy every constraint and serialize to the bytes the
    loop hashed (on ``catalog-stream`` that also pins stream == tree).
    One root must equal the conceptual evaluator, which shares no code
    with the optimized pipeline below the AIG."""
    roots = scenario.roots
    picked = [(seed + step) % len(roots) for step in range(min(2, len(roots)))]
    size = scenario.smoke if smoke else scenario.full
    oracle_size = scenario.smoke if smoke else scenario.oracle
    for index in picked:
        root = roots[index]
        report = tally.attempt(f"verify {root}", middleware.evaluate,
                               dict(root))
        if report is None:
            continue
        document = report.document
        tally.check(conforms_to(document, aig.dtd),
                    f"{root}: document does not conform to the DTD")
        tally.check(check_constraints(document, aig.constraints) == [],
                    f"{root}: constraint violations in the document")
        data = serialize(document, indent=INDENT).encode("utf-8")
        tally.check(hashlib.sha256(data).hexdigest() == digests.get(index),
                    f"{root}: bytes differ from the timed loop's")
        if index == picked[0] and oracle_size == size:
            expected = tally.attempt(
                "conceptual evaluation",
                ConceptualEvaluator(aig, list(sources.values())).evaluate,
                dict(root))
            tally.check(document == expected,
                        f"{root}: differs from ConceptualEvaluator")
        del report, document, data
    if oracle_size == size:
        return
    root = roots[picked[0]]
    reduced = scenario.make_sources(seed, oracle_size)
    try:
        expected = tally.attempt(
            "conceptual evaluation",
            ConceptualEvaluator(aig, list(reduced.values())).evaluate,
            dict(root))
        actual = tally.attempt("reduced-size evaluation",
                               scenario.middleware(aig, reduced).evaluate,
                               dict(root))
        tally.check(actual is not None and actual.document == expected,
                    f"{root}: reduced instance differs from "
                    f"ConceptualEvaluator")
    finally:
        close_sources(reduced)
