"""Cross-configuration equivalence oracle.

The conceptual one-sweep evaluation (§3.2) is the ground truth: its
document, serialized canonically, and its post-hoc constraint verdict
define what *every* optimized configuration must reproduce.  The oracle
evaluates one scenario under the full grid —

* middleware with merging on and off (both byte-compared against the
  conceptual document),
* abort-mode consistency (``violation_mode="abort"`` must raise exactly
  when the report-mode verdict is non-empty),
* incremental cold / warm / delta runs (the delta mutates the dataset by
  duplicating a row, then compares against a *fresh* conceptual baseline
  over the mutated data), and a return to the root after a run on other
  root values, which must replay every node,
* a fault-injected-then-recovered run (an ``error@1`` fault with a
  retry budget must leave the output untouched),
* sharded multi-process runs (``shards`` ∈ {2, 3, 4}, docs/SHARDING.md):
  byte-identical document, identical tree-checker verdict over the merged
  document, *and* an identical cross-shard *reconciled* verdict
  (``report.violations``), plus an abort-consistency probe at one shard
  count — non-partitionable scenarios fall back to the single-process
  path and still must byte-match,

and records a :class:`Divergence` for every mismatch in serialized XML,
DTD conformance, or constraint verdicts.  Every configuration gets a
fresh ``(AIG, sources)`` built from the spec so state cannot leak
between runs.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from repro.errors import EvaluationAborted, ReproError
from repro.fuzz.spec import ScenarioSpec, build_scenario

#: Middleware keyword grids compared byte-for-byte against the baseline.
GRID = [
    {"merging": True},
    {"merging": False},
]


def _config_name(kwargs: dict) -> str:
    return "merged" if kwargs["merging"] else "unmerged"


#: The grid rows plus the special configurations; with the latter's
#: sub-runs (incremental cold/warm/delta, 2/3/4 shards) one seed costs
#: ~15 configuration runs.
ALL_CONFIGS = tuple([_config_name(kwargs) for kwargs in GRID]
                    + ["abort-consistency", "incremental", "fault-recovery",
                       "streaming", "shards"])


@dataclass
class Divergence:
    """One observed disagreement between a configuration and the baseline."""

    config: str
    kind: str   # "xml" | "built-xml" | "conformance" | "violations" | ...
    detail: str

    def __str__(self) -> str:
        return f"[{self.config}] {self.kind}: {self.detail}"


@dataclass
class ConfigResult:
    config: str
    ok: bool
    detail: str = ""


@dataclass
class OracleReport:
    seed: int
    baseline_violations: list[str] = field(default_factory=list)
    results: list[ConfigResult] = field(default_factory=list)
    divergences: list[Divergence] = field(default_factory=list)
    #: what the merged plan's rewrite did: product nodes, and parameters
    #: bound where the producing query only projected them
    products: int = 0
    propagated: int = 0

    @property
    def ok(self) -> bool:
        return not self.divergences


# ----------------------------------------------------------------------
def _baseline(spec: ScenarioSpec):
    """Conceptual evaluation: (serialized xml, sorted violation strings)."""
    from repro.aig import ConceptualEvaluator
    from repro.constraints import check_constraints
    from repro.xmlmodel import conforms_to, serialize

    aig, sources = build_scenario(spec)
    evaluator = ConceptualEvaluator(aig, list(sources.values()),
                                    violation_mode="report")
    document = evaluator.evaluate(dict(spec.root_values))
    if not conforms_to(document, aig.dtd):
        raise ReproError("baseline conceptual document violates its DTD")
    xml = serialize(document, indent=2)
    verdict = sorted(str(v) for v in
                     check_constraints(document, aig.constraints))
    return xml, verdict


def _first_difference(expected: str, actual: str, context: int = 40) -> str:
    if len(expected) != len(actual):
        note = f"lengths {len(expected)} vs {len(actual)}; "
    else:
        note = ""
    limit = min(len(expected), len(actual))
    for i in range(limit):
        if expected[i] != actual[i]:
            lo = max(0, i - context)
            return (f"{note}first diff at byte {i}: "
                    f"...{expected[lo:i + context]!r} vs "
                    f"...{actual[lo:i + context]!r}")
    return f"{note}one output is a prefix of the other"


def _compare(report: OracleReport, config: str, xml: str,
             verdict: list[str], base_xml: str,
             base_verdict: list[str], conformant: bool,
             built_xml: str | None = None) -> None:
    ok = True
    if xml != base_xml:
        ok = False
        report.divergences.append(Divergence(
            config, "xml", _first_difference(base_xml, xml)))
    if built_xml is not None and built_xml != xml:
        ok = False
        report.divergences.append(Divergence(
            config, "built-xml", _first_difference(xml, built_xml)))
    if not conformant:
        ok = False
        report.divergences.append(Divergence(
            config, "conformance", "document does not conform to the DTD"))
    if verdict != base_verdict:
        ok = False
        report.divergences.append(Divergence(
            config, "violations",
            f"expected {base_verdict!r}, got {verdict!r}"))
    report.results.append(ConfigResult(config, ok))


def _evaluate_middleware(spec: ScenarioSpec, **kwargs):
    """One fresh middleware run → (xml, verdict, conformant, built xml,
    plan graph): written as ``evaluate`` leaves it and again once the
    checkers have built every fragment group, which must give the same
    bytes."""
    from repro.constraints import check_constraints
    from repro.runtime import Middleware
    from repro.xmlmodel import conforms_to, serialize

    aig, sources = build_scenario(spec)
    middleware = Middleware(aig, sources, violation_mode="report",
                            **kwargs)
    result = middleware.evaluate(dict(spec.root_values))
    document = result.document
    xml = serialize(document, indent=2)
    verdict = sorted(str(v) for v in
                     check_constraints(document, aig.constraints))
    return (xml, verdict, conforms_to(document, aig.dtd),
            serialize(document, indent=2), middleware.last_plan.graph)


# ----------------------------------------------------------------------
# special configurations
# ----------------------------------------------------------------------
def _check_abort_consistency(report: OracleReport, spec: ScenarioSpec,
                             base_verdict: list[str]) -> None:
    """``violation_mode="abort"`` must raise iff the verdict is non-empty."""
    from repro.runtime import Middleware

    config = "abort-consistency"
    aig, sources = build_scenario(spec)
    middleware = Middleware(aig, sources, violation_mode="abort")
    try:
        middleware.evaluate(dict(spec.root_values))
        aborted = False
    except EvaluationAborted:
        aborted = True
    expected = bool(base_verdict)
    if aborted != expected:
        report.divergences.append(Divergence(
            config, "abort",
            f"abort mode {'raised' if aborted else 'did not raise'} but "
            f"report mode found {len(base_verdict)} violation(s)"))
        report.results.append(ConfigResult(config, False))
    else:
        report.results.append(ConfigResult(config, True))


def _delta_table(spec: ScenarioSpec):
    """A table safe to mutate for the incremental delta run.

    Duplicating an existing row is always evaluable (value domains are
    unchanged), but tables backing choice *condition* queries and tables
    with declared keys are excluded: the former feed ``rows[0]`` selector
    lookups, the latter would reject duplicate keys at load time.
    """
    condition_tables = set()
    for rule in spec.rules.values():
        if rule.get("form") == "choice":
            text = rule["condition"]["query"]
            for table in spec.tables:
                if f":{table.name} " in text:
                    condition_tables.add((table.source, table.name))
    for table in spec.tables:
        if table.key or not table.rows:
            continue
        if (table.source, table.name) in condition_tables:
            continue
        return table
    return None


def _streamed(report: OracleReport, config: str, middleware,
              spec: ScenarioSpec, aig):
    """``evaluate_stream`` → (xml, the streaming checker's verdict).

    That stream is pretty-printed with the checker beside the serializer.
    A second one, compact with the serializer as the only sink — the path
    on which fragments go straight from the tagging program into the
    ``indent=None`` templates — is compared here, with the same
    middleware's tree.
    """
    import io
    from repro.xmlmodel import serialize

    root = spec.root_values
    buffer = io.StringIO()
    result = middleware.evaluate_stream(dict(root), buffer.write, indent=2,
                                        constraints=aig.constraints)
    alone = io.StringIO()
    middleware.evaluate_stream(dict(root), alone.write)
    expected = serialize(middleware.evaluate(dict(root)).document)
    if alone.getvalue() != expected:
        report.divergences.append(Divergence(
            config, "xml-compact",
            _first_difference(expected, alone.getvalue())))
    return buffer.getvalue(), sorted(str(v) for v in
                                     result.constraint_violations)


def _check_incremental(report: OracleReport, spec: ScenarioSpec,
                       base_xml: str, base_verdict: list[str]) -> None:
    """Cold, warm, and delta runs of one incremental middleware, the
    delta document also streamed through it; then a return to the root
    after a run on other root values, which must replay everything."""
    from repro.constraints import check_constraints
    from repro.runtime import Middleware
    from repro.xmlmodel import conforms_to, serialize

    aig, sources = build_scenario(spec)
    middleware = Middleware(aig, sources, violation_mode="report",
                            incremental=True)

    def run(tag: str, expected_xml: str, expected_verdict: list[str],
            root: dict = spec.root_values):
        result = middleware.evaluate(dict(root))
        document = result.document
        _compare(report, f"incremental-{tag}",
                 serialize(document, indent=2),
                 sorted(str(v) for v in
                        check_constraints(document, aig.constraints)),
                 expected_xml, expected_verdict,
                 conforms_to(document, aig.dtd))
        return result

    run("cold", base_xml, base_verdict)
    warm = run("warm", base_xml, base_verdict)
    if warm.queries_executed != 0:
        report.divergences.append(Divergence(
            "incremental-warm", "reuse",
            f"warm run executed {warm.queries_executed} query(ies), "
            f"expected 0"))

    table = _delta_table(spec)
    current = spec.clone()      # the scenario as the live sources hold it
    if table is None:
        report.results.append(ConfigResult(
            "incremental-delta", True, "skipped: no mutable table"))
        delta_xml, delta_verdict = base_xml, base_verdict
    else:
        duplicated = table.rows[0]
        current.table(table.source, table.name).rows.append(duplicated)
        delta_xml, delta_verdict = _baseline(current)
        # mutate the live source the incremental middleware is watching
        sources[table.source].load_rows(table.name, [duplicated])
        run("delta", delta_xml, delta_verdict)
        # byte equality with the conformant baseline implies conformance
        _compare(report, "incremental-delta-stream",
                 *_streamed(report, "incremental-delta-stream", middleware,
                            spec, aig),
                 delta_xml, delta_verdict, conformant=True)

    if not spec.root_values:
        report.results.append(ConfigResult(
            "incremental-return", True, "skipped: no root attributes"))
        return
    # another root in between, on values no table holds, must not evict
    # this root's entries; a root the conceptual evaluator refuses (a
    # choice condition with no value) must be refused here too
    held = {value for relation in current.tables for row in relation.rows
            for value in row}
    other_root = {}
    for name, value in spec.root_values.items():
        other_root[name] = f"{value}~"
        while other_root[name] in held:
            other_root[name] += "~"
    current.root_values = other_root
    try:
        other_xml, other_verdict = _baseline(current)
    except ReproError:
        try:
            middleware.evaluate(dict(other_root))
        except ReproError:
            pass
        else:
            report.divergences.append(Divergence(
                "incremental-other", "error",
                "answered a root the conceptual evaluator refuses"))
    else:
        run("other", other_xml, other_verdict, other_root)
    back = run("return", delta_xml, delta_verdict)
    if back.queries_executed != 0:
        report.divergences.append(Divergence(
            "incremental-return", "reuse",
            f"return to the root executed {back.queries_executed} "
            f"query(ies), expected 0"))


def _check_fault_recovery(report: OracleReport, spec: ScenarioSpec,
                          base_xml: str, base_verdict: list[str]) -> None:
    """An injected first-statement error plus retries must be invisible."""
    from repro.constraints import check_constraints
    from repro.resilience import FaultInjector, RetryPolicy
    from repro.runtime import Middleware
    from repro.xmlmodel import conforms_to, serialize

    config = "fault-recovery"
    aig, sources = build_scenario(spec)
    faulted = spec.tables[0].source if spec.tables else None
    if faulted is None:
        report.results.append(ConfigResult(config, True, "skipped: no "
                                           "tables"))
        return
    # Construct first: the constructor's statistics scan (COUNT(*) per
    # relation) is not a retried query path, so the injector must only
    # see the evaluation itself.
    middleware = Middleware(
        aig, sources, violation_mode="report",
        retry_policy=RetryPolicy(retries=2, base_delay=0.0,
                                 max_delay=0.0, jitter=0.0,
                                 seed=spec.seed))
    injector = FaultInjector.from_spec(f"{faulted}:error@1",
                                       seed=spec.seed)
    injector.install(sources)
    # the injected fault *will* fire and be retried — don't let the
    # executor's expected retry warning spam every fuzz iteration
    executor_logger = logging.getLogger("repro.executor")
    previous_level = executor_logger.level
    executor_logger.setLevel(logging.ERROR)
    try:
        result = middleware.evaluate(dict(spec.root_values))
    finally:
        executor_logger.setLevel(previous_level)
        injector.uninstall(sources)
    document = result.document
    _compare(report, config, serialize(document, indent=2),
             sorted(str(v) for v in
                    check_constraints(document, aig.constraints)),
             base_xml, base_verdict, conforms_to(document, aig.dtd))


def _check_streaming(report: OracleReport, spec: ScenarioSpec,
                     base_xml: str, base_verdict: list[str]) -> None:
    """The streaming data plane (``evaluate_stream``) must write
    byte-identical XML and the streaming constraint checker must return
    the same verdicts — without ever materializing the tree."""
    from repro.runtime import Middleware

    aig, sources = build_scenario(spec)
    middleware = Middleware(aig, sources, violation_mode="report")
    # byte equality with the conformant baseline implies conformance
    _compare(report, "streaming",
             *_streamed(report, "streaming", middleware, spec, aig),
             base_xml, base_verdict, conformant=True)


def _check_sharded(report: OracleReport, spec: ScenarioSpec,
                   base_xml: str, base_verdict: list[str]) -> None:
    """Sharded multi-process runs at several shard counts.

    Three-way comparison per count: the merged document's bytes, the
    tree checker's verdict over it, and — the actual reconcile test —
    the cross-shard *reconciled* verdict the middleware returns in
    ``report.violations``.  Scenarios with no eligible partition
    production run the single-process fallback (``result.shards == 1``)
    and are still byte-compared.
    """
    from repro.constraints import check_constraints
    from repro.runtime import Middleware
    from repro.xmlmodel import conforms_to, serialize

    for shards in (2, 3, 4):
        config = f"shards-{shards}"
        try:
            aig, sources = build_scenario(spec)
            middleware = Middleware(aig, sources, violation_mode="report",
                                    shards=shards)
            result = middleware.evaluate(dict(spec.root_values))
        except ReproError as error:
            report.divergences.append(Divergence(
                config, "error", f"{type(error).__name__}: {error}"))
            report.results.append(ConfigResult(config, False))
            continue
        document = result.document
        verdict = sorted(str(v) for v in
                         check_constraints(document, aig.constraints))
        if result.shards > 1:
            reconciled = sorted(str(v) for v in result.violations)
            if reconciled != base_verdict:
                report.divergences.append(Divergence(
                    config, "violations",
                    f"reconciled verdict: expected {base_verdict!r}, "
                    f"got {reconciled!r}"))
        _compare(report, config, serialize(document, indent=2), verdict,
                 base_xml, base_verdict, conforms_to(document, aig.dtd))

    # abort mode through the sharded path must raise exactly when the
    # reconciled verdict is non-empty
    config = "shards-abort"
    try:
        aig, sources = build_scenario(spec)
        middleware = Middleware(aig, sources, violation_mode="abort",
                                shards=2)
        try:
            middleware.evaluate(dict(spec.root_values))
            aborted = False
        except EvaluationAborted:
            aborted = True
    except ReproError as error:
        report.divergences.append(Divergence(
            config, "error", f"{type(error).__name__}: {error}"))
        report.results.append(ConfigResult(config, False))
        return
    expected = bool(base_verdict)
    if aborted != expected:
        report.divergences.append(Divergence(
            config, "abort",
            f"sharded abort mode {'raised' if aborted else 'did not raise'} "
            f"but report mode found {len(base_verdict)} violation(s)"))
        report.results.append(ConfigResult(config, False))
    else:
        report.results.append(ConfigResult(config, True))


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def run_oracle(spec: ScenarioSpec,
               configs: tuple[str, ...] | None = None) -> OracleReport:
    """Evaluate ``spec`` under the configuration grid.

    ``configs`` restricts the run to a subset of :data:`ALL_CONFIGS`
    (the shrinker uses this to re-check only the configurations that
    diverged).  Errors raised by a configuration are recorded as
    divergences of kind ``"error"`` rather than propagated — a crash in
    one strategy is itself a differential finding.
    """
    report = OracleReport(seed=spec.seed)
    base_xml, base_verdict = _baseline(spec)
    report.baseline_violations = base_verdict

    wanted = set(configs) if configs is not None else None

    def selected(name: str) -> bool:
        if wanted is None:
            return True
        return any(name == want or name.startswith(want + "-")
                   or want.startswith(name) for want in wanted)

    for kwargs in GRID:
        name = _config_name(kwargs)
        if not selected(name):
            continue
        try:
            xml, verdict, conformant, built_xml, graph = \
                _evaluate_middleware(spec, **kwargs)
        except ReproError as error:
            report.divergences.append(Divergence(
                name, "error", f"{type(error).__name__}: {error}"))
            report.results.append(ConfigResult(name, False))
            continue
        if kwargs["merging"]:
            report.products = sum(node.kind == "product"
                                  for node in graph.nodes.values())
            report.propagated = graph.propagated
        _compare(report, name, xml, verdict, base_xml, base_verdict,
                 conformant, built_xml)

    if selected("abort-consistency"):
        try:
            _check_abort_consistency(report, spec, base_verdict)
        except ReproError as error:
            report.divergences.append(Divergence(
                "abort-consistency", "error",
                f"{type(error).__name__}: {error}"))
    if selected("incremental"):
        try:
            _check_incremental(report, spec, base_xml, base_verdict)
        except ReproError as error:
            report.divergences.append(Divergence(
                "incremental", "error", f"{type(error).__name__}: {error}"))
    if selected("fault-recovery"):
        try:
            _check_fault_recovery(report, spec, base_xml, base_verdict)
        except ReproError as error:
            report.divergences.append(Divergence(
                "fault-recovery", "error",
                f"{type(error).__name__}: {error}"))
    if selected("streaming"):
        try:
            _check_streaming(report, spec, base_xml, base_verdict)
        except ReproError as error:
            report.divergences.append(Divergence(
                "streaming", "error", f"{type(error).__name__}: {error}"))
    if selected("shards"):
        _check_sharded(report, spec, base_xml, base_verdict)
    return report
