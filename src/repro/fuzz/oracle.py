"""Cross-configuration equivalence oracle.

The conceptual one-sweep evaluation (§3.2) is the ground truth: its
document, serialized canonically, and its post-hoc constraint verdict
define what *every* optimized configuration must reproduce.  A
middleware run declares the scenario's constraints, so it must be
refused exactly when that verdict is non-empty, naming exactly the
constraints the verdict names; the document a refused configuration
would have derived is then taken from the same configuration over the
AIG with its constraints removed (a guard never changes a document,
§3.3) and judged by the checker.  The oracle evaluates one scenario
under the full grid —

* middleware with merging on and off (both byte-compared against the
  conceptual document),
* incremental cold / warm / delta runs (the delta mutates the dataset by
  duplicating a row, then compares against a *fresh* conceptual baseline
  over the mutated data), and a return to the root after a run on other
  root values, which must replay every node,
* a fault-refusal run (an ``error@1`` fault ends the run in
  :class:`~repro.errors.SourceUnavailableError` naming the source, every
  source keeps the table set it started with, and the next run, with the
  injector uninstalled, writes the baseline bytes),
* the streaming data plane (the same bytes, none of them written by a
  refused run),
* sharded multi-process runs (``shards`` ∈ {2, 3, 4}, docs/SHARDING.md):
  byte-identical document and tree-checker verdict over the merged
  document, and a refusal whose located, cross-shard *reconciled*
  violations equal the baseline verdict string for string —
  non-partitionable scenarios fall back to the single-process path and
  still must byte-match,

and records a :class:`Divergence` for every mismatch in serialized XML,
DTD conformance, constraint verdicts or refusals.  Every configuration
gets a fresh ``(AIG, sources)`` built from the spec so state cannot leak
between runs.
"""

from __future__ import annotations

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
#: ~14 configuration runs.
ALL_CONFIGS = tuple([_config_name(kwargs) for kwargs in GRID]
                    + ["incremental", "fault-refusal", "streaming",
                       "shards"])


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


@dataclass(frozen=True)
class Baseline:
    """What the conceptual evaluation of one scenario derives."""

    xml: str
    #: ``check_constraints`` over its document, as sorted strings
    verdict: list[str]
    #: the constraints that verdict names, sorted
    named: list[str]


# ----------------------------------------------------------------------
def _baseline(spec: ScenarioSpec) -> Baseline:
    """Conceptual evaluation, judged by the tree checker."""
    from repro.aig import ConceptualEvaluator
    from repro.constraints import check_constraints
    from repro.xmlmodel import conforms_to, serialize

    aig, sources = build_scenario(spec)
    evaluator = ConceptualEvaluator(aig, list(sources.values()),
                                    violation_mode="report")
    document = evaluator.evaluate(dict(spec.root_values))
    if not conforms_to(document, aig.dtd):
        raise ReproError("baseline conceptual document violates its DTD")
    found = check_constraints(document, aig.constraints)
    return Baseline(serialize(document, indent=2),
                    sorted(str(v) for v in found),
                    sorted({str(v.constraint) for v in found}))


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


def _compare(report: OracleReport, config: str, base: Baseline, xml: str,
             verdict: list[str] | None = None, conformant: bool = True,
             built_xml: str | None = None) -> None:
    """``xml`` against the baseline's bytes and, when given, ``verdict``
    against its verdict (byte equality with the conformant baseline
    implies both conformance and the verdict)."""
    ok = True
    if xml != base.xml:
        ok = False
        report.divergences.append(Divergence(
            config, "xml", _first_difference(base.xml, xml)))
    if built_xml is not None and built_xml != xml:
        ok = False
        report.divergences.append(Divergence(
            config, "built-xml", _first_difference(xml, built_xml)))
    if not conformant:
        ok = False
        report.divergences.append(Divergence(
            config, "conformance", "document does not conform to the DTD"))
    if verdict is not None and verdict != base.verdict:
        ok = False
        report.divergences.append(Divergence(
            config, "violations",
            f"expected {base.verdict!r}, got {verdict!r}"))
    report.results.append(ConfigResult(config, ok))


def _judged(document, aig):
    """(indented xml, sorted tree-checker verdict, conformance)."""
    from repro.constraints import check_constraints
    from repro.xmlmodel import conforms_to, serialize

    return (serialize(document, indent=2),
            sorted(str(v) for v in
                   check_constraints(document, aig.constraints)),
            conforms_to(document, aig.dtd))


def _pair(aig, sources, **kwargs):
    """A middleware over ``aig`` and one over it with no constraint, on
    the same sources: the run that may be refused, and the one that
    derives the document a refused run would have."""
    from repro.runtime import Middleware

    return (Middleware(aig, sources, **kwargs),
            Middleware(aig.without_constraints(), sources, **kwargs))


def _checked(report: OracleReport, config: str, base: Baseline, pair,
             run, located: bool = False):
    """``run(middleware)`` on the middleware declaring the constraints;
    where that is refused, on the one declaring none.

    A refusal must happen iff ``base`` finds a violation, and name the
    constraints it names — with ``located`` (a sharded run's reconciled
    verdict), every violation it finds, string for string.
    """
    checked, unchecked = pair
    try:
        outcome = run(checked)
    except EvaluationAborted as refusal:
        if located:
            named = sorted(str(v) for v in refusal.violations)
            expected = base.verdict
        else:
            named = sorted({str(v) for v in refusal.violations})
            expected = base.named
        if named != expected:
            report.divergences.append(Divergence(
                config, "refusal",
                f"refused naming {named!r}, the baseline {expected!r}"))
        return run(unchecked)
    if base.verdict:
        report.divergences.append(Divergence(
            config, "refusal",
            f"not refused, the baseline finds {base.verdict!r}"))
    return outcome


def _evaluate_middleware(report: OracleReport, config: str,
                         spec: ScenarioSpec, base: Baseline, **kwargs):
    """One fresh middleware run → (xml, verdict, conformant, built xml,
    plan graph): written as ``evaluate`` leaves it and again once the
    checkers have built every fragment group, which must give the same
    bytes."""
    from repro.xmlmodel import serialize

    aig, sources = build_scenario(spec)
    middleware, result = _checked(
        report, config, base, _pair(aig, sources, **kwargs),
        lambda middleware: (middleware,
                            middleware.evaluate(dict(spec.root_values))))
    document = result.document
    return (*_judged(document, aig), serialize(document, indent=2),
            middleware.last_plan.graph)


# ----------------------------------------------------------------------
# special configurations
# ----------------------------------------------------------------------
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


def _check_streamed(report: OracleReport, config: str, pair,
                    spec: ScenarioSpec, base: Baseline) -> None:
    """``evaluate_stream`` must write the baseline's bytes, and a refused
    stream none.

    That stream is pretty-printed.  A second one, compact — the path on
    which fragments go straight from the tagging program into the
    ``indent=None`` templates — is compared here with the tree of the
    middleware that wrote the first.
    """
    import io
    from repro.xmlmodel import serialize

    root = spec.root_values
    buffer = io.StringIO()

    def stream(middleware):
        if buffer.tell():
            report.divergences.append(Divergence(
                config, "refusal",
                f"a refused stream wrote {buffer.tell()} character(s)"))
            buffer.seek(0)
            buffer.truncate()
        middleware.evaluate_stream(dict(root), buffer.write, indent=2)
        return middleware

    middleware = _checked(report, config, base, pair, stream)
    alone = io.StringIO()
    middleware.evaluate_stream(dict(root), alone.write)
    expected = serialize(middleware.evaluate(dict(root)).document)
    if alone.getvalue() != expected:
        report.divergences.append(Divergence(
            config, "xml-compact",
            _first_difference(expected, alone.getvalue())))
    _compare(report, config, base, buffer.getvalue())


def _check_incremental(report: OracleReport, spec: ScenarioSpec,
                       base: Baseline) -> None:
    """Cold, warm, and delta runs of one incremental middleware, the
    delta document also streamed through it; then a return to the root
    after a run on other root values, which must replay everything.

    A run that is refused goes to an incremental middleware declaring no
    constraint, on the same sources; a run and its repeat (warm after
    cold, return after delta) share a verdict, so they go to the same
    one, and the repeat's reuse is that middleware's."""
    aig, sources = build_scenario(spec)
    pair = _pair(aig, sources, incremental=True)

    def run(tag: str, expected: Baseline, root: dict = spec.root_values):
        config = f"incremental-{tag}"
        result = _checked(report, config, expected, pair,
                          lambda middleware: middleware.evaluate(dict(root)))
        xml, verdict, conformant = _judged(result.document, aig)
        _compare(report, config, expected, xml, verdict, conformant)
        return result

    run("cold", base)
    warm = run("warm", base)
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
        delta = base
    else:
        duplicated = table.rows[0]
        current.table(table.source, table.name).rows.append(duplicated)
        delta = _baseline(current)
        # mutate the live source the incremental middlewares are watching
        sources[table.source].load_rows(table.name, [duplicated])
        run("delta", delta)
        _check_streamed(report, "incremental-delta-stream", pair, spec,
                        delta)

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
        other = _baseline(current)
    except ReproError:
        try:
            pair[0].evaluate(dict(other_root))
        except ReproError:
            pass
        else:
            report.divergences.append(Divergence(
                "incremental-other", "error",
                "answered a root the conceptual evaluator refuses"))
    else:
        run("other", other, other_root)
    back = run("return", delta)
    if back.queries_executed != 0:
        report.divergences.append(Divergence(
            "incremental-return", "reuse",
            f"return to the root executed {back.queries_executed} "
            f"query(ies), expected 0"))


def _check_fault_refusal(report: OracleReport, spec: ScenarioSpec,
                         base: Baseline) -> None:
    """An injected first-statement error is refused, leaves no table
    behind, and the next run is whole."""
    from repro.errors import SourceUnavailableError
    from repro.resilience import FaultInjector

    config = "fault-refusal"
    aig, sources = build_scenario(spec)
    faulted = spec.tables[0].source if spec.tables else None
    if faulted is None:
        report.results.append(ConfigResult(config, True, "skipped: no "
                                           "tables"))
        return
    pair = _pair(aig, sources)
    middleware = pair[0]
    everything = {**sources, middleware.mediator.name: middleware.mediator}
    tables = {name: source.table_names()
              for name, source in everything.items()}
    injector = FaultInjector.from_spec(f"{faulted}:error@1").install(sources)
    refusal = None
    try:
        middleware.evaluate(dict(spec.root_values))
    except SourceUnavailableError as error:
        refusal = error
    finally:
        injector.uninstall(sources)
    problem = None
    if injector.fired and (refusal is None
                           or repr(faulted) not in str(refusal)):
        problem = (f"the fault on {faulted!r} fired but the run ended in "
                   f"{refusal!r}")
    elif refusal is not None and not injector.fired:
        problem = f"refused with no fault fired: {refusal}"
    else:
        left = {name: source.table_names()
                for name, source in everything.items()}
        if left != tables:
            problem = f"tables before {tables!r}, after {left!r}"
    if problem is not None:
        report.divergences.append(Divergence(config, "refusal", problem))
        report.results.append(ConfigResult(config, False))
        return
    result = _checked(report, config, base, pair,
                      lambda middleware: middleware.evaluate(
                          dict(spec.root_values)))
    _compare(report, config, base, *_judged(result.document, aig))


def _check_streaming(report: OracleReport, spec: ScenarioSpec,
                     base: Baseline) -> None:
    """The streaming data plane (``evaluate_stream``) must write
    byte-identical XML without ever materializing the tree."""
    aig, sources = build_scenario(spec)
    _check_streamed(report, "streaming", _pair(aig, sources), spec, base)


def _check_sharded(report: OracleReport, spec: ScenarioSpec,
                   base: Baseline) -> None:
    """Sharded multi-process runs at several shard counts.

    Per count: the merged document's bytes and the tree checker's
    verdict over it, and — the actual reconcile test — a refusal's
    cross-shard *reconciled* violations, which must equal the baseline
    verdict string for string.  Scenarios with no eligible partition
    production run the single-process fallback (``result.shards == 1``,
    a refusal naming constraints) and are still byte-compared.
    """
    from repro.runtime.sharding import find_partition

    for shards in (2, 3, 4):
        config = f"shards-{shards}"
        try:
            aig, sources = build_scenario(spec)
            result = _checked(
                report, config, base, _pair(aig, sources, shards=shards),
                lambda middleware: middleware.evaluate(
                    dict(spec.root_values)),
                located=find_partition(aig) is not None)
        except ReproError as error:
            report.divergences.append(Divergence(
                config, "error", f"{type(error).__name__}: {error}"))
            report.results.append(ConfigResult(config, False))
            continue
        _compare(report, config, base, *_judged(result.document, aig))


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
    base = _baseline(spec)
    report.baseline_violations = base.verdict

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
                _evaluate_middleware(report, name, spec, base, **kwargs)
        except ReproError as error:
            report.divergences.append(Divergence(
                name, "error", f"{type(error).__name__}: {error}"))
            report.results.append(ConfigResult(name, False))
            continue
        if kwargs["merging"]:
            report.products = sum(node.kind == "product"
                                  for node in graph.nodes.values())
            report.propagated = graph.propagated
        _compare(report, name, base, xml, verdict, conformant, built_xml)

    for name, check in (("incremental", _check_incremental),
                        ("fault-refusal", _check_fault_refusal),
                        ("streaming", _check_streaming)):
        if not selected(name):
            continue
        try:
            check(report, spec, base)
        except ReproError as error:
            report.divergences.append(Divergence(
                name, "error", f"{type(error).__name__}: {error}"))
    if selected("shards"):
        _check_sharded(report, spec, base)
    return report
