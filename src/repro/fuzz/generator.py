"""Seeded random AIG scenarios (grammar + schemas + rules + data).

The generator grows a random simplified DTD top-down and, at the same
time, invents the relational schema and the rows that make the grammar
evaluable: every star production gets a backing table whose parent-key
column is drawn from the exact set of values that can flow into the
binding parameter at evaluation time, every choice production gets a
condition table covering every reachable selector value, and recursion is
driven by layered DAGs so derivations terminate.  The result is a
:class:`~repro.fuzz.spec.ScenarioSpec` that

* builds into a valid, type-checked AIG (``aig.validate()`` passes),
* evaluates cleanly under the conceptual one-sweep semantics, and
* satisfies its own generated key/inclusion constraints — unless
  ``violate=True``, which injects a targeted violation the way
  ``datagen.generator.violate_*`` does for the hospital schema.

Structural patterns drawn (weighted, budgeted by a production count):

* record sequences of PCDATA leaves (copies of inherited scalars and
  constants),
* nested sequences,
* star productions with single- or multi-source (decomposable) iteration
  queries, optional parameter pass-through (the paper's Q1 ``$date``),
  which may pass a constant-valued member through, optional literal
  filter predicates, and nested ones left unbound (a query that reads
  nothing of its parent, run once and paired with every parent row),
* choice productions with data-driven condition queries,
* recursive star productions over a layered DAG (the ``procedure``
  pattern, generalized),
* the collector/consumer pattern (synthesized set built with
  singleton/∪/⊔, consumed by a sibling's ``IN $set`` query — the
  hospital ``treatments``/``bill`` context dependency), which also
  carries the generated key + inclusion constraints.

Certification: :func:`generate_scenario` builds each candidate and runs
the conceptual evaluator once; a candidate that fails (generator bug, or
a degenerate empty document) is discarded and regenerated from a derived
sub-seed, so callers only ever see scenarios with a well-defined
baseline.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.datagen.values import (
    layered_dag,
    rows_per_key,
    stable_rng,
    value_pool,
)
from repro.errors import ReproError
from repro.fuzz.spec import ScenarioSpec, TableSpec


class FuzzGenerationError(ReproError):
    """No certifiable scenario could be generated for a seed."""


@dataclass(frozen=True)
class FuzzProfile:
    """Knobs bounding the generated scenarios."""

    min_productions: int = 5
    max_productions: int = 14
    max_depth: int = 3          # container nesting below the root
    max_sources: int = 3
    max_fanout: int = 3         # star rows per parent value
    max_leaves: int = 3         # PCDATA leaves per record sequence
    dag_layers: int = 4         # recursion depth bound
    min_document_nodes: int = 4  # certification: reject trivial documents


DEFAULT_PROFILE = FuzzProfile()

#: The share of pooled values carrying a :data:`MARKUP` tail, drawn from
#: their own stream so that the scenario shapes do not depend on it: a
#: column then holds nothing to escape, or something.
MARKUP_SHARE = 0.3
MARKUP = ["&", "<", ">", '"', "'", "&<>\"'", "&amp;"]

#: The share of nested stars whose query reads no parent value (no
#: ``$bind`` on the parent key), and the share of nested sequences that
#: hand their structural child one more member, assigned a constant — the
#: constant a pass-through below may project.  Both are drawn from their
#: own stream, so a scenario that draws neither keeps its shape.
UNBOUND_SHARE = 0.3
CONSTANT_SHARE = 0.3
#: The share of stars below a pass-through that bind the passed member,
#: from the same stream: where that member's value is a root value or a
#: constant, the query binds it and reads no copy of it.
PASSED_BIND_SHARE = 0.9


# ----------------------------------------------------------------------
# the builder
# ----------------------------------------------------------------------
class _Builder:
    def __init__(self, seed: int, profile: FuzzProfile, violate: bool):
        self.rng = stable_rng("fuzz-scenario", seed)
        self.markup_rng = stable_rng("fuzz-markup", seed)
        self.rewrite_rng = stable_rng("fuzz-rewrite", seed)
        #: members some star query passed through (``$m as m``)
        self.passed: set[str] = set()
        self.profile = profile
        self.violate = violate
        self.seed = seed
        self.productions: list[tuple[str, str]] = []
        self.tables: list[TableSpec] = []
        self.inh_schemas: dict[str, dict] = {}
        self.syn_schemas: dict[str, dict] = {}
        self.rules: dict[str, dict] = {}
        self.constraints: list[dict] = []
        self.notes: dict = {"patterns": []}
        self.sources = [f"S{i + 1}"
                        for i in range(self.rng.randint(
                            1, profile.max_sources))]
        self._counter = 0
        self.budget = self.rng.randint(profile.min_productions,
                                       profile.max_productions)
        #: set when ``violate`` injected its perturbation
        self.violated: str | None = None

    # -- identifiers ---------------------------------------------------
    def _n(self) -> int:
        self._counter += 1
        return self._counter

    def _element_name(self) -> str:
        return f"e{self._n()}"

    def _leaf_name(self) -> str:
        return f"v{self._n()}"

    def _table_name(self) -> str:
        return f"t{self._n()}"

    def _source(self) -> str:
        return self.rng.choice(self.sources)

    def _values(self, count: int) -> list[str]:
        rng = self.markup_rng
        return [value + rng.choice(MARKUP)
                if rng.random() < MARKUP_SHARE else value
                for value in value_pool(f"x{self._n()}_", count)]

    # -- top level -----------------------------------------------------
    def build(self) -> ScenarioSpec:
        root_value = "r000"
        scalars = {"k0": [root_value]}
        self.budget -= 1
        if self.rng.random() < 0.5:
            self._star("root", scalars, depth=0)
        else:
            self._sequence("root", scalars, depth=0)
        # parse_dtd takes the first declared element as the root; sequence
        # builders append parents after their children, so reorder.
        self.productions.sort(key=lambda entry: entry[0] != "root")
        dtd_text = "\n".join(f"<!ELEMENT {name} {rhs}>"
                             for name, rhs in self.productions)
        return ScenarioSpec(
            seed=self.seed,
            dtd_text=dtd_text,
            root_inh=("k0",),
            root_values={"k0": root_value},
            tables=self.tables,
            inh_schemas=self.inh_schemas,
            syn_schemas=self.syn_schemas,
            rules=self.rules,
            constraints=self.constraints,
            notes=self.notes)

    # -- dispatch ------------------------------------------------------
    def _element(self, name: str, scalars: dict[str, list[str]],
                 depth: int) -> None:
        """Declare element ``name`` with the given inherited scalars
        (member -> exact domain of values that can flow in)."""
        self.budget -= 1
        if depth >= self.profile.max_depth or self.budget <= 0:
            self._sequence(name, scalars, depth, leaves_only=True)
            return
        roll = self.rng.random()
        if roll < 0.35:
            self._sequence(name, scalars, depth)
        elif roll < 0.60:
            self._star(name, scalars, depth)
        elif roll < 0.75 and scalars:
            self._choice(name, scalars, depth)
        elif roll < 0.85 and self.budget >= 2:
            self._recursive(name, scalars)
        else:
            self._sequence(name, scalars, depth, leaves_only=True)

    def _declare_inh(self, name: str,
                     scalars: dict[str, list[str]],
                     sets: dict[str, tuple[str, ...]] | None = None) -> None:
        entry: dict = {}
        if scalars:
            entry["scalars"] = list(scalars)
        if sets:
            entry["sets"] = {member: list(fields)
                             for member, fields in sets.items()}
        if entry and name != "root":
            self.inh_schemas[name] = entry

    # -- leaves --------------------------------------------------------
    def _leaf(self, scalars: dict[str, list[str]]
              ) -> tuple[str, dict]:
        """A PCDATA leaf copying a random inherited scalar (or a
        constant); returns ``(leaf_name, inh-function-spec)``."""
        name = self._leaf_name()
        if scalars and self.rng.random() < 0.8:
            member = self.rng.choice(sorted(scalars))
            func = {"assign": {"val": {"inh": member}}}
        else:
            func = {"assign": {"val": {"const": f"lit{self._n()}"}}}
        return name, func

    # -- sequences -----------------------------------------------------
    def _sequence(self, name: str, scalars: dict[str, list[str]],
                  depth: int, leaves_only: bool = False) -> None:
        self._declare_inh(name, scalars)
        children: list[str] = []
        inh_rules: dict[str, dict] = {}

        def add_leaves(count: int) -> None:
            for _ in range(count):
                leaf, func = self._leaf(scalars)
                children.append(leaf)
                inh_rules[leaf] = func

        add_leaves(self.rng.randint(1, self.profile.max_leaves))
        # A violation-injected seed puts the constraint-carrying pattern
        # in the first sequence that can hold it, and draws the rest of
        # its tree as a clean seed does.
        if scalars and (self.violate and self.violated is None
                        or not leaves_only and self.budget >= 4
                        and self.rng.random() < 0.45):
            self._collector_consumer(name, scalars, children, inh_rules)
        if not leaves_only and self.budget > 0 \
                and self.rng.random() < 0.75:
            # one nested structural child carrying a scalar subset
            child = self._element_name()
            carried = {member: domain
                       for member, domain in scalars.items()
                       if self.rng.random() < 0.7}
            children.append(child)
            assigned = {member: {"inh": member} for member in carried}
            if self.rewrite_rng.random() < CONSTANT_SHARE:
                member, value = f"k{self._n()}", f"lit{self._n()}"
                carried[member], assigned[member] = [value], {"const": value}
            if carried:
                inh_rules[child] = {"assign": assigned}
            self._element(child, carried, depth + 1)
        if not leaves_only and self.budget > 0 \
                and self.rng.random() < 0.2:
            # an EMPTY child (no attributes, default rule)
            child = self._element_name()
            children.append(child)
            self.budget -= 1
            self.productions.append((child, "EMPTY"))
        rhs = "(" + ", ".join(children) + ")"
        self.productions.append((name, rhs))
        self.rules[name] = {"form": "seq", "inh": inh_rules}

    # -- star productions ----------------------------------------------
    def _star(self, name: str, scalars: dict[str, list[str]],
              depth: int) -> None:
        """``name -> item*`` over a fresh backing table."""
        self._declare_inh(name, scalars)
        item = self._element_name()
        item_scalars, query = self._iteration_query(scalars,
                                                    at_root=(name == "root"))
        self.productions.append((name, f"({item}*)"))
        self.rules[name] = {"form": "star", "child": item,
                            "child_query": query}
        self._element(item, item_scalars, depth + 1)

    def _iteration_query(self, scalars: dict[str, list[str]],
                         at_root: bool = False
                         ) -> tuple[dict[str, list[str]], dict]:
        """A star iteration query + the child scalars/domains it yields."""
        rng = self.rng
        bind = sorted(scalars)[rng.randrange(len(scalars))] if scalars \
            else None
        passed = sorted(self.passed.intersection(scalars))
        if passed and self.rewrite_rng.random() < PASSED_BIND_SHARE:
            bind = self.rewrite_rng.choice(passed)
        n_cols = rng.randint(1, 3)
        columns = [f"c{self._n()}" for _ in range(n_cols)]
        table = TableSpec(source=self._source(), name=self._table_name(),
                         columns=tuple((["pk"] if bind else []) + columns))
        if bind:
            parents = rows_per_key(scalars[bind], rng,
                                   min_rows=1 if at_root else 0,
                                   max_rows=self.profile.max_fanout)
        else:
            parents = [None] * rng.randint(1, 4)
        # First data column is id-like (unique), the rest draw from small
        # shared pools so duplicates and selective filters show up.
        ids = self._values(max(len(parents), 1))
        pools = [self._values(3) for _ in columns[1:]]
        for i, parent in enumerate(parents):
            row = ([parent] if bind else []) + [ids[i]] + [
                rng.choice(pool) for pool in pools]
            table.rows.append(tuple(row))
        self.tables.append(table)

        selects = [f"t0.{column} as {column}" for column in columns]
        froms = [f"{table.source}:{table.name} t0"]
        # every row under every parent where the parent key goes unread
        unbound = (bind and not at_root
                   and self.rewrite_rng.random() < UNBOUND_SHARE)
        where = [f"t0.pk = ${bind}"] if bind and not unbound else []
        item_scalars: dict[str, list[str]] = {
            columns[0]: [row[1 if bind else 0] for row in table.rows]}
        for offset, column in enumerate(columns[1:]):
            item_scalars[column] = pools[offset][:]

        if rng.random() < 0.35 and len(columns) > 1:
            # a literal filter on a pooled column (selective but safe)
            column = rng.choice(columns[1:])
            pool = item_scalars[column]
            kept = rng.choice(pool)
            op = rng.choice(["=", "<>"])
            quoted = kept.replace("'", "''")
            where.append(f"t0.{column} {op} '{quoted}'")
            # domains stay supersets — only row *presence* changed, and
            # domains are only ever used as candidate pools upstream.

        if rng.random() < 0.4 and len(self.sources) > 1:
            # join a second table from another source on the id column
            other_sources = [s for s in self.sources
                             if s != table.source] or self.sources
            join_col = f"c{self._n()}"
            join_table = TableSpec(
                source=rng.choice(other_sources),
                name=self._table_name(),
                columns=("jk", join_col),
                key=("jk",))
            join_pool = self._values(3)
            for ident in ids[:len(parents)] or ids[:1]:
                join_table.rows.append((ident, rng.choice(join_pool)))
            self.tables.append(join_table)
            froms.append(f"{join_table.source}:{join_table.name} u0")
            where.append(f"u0.jk = t0.{columns[0]}")
            selects.append(f"u0.{join_col} as {join_col}")
            item_scalars[join_col] = join_pool[:]

        if scalars and rng.random() < 0.4:
            # parameter pass-through (the paper's Q1 `$date as date`)
            passthrough = rng.choice(sorted(scalars))
            if passthrough not in item_scalars:
                selects.append(f"${passthrough} as {passthrough}")
                item_scalars[passthrough] = scalars[passthrough][:]
                self.passed.add(passthrough)

        distinct = "distinct " if rng.random() < 0.3 else ""
        text = f"select {distinct}" + ", ".join(selects) \
            + " from " + ", ".join(froms)
        if where:
            text += " where " + " and ".join(where)
        return item_scalars, {"query": text}

    # -- choice productions --------------------------------------------
    def _choice(self, name: str, scalars: dict[str, list[str]],
                depth: int) -> None:
        rng = self.rng
        self._declare_inh(name, scalars)
        n_branches = rng.randint(2, 3)
        bind = rng.choice(sorted(scalars))
        table = TableSpec(source=self._source(), name=self._table_name(),
                          columns=("pk", "kind"))
        for value in sorted(set(scalars[bind])):
            table.rows.append((value, str(rng.randint(1, n_branches))))
        self.tables.append(table)
        alternatives = [self._element_name() for _ in range(n_branches)]
        branches = {}
        for alternative in alternatives:
            carried = {member: domain
                       for member, domain in scalars.items()
                       if rng.random() < 0.7}
            branches[alternative] = {"inh": {"assign": {
                member: {"inh": member} for member in carried}}}
            self._element(alternative, carried, depth + 1)
        self.productions.append((name, "(" + " | ".join(alternatives) + ")"))
        self.rules[name] = {
            "form": "choice",
            "condition": {"query":
                          f"select c0.kind from {table.source}:"
                          f"{table.name} c0 where c0.pk = ${bind}"},
            "branches": branches}
        self.notes["patterns"].append("choice")

    # -- recursion (the procedure pattern, generalized) ------------------
    def _recursive(self, name: str,
                   scalars: dict[str, list[str]]) -> None:
        """``name -> node*`` where node contains a star of node again,
        driven by a layered DAG, so the grammar is recursive but every
        derivation terminates."""
        rng = self.rng
        self._declare_inh(name, scalars)
        self.budget -= 2
        node = self._element_name()
        kids = self._element_name()
        id_leaf = self._leaf_name()
        payload_leaf = self._leaf_name()
        source = self._source()

        nodes = value_pool(f"n{self._n()}_", rng.randint(5, 9))
        payloads = self._values(3)
        item_table = TableSpec(
            source=source, name=self._table_name(),
            columns=("id", "payload"), key=("id",),
            rows=[(ident, rng.choice(payloads)) for ident in nodes])
        edge_table = TableSpec(
            source=source, name=self._table_name(),
            columns=("parent", "child"),
            rows=layered_dag(nodes, rng, layers=self.profile.dag_layers,
                             mean_degree=1.4))
        self.tables.append(item_table)
        self.tables.append(edge_table)

        bind = rng.choice(sorted(scalars)) if scalars else None
        if bind:
            root_table = TableSpec(
                source=source, name=self._table_name(),
                columns=("pk", "id"))
            entry_nodes = nodes[:max(1, len(nodes)
                                     // self.profile.dag_layers)]
            for value in sorted(set(scalars[bind])):
                for ident in rng.sample(entry_nodes,
                                        rng.randint(1,
                                                    len(entry_nodes))):
                    root_table.rows.append((value, ident))
            self.tables.append(root_table)
            entry = (f"select r0.id as id, i0.payload as payload "
                     f"from {source}:{root_table.name} r0, "
                     f"{source}:{item_table.name} i0 "
                     f"where r0.pk = ${bind} and i0.id = r0.id")
        else:
            entry = (f"select i0.id as id, i0.payload as payload "
                     f"from {source}:{item_table.name} i0")

        self.productions.append((name, f"({node}*)"))
        self.rules[name] = {"form": "star", "child": node,
                            "child_query": {"query": entry}}
        self.inh_schemas[node] = {"scalars": ["id", "payload"]}
        self.productions.append((node, f"({id_leaf}, {payload_leaf}, "
                                       f"{kids})"))
        self.rules[node] = {"form": "seq", "inh": {
            id_leaf: {"assign": {"val": {"inh": "id"}}},
            payload_leaf: {"assign": {"val": {"inh": "payload"}}},
            kids: {"assign": {"id": {"inh": "id"}}}}}
        self.inh_schemas[kids] = {"scalars": ["id"]}
        self.productions.append((kids, f"({node}*)"))
        self.rules[kids] = {"form": "star", "child": node,
                            "child_query": {"query":
                                f"select e0.child as id, i0.payload as "
                                f"payload from {source}:{edge_table.name} "
                                f"e0, {source}:{item_table.name} i0 "
                                f"where e0.parent = $id "
                                f"and i0.id = e0.child"}}
        self.notes["patterns"].append("recursive")

    # -- collector/consumer (treatments/bill, generalized) ---------------
    def _collector_consumer(self, parent: str,
                            scalars: dict[str, list[str]],
                            children: list[str],
                            inh_rules: dict[str, dict]) -> None:
        """Sibling pair: a star whose synthesized set collects ids, and a
        second star that consumes them via ``IN $set`` — carrying the
        scenario's key and inclusion constraints."""
        rng = self.rng
        self.budget -= 4
        collector = self._element_name()
        item_b = self._element_name()
        id_leaf_b = self._leaf_name()
        consumer = self._element_name()
        item_c = self._element_name()
        id_leaf_c = self._leaf_name()
        payload_leaf = self._leaf_name()
        bind = rng.choice(sorted(scalars))

        ids = value_pool(f"g{self._n()}_", rng.randint(3, 7))
        collect_table = TableSpec(
            source=self._source(), name=self._table_name(),
            columns=("pk", "id"),
            rows=[(parent_value, rng.choice(ids))
                  for parent_value in rows_per_key(
                      scalars[bind], rng, min_rows=1,
                      max_rows=self.profile.max_fanout)])
        payload_pool = self._values(3)
        consume_table = TableSpec(
            source=self._source(), name=self._table_name(),
            columns=("id", "w"),
            rows=[(ident, rng.choice(payload_pool)) for ident in ids])
        self.tables.append(collect_table)
        self.tables.append(consume_table)

        # collector: B -> item_b* ; Syn(B).ids = ⊔ Syn(item_b).ids
        self.inh_schemas[collector] = {"scalars": [bind]}
        self.syn_schemas[collector] = {"sets": {"ids": ["id"]}}
        self.productions.append((collector, f"({item_b}*)"))
        self.rules[collector] = {
            "form": "star", "child": item_b,
            "child_query": {"query":
                            f"select t0.id as id from "
                            f"{collect_table.source}:{collect_table.name} "
                            f"t0 where t0.pk = ${bind}"},
            "syn": {"ids": {"collect": [item_b, "ids"]}}}
        self.inh_schemas[item_b] = {"scalars": ["id"]}
        self.syn_schemas[item_b] = {"sets": {"ids": ["id"]}}
        self.productions.append((item_b, f"({id_leaf_b})"))
        self.rules[item_b] = {
            "form": "seq",
            "inh": {id_leaf_b: {"assign": {"val": {"inh": "id"}}}},
            "syn": {"ids": {"singleton":
                            {"id": {"syn": [id_leaf_b, "val"]}}}}}

        # consumer: C -> item_c* via IN $ids
        self.inh_schemas[consumer] = {"sets": {"ids": ["id"]}}
        self.productions.append((consumer, f"({item_c}*)"))
        self.rules[consumer] = {
            "form": "star", "child": item_c,
            "child_query": {"query":
                            f"select t0.id as id, t0.w as w from "
                            f"{consume_table.source}:{consume_table.name} "
                            f"t0 where t0.id in $ids"}}
        self.inh_schemas[item_c] = {"scalars": ["id", "w"]}
        self.productions.append((item_c, f"({id_leaf_c}, {payload_leaf})"))
        self.rules[item_c] = {"form": "seq", "inh": {
            id_leaf_c: {"assign": {"val": {"inh": "id"}}},
            payload_leaf: {"assign": {"val": {"inh": "w"}}}}}

        children.extend([collector, consumer])
        inh_rules[collector] = {"assign": {bind: {"inh": bind}}}
        inh_rules[consumer] = {"assign": {"ids": {"syn": [collector,
                                                          "ids"]}}}
        self.constraints.append({
            "kind": "key", "context": parent, "target": item_c,
            "fields": [id_leaf_c]})
        self.constraints.append({
            "kind": "inclusion", "context": parent,
            "source": item_b, "source_fields": [id_leaf_b],
            "target": item_c, "target_fields": [id_leaf_c]})
        self.notes["patterns"].append("collector-consumer")

        if self.violate:
            collected = {row[1] for row in collect_table.rows}
            if self.rng.random() < 0.5 and collected:
                victim = rng.choice(sorted(collected))
                consume_table.rows = [row for row in consume_table.rows
                                      if row[0] != victim]
                self.violated = "inclusion"
            else:
                victim = rng.choice(sorted(collected or set(ids)))
                consume_table.rows.append(
                    (victim, rng.choice(payload_pool)))
                self.violated = "key"
            self.notes["violated"] = self.violated


# ----------------------------------------------------------------------
# public entry point
# ----------------------------------------------------------------------
def generate_scenario(seed: int, *, violate: bool = False,
                      profile: FuzzProfile | None = None,
                      max_attempts: int = 12) -> ScenarioSpec:
    """Generate one certified scenario for ``seed``.

    Certification builds the spec into live objects, validates the AIG,
    runs the conceptual evaluator in report mode, and checks
    the expected constraint verdict; uncertifiable candidates (which
    indicate a generator blind spot, not an engine bug) are regenerated
    from derived sub-seeds.
    """
    from repro.aig import ConceptualEvaluator
    from repro.constraints import check_constraints
    from repro.fuzz.spec import build_scenario
    from repro.xmlmodel import conforms_to

    profile = profile or DEFAULT_PROFILE
    errors: list[str] = []
    for attempt in range(max_attempts):
        subseed = seed if attempt == 0 else seed * 1_000_003 + attempt
        builder = _Builder(subseed, profile, violate)
        try:
            spec = builder.build()
            aig, sources = build_scenario(spec)
            evaluator = ConceptualEvaluator(aig, list(sources.values()),
                                            violation_mode="report")
            document = evaluator.evaluate(dict(spec.root_values))
            if not conforms_to(document, aig.dtd):
                raise FuzzGenerationError(
                    "conceptual document does not conform to its own DTD")
            if document.size() < profile.min_document_nodes:
                raise FuzzGenerationError("degenerate (near-empty) document")
            violations = check_constraints(document, aig.constraints)
            if violate and not violations:
                raise FuzzGenerationError(
                    "violation injection produced a satisfying dataset")
            if not violate and violations:
                raise FuzzGenerationError(
                    f"generator emitted an unexpected violation: "
                    f"{violations[0]}")
        except ReproError as error:
            errors.append(f"attempt {attempt} (seed {subseed}): {error}")
            continue
        spec.notes["attempts"] = attempt + 1
        spec.notes["generator_seed"] = seed
        return spec
    raise FuzzGenerationError(
        f"no certifiable scenario for seed {seed} after {max_attempts} "
        f"attempts:\n" + "\n".join(errors[-3:]))
