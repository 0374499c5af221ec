"""Declarative, JSON-round-trippable fuzz scenarios.

A :class:`ScenarioSpec` is a complete, self-describing integration
scenario: a DTD, relational source schemas with their rows, attribute
schemas, semantic rules (queries kept as sqlq text), XML constraints, and
the root inherited values to evaluate with.  Everything is plain data —
no live objects — so a scenario can be

* generated from a seed (:mod:`repro.fuzz.generator`),
* built into a real ``(AIG, sources)`` pair (:func:`build_scenario`),
* serialized to a repro file and loaded back (:func:`to_json` /
  :func:`from_json`), and
* mutated structurally by the shrinker (:mod:`repro.fuzz.shrink`).

Rule right-hand sides use a small JSON encoding mirroring
:mod:`repro.aig.functions`::

    {"inh": "date"}                      Inh.date
    {"syn": ["treatments", "trIdS"]}     Syn(treatments).trIdS
    {"const": "x"}                       a constant
    {"collect": ["treatment", "trIdS"]}  ⊔ over star children
    {"union": [expr, ...]}               set union
    {"singleton": {"trId": expr}}        one-tuple set

and a function is either ``{"assign": {member: expr, ...}}`` or
``{"query": "<sqlq text>", "bindings": {param: ref-expr}}``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.errors import SpecError


@dataclass
class TableSpec:
    """One relation at one source, with its rows."""

    source: str
    name: str
    columns: tuple[str, ...]
    key: tuple[str, ...] | None = None
    rows: list[tuple] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "source": self.source,
            "name": self.name,
            "columns": list(self.columns),
            "key": list(self.key) if self.key else None,
            "rows": [list(row) for row in self.rows],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TableSpec":
        return cls(
            source=data["source"],
            name=data["name"],
            columns=tuple(data["columns"]),
            key=tuple(data["key"]) if data.get("key") else None,
            rows=[tuple(row) for row in data["rows"]],
        )


@dataclass
class ScenarioSpec:
    """A full, self-describing differential-testing scenario."""

    seed: int
    dtd_text: str
    root_inh: tuple[str, ...]
    root_values: dict[str, str]
    tables: list[TableSpec] = field(default_factory=list)
    #: ``{element_type: {"scalars": [...], "sets": {member: [fields]}}}``
    inh_schemas: dict[str, dict] = field(default_factory=dict)
    syn_schemas: dict[str, dict] = field(default_factory=dict)
    #: ``{element_type: rule-spec-dict}`` (see module docstring)
    rules: dict[str, dict] = field(default_factory=dict)
    #: ``[{"kind": "key"|"inclusion", ...}]``
    constraints: list[dict] = field(default_factory=list)
    #: free-form generator notes (patterns used, violation injected, ...)
    notes: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    def production_count(self) -> int:
        """Number of ``<!ELEMENT ...>`` productions in the DTD text."""
        return self.dtd_text.count("<!ELEMENT")

    def table(self, source: str, name: str) -> TableSpec:
        for table in self.tables:
            if table.source == source and table.name == name:
                return table
        raise SpecError(f"scenario has no table {source}:{name}")

    def clone(self) -> "ScenarioSpec":
        """A deep copy (the shrinker mutates candidates in place)."""
        return ScenarioSpec.from_dict(self.to_dict())

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "dtd_text": self.dtd_text,
            "root_inh": list(self.root_inh),
            "root_values": dict(self.root_values),
            "tables": [table.to_dict() for table in self.tables],
            "inh_schemas": json.loads(json.dumps(self.inh_schemas)),
            "syn_schemas": json.loads(json.dumps(self.syn_schemas)),
            "rules": json.loads(json.dumps(self.rules)),
            "constraints": json.loads(json.dumps(self.constraints)),
            "notes": json.loads(json.dumps(self.notes)),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        return cls(
            seed=data["seed"],
            dtd_text=data["dtd_text"],
            root_inh=tuple(data["root_inh"]),
            root_values=dict(data["root_values"]),
            tables=[TableSpec.from_dict(t) for t in data["tables"]],
            inh_schemas=data.get("inh_schemas", {}),
            syn_schemas=data.get("syn_schemas", {}),
            rules=data.get("rules", {}),
            constraints=data.get("constraints", []),
            notes=data.get("notes", {}),
        )


def to_json(spec: ScenarioSpec, indent: int = 2) -> str:
    return json.dumps(spec.to_dict(), indent=indent, sort_keys=True)


def from_json(text: str) -> ScenarioSpec:
    return ScenarioSpec.from_dict(json.loads(text))


# ----------------------------------------------------------------------
# building live objects from a spec
# ----------------------------------------------------------------------
def _decode_expr(data: dict):
    from repro.aig.functions import (
        Const,
        inh as inh_ref,
        singleton,
        syn as syn_ref,
        union,
    )
    if not isinstance(data, dict) or len(data) != 1:
        raise SpecError(f"malformed expression spec {data!r}")
    (kind, value), = data.items()
    if kind == "inh":
        return inh_ref(value)
    if kind == "syn":
        return syn_ref(value[0], value[1])
    if kind == "const":
        return Const(value)
    if kind == "collect":
        from repro.aig.functions import collect
        return collect(value[0], value[1])
    if kind == "union":
        return union(*(_decode_expr(arg) for arg in value))
    if kind == "singleton":
        return singleton(**{name: _decode_expr(arg)
                            for name, arg in value.items()})
    raise SpecError(f"unknown expression kind {kind!r}")


def _decode_assign(data: dict):
    from repro.aig.functions import assign
    return assign(**{member: _decode_expr(expr)
                     for member, expr in data.items()})


def _decode_func(data: dict):
    """An inherited-attribute function: assign or query."""
    from repro.aig.functions import query as query_func
    if "assign" in data:
        return _decode_assign(data["assign"])
    if "query" in data:
        bindings = {param: _decode_expr(ref)
                    for param, ref in data.get("bindings", {}).items()}
        return query_func(data["query"], **bindings)
    raise SpecError(f"malformed function spec {data!r}")


def build_scenario(spec: ScenarioSpec):
    """Build ``(aig, sources)`` from a spec; raises SpecError subclasses on
    an ill-formed scenario (the shrinker uses that to reject candidates).
    """
    from repro.aig import AIG, ChoiceBranch
    from repro.dtd import parse_dtd
    from repro.relational import Catalog, DataSource, SourceSchema
    from repro.relational.schema import relation

    dtd = parse_dtd(spec.dtd_text)

    by_source: dict[str, list[TableSpec]] = {}
    for table in spec.tables:
        by_source.setdefault(table.source, []).append(table)
    schemas = [
        SourceSchema(source, tuple(
            relation(table.name, *table.columns,
                     **({"key": table.key} if table.key else {}))
            for table in tables))
        for source, tables in sorted(by_source.items())
    ]

    aig = AIG(dtd, Catalog(schemas), root_inh=spec.root_inh)
    for element_type, schema in spec.inh_schemas.items():
        aig.inh(element_type, *schema.get("scalars", ()),
                sets={name: tuple(fields)
                      for name, fields in schema.get("sets", {}).items()})
    for element_type, schema in spec.syn_schemas.items():
        aig.syn(element_type, *schema.get("scalars", ()),
                sets={name: tuple(fields)
                      for name, fields in schema.get("sets", {}).items()})

    for element_type, rule in spec.rules.items():
        form = rule["form"]
        syn = (_decode_assign(rule["syn"]) if rule.get("syn") else None)
        if form == "star":
            child = rule["child"]
            aig.rule(element_type,
                     inh={child: _decode_func(rule["child_query"])},
                     syn=syn)
        elif form == "seq":
            aig.rule(element_type,
                     inh={child: _decode_func(func)
                          for child, func in rule.get("inh", {}).items()},
                     syn=syn)
        elif form == "choice":
            aig.rule(element_type,
                     condition=_decode_func(rule["condition"]),
                     branches={
                         name: ChoiceBranch(
                             inh=_decode_func(branch["inh"]),
                             syn=(_decode_assign(branch["syn"])
                                  if branch.get("syn")
                                  else _decode_assign({})))
                         for name, branch in rule["branches"].items()})
        else:
            raise SpecError(f"unknown rule form {form!r} "
                            f"for {element_type!r}")

    for constraint in spec.constraints:
        if constraint["kind"] == "key":
            aig.key(constraint["context"], constraint["target"],
                    tuple(constraint["fields"]))
        elif constraint["kind"] == "inclusion":
            aig.inclusion(constraint["context"],
                          constraint["source"],
                          tuple(constraint["source_fields"]),
                          constraint["target"],
                          tuple(constraint["target_fields"]))
        else:
            raise SpecError(f"unknown constraint kind "
                            f"{constraint['kind']!r}")

    aig.validate()

    sources = {schema.source: DataSource(schema) for schema in schemas}
    for table in spec.tables:
        sources[table.source].load_rows(table.name, table.rows)
    return aig, sources
