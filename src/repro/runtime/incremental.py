"""Incremental re-evaluation: fingerprints, taint, and result reuse.

The paper's motivating workload (Section 7) re-runs one AIG daily against
sources that change only slightly between runs.  ``Middleware.prepare``
already amortizes *optimization*; this module amortizes *execution*
across evaluations of the same prepared plan (never tagging: a subtree
memo measured slower than rebuilding, see docs/INCREMENTAL.md):

* every base relation carries a monotonic **version counter**
  (:meth:`repro.relational.source.DataSource.table_version`), bumped by
  loads and writes, never by temp-table shipments;

* every QDG node gets a **content fingerprint** — a hash over its rendered
  SQL or its collection programs, the root-attribute values it reads, the
  ``(source, relation, version)`` of every base table it scans, and the
  fingerprints of its producers.  Fingerprints chain upstream, so a node
  whose fingerprint is unchanged provably has clean producers all the way
  down: the clean set is a downward-closed cone of the DAG and cached
  results can be replayed in topological order before any query is
  dispatched;

* **taint** is the complement: a node is tainted when its fingerprint
  differs from the cached one, and taint propagates to all transitive
  consumers (:meth:`~repro.optimizer.qdg.QueryDependencyGraph.taint_cone`).
  Merged nodes (Algorithm Merge) fingerprint over *all* members, so a
  group is tainted — and re-runs whole — iff any member is.

Guards re-run whole whenever any of their inputs is tainted (the *full
re-check fallback*: an inclusion constraint spanning a tainted and a clean
region is re-validated over the full collections, never over a delta); a
clean guard replays its cached — and, in abort mode, necessarily empty —
result, so report-mode violations are re-reported identically.

Nothing here is committed on failure: the middleware folds freshly
executed results into the cache only after a fully successful run, so
a mid-run fault can never poison the cache (stale entries stay valid
regardless — their fingerprints no longer match anything that changed).
"""

from __future__ import annotations

import hashlib
import sys
from collections import OrderedDict
from dataclasses import dataclass

from repro.relational.source import ResultSet
from repro.sqlq.ast import BaseTable


#: Root bindings the store keeps per node name, the least recently used
#: evicted first: the service's default response-cache size, so a node's
#: results outlive no fewer documents than the response cache holds.
BINDINGS_PER_NODE = 64


@dataclass
class CachedNodeResult:
    """One node's cached execution outcome and the fingerprint it was
    computed under."""

    fingerprint: str
    outputs: dict                   # output name -> ResultSet


class ResultCache:
    """The middleware's cross-evaluation store for one unfold depth.

    An entry is keyed by ``(node name, root binding)``: the root values
    the node's cone reads (:func:`compute_fingerprints`).  Evaluations
    that differ only in a root value a node does not read share its entry,
    so a node that reads none is cached once for every root; a node that
    does keeps one entry per binding, up to :data:`BINDINGS_PER_NODE`
    (least recently used evicted first).  A write does not add entries:
    the next evaluation of a binding replaces its stale entry in place.
    """

    def __init__(self):
        # node name -> OrderedDict(binding -> CachedNodeResult), LRU first
        self._nodes: dict = {}

    def __len__(self) -> int:
        return sum(map(len, self._nodes.values()))

    def bindings(self, name: str) -> list:
        """The root bindings held for ``name``, least recently used first."""
        return list(self._nodes.get(name, ()))

    def lookup(self, name: str, binding: frozenset):
        """The entry committed for ``name`` under ``binding``, or None."""
        return self._nodes.get(name, {}).get(binding)

    def commit(self, increment: "IncrementalPlan", fresh: dict) -> None:
        """Fold one successful run into the store: ``fresh`` (node name ->
        :class:`CachedNodeResult` of the nodes that executed) under this
        run's bindings, and every replayed entry marked used."""
        bindings = increment.bindings
        for name in increment.reusable:
            self._nodes[name].move_to_end(bindings[name])
        for name, entry in fresh.items():
            held = self._nodes.setdefault(name, OrderedDict())
            held[bindings[name]] = CachedNodeResult(
                entry.fingerprint,
                {output: _canonical(result)
                 for output, result in entry.outputs.items()})
            held.move_to_end(bindings[name])
            if len(held) > BINDINGS_PER_NODE:
                held.popitem(last=False)


def _canonical(result: ResultSet) -> ResultSet:
    """``result`` with every ``str`` value interned, so the entries of
    many bindings hold an equal value once (an interned string is mortal:
    it leaves the table with its last reference)."""
    types = result.column_types()
    if not result.rows or not any(kind <= {str} for kind in types):
        return result
    columns = [map(sys.intern, column) if kind <= {str} else column
               for column, kind in zip(zip(*result.rows), types)]
    return ResultSet(result.columns, list(zip(*columns)))


@dataclass
class IncrementalPlan:
    """What one evaluation may reuse and what it must re-execute."""

    fingerprints: dict              # node name -> fingerprint
    bindings: dict                  # node name -> root binding
    reusable: dict                  # node name -> CachedNodeResult
    tainted: set                    # node names that must execute


def compute_fingerprints(graph, sources, root_inh: dict) -> tuple:
    """Content fingerprint and root binding per QDG node, in topological
    order: ``(fingerprints, bindings)``.

    The hash covers everything that determines a node's output: its SQL
    text or collection programs, the root-attribute values it reads (a
    value is hashed as data, whatever it looks like), the versions of the
    base relations it scans, and — transitively, via the producers'
    fingerprints — the same for everything upstream.  The binding is the
    root-value part alone: the ``(root member, repr(value))`` pairs the
    node or any node of its producer cone reads, empty for a node that
    reads none.
    """
    fingerprints: dict = {}
    bindings: dict = {}
    for node in graph.topological_order():
        parts: list = [node.kind, node.source]
        reads: set = set()
        members = getattr(node, "members", None) or (node,)
        for member in members:
            if member.query is not None:
                parts.append(str(member.query))
                for item in member.query.from_items:
                    if isinstance(item, BaseTable):
                        source = sources.get(item.source)
                        version = (source.table_version(item.relation)
                                   if source is not None else -1)
                        parts.append((item.source, item.relation, version))
            for program in member.collections:
                parts.append(repr(program))
                for name in program.root_members():
                    read = (name, repr(root_inh.get(name)))
                    parts.append(read)
                    reads.add(read)
            for _, inh_member in sorted(member.root_params.items()):
                read = (inh_member, repr(root_inh.get(inh_member)))
                parts.append(read)
                reads.add(read)
        for producer in graph.producer_names(node):
            parts.append(fingerprints[producer])
            reads.update(bindings[producer])
        digest = hashlib.sha256(repr(parts).encode()).hexdigest()
        fingerprints[node.name] = digest
        bindings[node.name] = frozenset(reads)
    return fingerprints, bindings


def structural_fingerprint(node) -> str:
    """Version- and value-*independent* hash of one QDG node's shape.

    Unlike :func:`compute_fingerprints`, this covers only what the node
    *is* — kind, source, member names, SQL text or collection programs,
    input names — never what the data currently holds (no table versions,
    no root-attribute values, no producer chaining).  Two evaluations of
    the same prepared
    plan therefore key identical nodes identically even after source
    updates, which is exactly what the run ledger needs: measured costs
    accumulate across runs of the same plan.
    """
    parts: list = [node.kind, node.source]
    members = getattr(node, "members", None) or (node,)
    for member in members:
        parts.append(member.name)
        if member.query is not None:
            parts.append(str(member.query))
        parts.extend(repr(program) for program in member.collections)
        parts.append(tuple(member.inputs))
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def plan_fingerprint(graph) -> str:
    """Structural hash of a whole QDG: the plan's identity across runs.

    Folds every node's :func:`structural_fingerprint` in topological
    order, so ledger records from repeated evaluations of one AIG carry
    the same ``plan_fingerprint`` and can be joined by it.
    """
    parts = [structural_fingerprint(node)
             for node in graph.topological_order()]
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def aig_fingerprint(aig) -> str:
    """Structural hash of a whole AIG *specification*.

    Covers everything that shapes compilation — DTD productions and root,
    attribute schemas, rules, guards, constraints, internal states, and
    the catalog's source schemas — and nothing about the data.  Two
    structurally identical AIG objects (e.g. rebuilt from the same fuzz
    :class:`~repro.fuzz.spec.ScenarioSpec`, or registered by two tenants)
    fingerprint identically, which is how the evaluation service
    (:mod:`repro.service`) keys shared ``Middleware`` instances.
    """
    parts: list = ["dtd-root", aig.dtd.root]
    for element_type in sorted(aig.dtd.productions):
        parts.append((element_type, repr(aig.dtd.productions[element_type])))
    parts.append("inh")
    for element_type in sorted(aig.inh_schemas):
        parts.append((element_type, repr(aig.inh_schemas[element_type])))
    parts.append("syn")
    for element_type in sorted(aig.syn_schemas):
        parts.append((element_type, repr(aig.syn_schemas[element_type])))
    parts.append("rules")
    for element_type in sorted(aig.rules):
        parts.append((element_type, repr(aig.rules[element_type])))
    parts.append("guards")
    for element_type in sorted(aig.guards):
        parts.append((element_type,
                      tuple(repr(guard)
                            for guard in aig.guards[element_type])))
    parts.append("constraints")
    parts.extend(repr(constraint) for constraint in aig.constraints)
    parts.append("internal")
    parts.extend(sorted(aig.internal_states))
    parts.append("catalog")
    for name in sorted(aig.catalog.source_names):
        parts.append(repr(aig.catalog.source(name)))
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def plan_increment(graph, store: ResultCache, fingerprints: dict,
                   bindings: dict) -> IncrementalPlan:
    """Split the graph into a reusable (clean) set and a tainted cone.

    Directly tainted nodes are those whose fingerprint differs from the
    entry ``store`` holds under the node's current root binding (or that
    have no such entry); the tainted set is their downstream closure over
    the graph.  Fingerprint chaining makes the
    closure redundant in theory — a consumer of a changed producer hashes
    differently by construction — but computing it through
    :meth:`~repro.optimizer.qdg.QueryDependencyGraph.taint_cone` keeps
    the invariant explicit and collision-proof: a reused node's producers
    are always reused too.
    """
    found = {name: store.lookup(name, bindings[name]) for name in graph.nodes}
    direct = {name for name, entry in found.items()
              if entry is None or entry.fingerprint != fingerprints[name]}
    tainted = graph.taint_cone(direct)
    reusable = {name: entry for name, entry in found.items()
                if name not in tainted}
    return IncrementalPlan(fingerprints, bindings, reusable, tainted)
