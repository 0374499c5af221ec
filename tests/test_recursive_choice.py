"""A recursion-through-choice domain: a file-system export.

    fs -> node* ; node -> fname, content ; content -> (file | dir)
    file -> size ; dir -> node*

This exercises the interplay the hospital example does not: recursion whose
cycle passes through a *choice* production.  Unfolding must truncate at the
choice (dropping the recursive ``dir`` alternative at depth 0) while keeping
selector values meaningful; the optimized pipeline must gate branch-child
tables and synthesized-collection extractions on the condition outcome.
"""

import pytest

from repro.errors import EvaluationAborted, EvaluationError
from repro.aig import (
    AIG,
    ChoiceBranch,
    ConceptualEvaluator,
    assign,
    collect,
    inh,
    query,
    singleton,
    syn,
    union,
)
from repro.dtd import parse_dtd
from repro.dtd.analysis import recursive_types
from repro.relational import Catalog, DataSource, Network, SourceSchema
from repro.relational.schema import relation
from repro.runtime import Middleware, strip_unfolding, unfold_aig
from repro.xmlmodel import conforms_to

DTD_TEXT = """
<!ELEMENT fs (node*)>
<!ELEMENT node (fname, content)>
<!ELEMENT content (file | dir)>
<!ELEMENT file (size)>
<!ELEMENT dir (node*)>
"""

FS = SourceSchema("FS", (
    relation("entries", "id", "parent", "fname", "kind", "size"),
))


def build_fs_aig(with_key: bool = True) -> AIG:
    aig = AIG(parse_dtd(DTD_TEXT), Catalog([FS]))
    aig.inh("node", "id", "fname", "kind", "size")
    aig.inh("content", "id", "kind", "size")
    aig.inh("file", "size")
    aig.inh("dir", "id")

    aig.rule("fs", inh={"node": query(
        "select e.id, e.fname, e.kind, e.size from FS:entries e "
        "where e.parent = 'root'")})
    aig.rule("node", inh={
        "fname": assign(val=inh("fname")),
        "content": assign(id=inh("id"), kind=inh("kind"), size=inh("size")),
    })
    aig.rule("content",
             condition=query("select e.kind from FS:entries e "
                             "where e.id = $id"),
             branches={
                 "file": ChoiceBranch(inh=assign(size=inh("size"))),
                 "dir": ChoiceBranch(inh=assign(id=inh("id"))),
             })
    aig.rule("file", inh={"size": assign(val=inh("size"))})
    aig.rule("dir", inh={"node": query(
        "select e.id, e.fname, e.kind, e.size from FS:entries e "
        "where e.parent = $id")})
    if with_key:
        # file names unique within the whole fs export
        aig.key("fs", "node", "fname")
    return aig.validate()


def load(rows) -> DataSource:
    source = DataSource(FS)
    source.load_rows("entries", rows)
    return source


TREE_ROWS = [
    # id, parent, fname, kind (1=file, 2=dir), size
    ("n1", "root", "readme", "1", "10"),
    ("n2", "root", "srcdir", "2", ""),
    ("n3", "n2", "main", "1", "55"),
    ("n4", "n2", "libdir", "2", ""),
    ("n5", "n4", "util", "1", "7"),
]


class TestRecursionThroughChoice:
    def test_dtd_is_recursive_through_choice(self):
        aig = build_fs_aig()
        assert recursive_types(aig.dtd) == {"node", "content", "dir"}

    def test_conceptual_evaluation(self):
        aig = build_fs_aig()
        tree = ConceptualEvaluator(aig, [load(TREE_ROWS)]).evaluate({})
        assert conforms_to(tree, aig.dtd)
        # nesting: srcdir/libdir/util
        src = next(n for n in tree.iter("node")
                   if n.subelement_value("fname") == "srcdir")
        lib = next(n for n in src.find("content").find("dir").iter("node")
                   if n.subelement_value("fname") == "libdir")
        util = lib.find("content").find("dir").find("node")
        assert util.subelement_value("fname") == "util"
        assert util.find("content").find("file") is not None

    def test_unfolded_equals_recursive(self):
        aig = build_fs_aig()
        source = load(TREE_ROWS)
        reference = ConceptualEvaluator(aig, [source]).evaluate({})
        unfolded = unfold_aig(aig, 5)
        unfolded.validate()
        document = ConceptualEvaluator(unfolded, [source]).evaluate({})
        strip_unfolding(document)
        assert document == reference

    def test_middleware_equals_conceptual(self):
        aig = build_fs_aig()
        source = load(TREE_ROWS)
        reference = ConceptualEvaluator(aig, [source]).evaluate({})
        for merging in (False, True):
            report = Middleware(aig, {"FS": source}, Network.mbps(1.0),
                                merging=merging,
                                unfold_depth=5).evaluate({})
            assert report.document == reference, f"merging={merging}"

    def test_selector_values_survive_unfolding(self):
        """kind=1 must still mean 'file' in every unfolded copy, even at
        the truncation level where 'dir' was dropped."""
        aig = build_fs_aig()
        unfolded = unfold_aig(aig, 3)
        from repro.aig.rules import ChoiceRule
        choice_rules = [rule for rule in unfolded.rules.values()
                        if isinstance(rule, ChoiceRule)
                        and rule.selector_names]
        assert choice_rules
        for rule in choice_rules:
            assert rule.selector_names[0] is None or \
                rule.selector_names[0].startswith("file")
        truncated = [rule for rule in choice_rules
                     if rule.selector_names[1] is None]
        assert truncated, "the depth-0 copy must drop the dir alternative"

    def test_truncated_choice_errors_not_corrupts(self):
        """Data deeper than the unfolding hits the truncated alternative:
        a loud error, never a silently wrong document."""
        aig = build_fs_aig(with_key=False)
        source = load(TREE_ROWS)
        unfolded = unfold_aig(aig, 1)  # srcdir/libdir needs depth >= 3
        with pytest.raises(EvaluationError):
            ConceptualEvaluator(unfolded, [source]).evaluate({})

    def test_key_constraint_through_choice(self):
        aig = build_fs_aig(with_key=True)
        duplicate = TREE_ROWS + [("n6", "n4", "readme", "1", "3")]
        with pytest.raises(EvaluationAborted):
            Middleware(aig, {"FS": load(duplicate)}, Network.mbps(1.0),
                       unfold_depth=5).evaluate({})
        # and the guard passes on clean data through the optimized path
        report = Middleware(aig, {"FS": load(TREE_ROWS)}, Network.mbps(1.0),
                            unfold_depth=5).evaluate({})
        assert conforms_to(report.document, aig.dtd)

    def test_middleware_recovers_from_choice_truncation(self):
        """A too-small estimate truncates at the choice; the middleware
        must deepen and still deliver the full document."""
        aig = build_fs_aig()
        source = load(TREE_ROWS)
        reference = ConceptualEvaluator(aig, [source]).evaluate({})
        report = Middleware(aig, {"FS": source}, Network.mbps(1.0),
                            unfold_depth=1).evaluate({})
        assert report.document == reference
        assert report.unfold_depth > 1

    def test_deep_chain(self):
        """A 6-deep directory chain through the full pipeline."""
        rows = [("d0", "root", "level0", "2", "")]
        for level in range(1, 6):
            rows.append((f"d{level}", f"d{level - 1}", f"level{level}",
                         "2", ""))
        rows.append(("leaf", "d5", "deepfile", "1", "1"))
        aig = build_fs_aig()
        source = load(rows)
        reference = ConceptualEvaluator(aig, [source]).evaluate({})
        report = Middleware(aig, {"FS": source}, Network.mbps(1.0),
                            unfold_depth=8).evaluate({})
        assert report.document == reference
        depth_probe = reference
        for _ in range(6):
            depth_probe = depth_probe.find("node") or \
                depth_probe.find("content") or depth_probe.find("dir")
            assert depth_probe is not None

    def test_ten_deep_chain_with_the_default_middleware(self):
        """Ten directories re-unroll the default depth 4 up to 32.  There a
        level's CTE may name the level above twice (context and
        condition), so SQLite's expansion of a statement merging every
        level doubles every two levels and runs out of references to
        ``entries``: Merge refuses a pair whose statement expands past a
        chain's count."""
        from repro.xmlmodel import serialize
        rows = [(f"d{level}", f"d{level - 1}" if level else "root",
                 f"level{level}", "2", "") for level in range(10)]
        rows.append(("leaf", "d9", "deepfile", "1", "1"))
        aig = build_fs_aig()
        merged = Middleware(aig, {"FS": load(rows)}).evaluate({})
        assert merged.unfold_depth == 32
        unmerged = Middleware(aig, {"FS": load(rows)},
                              merging=False).evaluate({})
        reference = ConceptualEvaluator(aig, [load(rows)]).evaluate({})
        assert serialize(merged.document) == serialize(unmerged.document) \
            == serialize(reference)

    def test_merged_statements_expand_linearly(self):
        """Every merged statement of the deep plan expands to at most a
        chain's CTE references, ``n(n+1)/2`` for ``n`` members."""
        from repro.optimizer.merge import expanded_references
        middleware = Middleware(build_fs_aig(), {"FS": load(TREE_ROWS)})
        graph = middleware.prepare(32).graph
        merged = [node for node in graph.nodes.values()
                  if getattr(node, "members", None)]
        assert merged
        for node in merged:
            n = len(node.members)
            assert expanded_references(node.members) <= n * (n + 1) // 2
