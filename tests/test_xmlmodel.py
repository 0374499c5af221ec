"""Tests for the XML tree model, serialization, and DTD conformance."""

import gc
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from repro.aig import AIG, ConceptualEvaluator, assign, inh, query
from repro.constraints import check_constraints
from repro.datagen import make_loaded_sources
from repro.datagen.generator import DATES
from repro.errors import ValidationError
from repro.dtd import parse_dtd
from repro.hospital import build_hospital_aig
from repro.obs import Tracer
from repro.relational import Catalog, DataSource, SourceSchema
from repro.relational.schema import relation
from repro.runtime import Middleware
from repro.runtime.sharding import decode_document, encode_document
from repro.xmlmodel import (
    XMLElement,
    XMLText,
    conforms_to,
    element,
    parse_xml,
    serialize,
    text,
    validate_tree,
)
from repro.xmlmodel.diff import tree_diff
from repro.xmlmodel.node import new_element, new_text
from tests.conftest import pending_groups

sys.path.insert(0, str(Path(__file__).resolve().parents[1]
                       / "benchmarks" / "e2e"))
from workloads import build_group_aig, make_group_sources  # noqa: E402


class TestNodes:
    def test_element_constructor_builds_text_children(self):
        item = element("item", element("trId", "t1"), element("price", "9"))
        assert item.tag == "item"
        assert [c.tag for c in item.child_elements()] == ["trId", "price"]
        assert item.subelement_value("trId") == "t1"

    def test_append_reparents(self):
        a, b = element("a"), element("b")
        child = element("c")
        a.append(child)
        b.append(child)
        assert child.parent is b
        assert a.children == []

    def test_remove_clears_parent(self):
        a = element("a", element("b"))
        b = a.children[0]
        a.remove(b)
        assert b.parent is None and a.children == []

    def test_root_and_depth(self):
        a = element("a", element("b", element("c")))
        c = a.children[0].children[0]
        assert c.root() is a
        assert c.depth() == 2 and a.depth() == 0

    def test_text_value_concatenates_descendants(self):
        tree = element("a", element("b", "x"), element("c", element("d", "y")))
        assert tree.text_value() == "xy"

    def test_find_and_find_all(self):
        tree = element("a", element("b", "1"), element("c"), element("b", "2"))
        assert tree.find("b").text_value() == "1"
        assert [e.text_value() for e in tree.find_all("b")] == ["1", "2"]
        assert tree.find("nope") is None

    def test_iter_preorder(self):
        tree = element("a", element("b", element("c")), element("d"))
        assert [e.tag for e in tree.iter()] == ["a", "b", "c", "d"]
        assert [e.tag for e in tree.iter("c")] == ["c"]

    def test_structural_equality(self):
        make = lambda: element("a", element("b", "x"))
        assert make() == make()
        assert make() != element("a", element("b", "y"))
        assert make() != element("a")

    def test_nodes_unhashable(self):
        with pytest.raises(TypeError):
            hash(element("a"))
        with pytest.raises(TypeError):
            hash(text("x"))

    def test_replace_with_children_splices(self):
        state = element("st", element("x", "1"), element("y", "2"))
        tree = element("a", element("pre"), state, element("post"))
        tree.replace_with_children(state)
        assert [c.tag for c in tree.child_elements()] == ["pre", "x", "y", "post"]
        assert tree.children[1].parent is tree

    # Nodes compare structurally, so the child an operation is handed has
    # to be found by identity: with two equal siblings ``list.index`` /
    # ``list.remove`` pick the first one.
    @staticmethod
    def equal_siblings():
        first, second = (element("state", element("k", "1"))
                         for _ in range(2))
        assert first == second and first is not second
        return element("p", first, second), first, second

    def test_replace_with_children_splices_the_child_passed(self):
        tree, first, second = self.equal_siblings()
        tree.replace_with_children(second)
        assert serialize(tree) == "<p><state><k>1</k></state><k>1</k></p>"
        assert tree.children[0] is first and first.parent is tree
        assert second.parent is None and second.children == []
        assert all(child.parent is tree for child in tree.children)

    def test_remove_detaches_the_child_passed(self):
        tree, first, second = self.equal_siblings()
        tree.remove(second)
        assert len(tree.children) == 1 and tree.children[0] is first
        assert first.parent is tree and second.parent is None
        with pytest.raises(ValueError):
            tree.remove(second)     # equal to ``first``, but not a child

    def test_append_reparents_the_child_passed(self):
        tree, first, second = self.equal_siblings()
        other = element("q")
        other.append(second)
        assert len(tree.children) == 1 and tree.children[0] is first
        assert first.parent is tree
        assert other.children[0] is second and second.parent is other

    def test_path(self):
        tree = element("a", element("b", element("c")))
        c = tree.children[0].children[0]
        assert c.path() == "a/b/c"

    def test_size_counts_all_nodes(self):
        tree = element("a", element("b", "x"), element("c"))
        # a, b, text(x), c
        assert tree.size() == 4

    def test_bad_tag_rejected(self):
        for tag in ("", 1, None):
            with pytest.raises(TypeError):
                XMLElement(tag)
        with pytest.raises(TypeError):
            XMLText(7)
        with pytest.raises(TypeError):
            element("a").append("x")

    def test_trusted_constructors_build_what_the_validated_ones_do(self):
        root = new_element("a", None)
        leaf = new_element("b", root, "x")
        empty = new_element("c", root)
        tail = new_text("y", root)
        assert root == element("a", element("b", "x"), element("c"), "y")
        assert root.parent is None and root.children == [leaf, empty, tail]
        assert all(child.parent is root for child in root.children)
        assert leaf.children[0].parent is leaf and empty.children == []
        assert serialize(root, indent=2) == \
            "<a>\n  <b>x</b>\n  <c/>\n  y\n</a>\n"

    def test_subelement_value_missing_is_none(self):
        assert element("a").subelement_value("b") is None

    def test_append_refuses_the_element_itself_and_its_ancestors(self):
        # it used to succeed, leaving a parent cycle that made root() and
        # depth() loop forever and serialize() die with RecursionError
        tree = element("a", element("b", element("c")))
        b = tree.children[0]
        c = b.children[0]
        for parent, child in ((b, tree), (c, tree), (c, b), (tree, tree),
                              (c, c)):
            with pytest.raises(ValueError):
                parent.append(child)
        assert tree.parent is None and b.parent is tree and c.parent is b
        assert c.root() is tree and c.depth() == 2
        assert serialize(tree) == "<a><b><c/></b></a>"
        tree.append(c)                  # a descendant is fine: it moves
        assert serialize(tree) == "<a><b/><c/></a>"


class TestInternalStates:
    def test_equal_sibling_states_are_each_spliced_once(self):
        # two rows with the same k make two equal ``state`` siblings; the
        # conceptual evaluator erases them with replace_with_children
        schema = SourceSchema("S", (relation("t", "n", "k"),))
        aig = AIG(parse_dtd("<!ELEMENT p (state*)>\n<!ELEMENT state (k)>"),
                  Catalog([schema]))
        aig.inh("state", "k")
        aig.rule("p", inh={"state": query("select t.k from S:t t")})
        aig.rule("state", inh={"k": assign(val=inh("k"))})
        aig.internal_states.add("state")
        aig.validate()
        source = DataSource(schema)
        source.load_rows("t", [("a", "1"), ("b", "1"), ("c", "2")])
        tree = ConceptualEvaluator(aig, [source]).evaluate({})
        assert serialize(tree) == "<p><k>1</k><k>1</k><k>2</k></p>"
        assert all(child.parent is tree for child in tree.children)


class TestSerialize:
    def test_compact_roundtrip(self):
        tree = element("a", element("b", "hi"), element("c"))
        assert parse_xml(serialize(tree)) == tree

    def test_indented_roundtrip(self):
        tree = element("a", element("b", "hi & <there>"), element("c"))
        assert parse_xml(serialize(tree, indent=2)) == tree

    def test_escaping(self):
        tree = element("a", "x < y & z > 'w' \"q\"")
        rendered = serialize(tree)
        assert "&lt;" in rendered and "&amp;" in rendered
        assert parse_xml(rendered) == tree

    def test_empty_element_self_closes(self):
        assert serialize(element("a")) == "<a/>"
        assert parse_xml("<a/>") == element("a")

    def test_mixed_content_and_indent_zero(self):
        # text-only stays on one line; text beside an element gets a line
        # of its own; indent=0 breaks lines without padding
        tree = element("a", "x", "<", element("b", "1", "2"), element("c"),
                       "y", element("d", element("e")))
        assert serialize(tree) == \
            "<a>x&lt;<b>12</b><c/>y<d><e/></d></a>"
        assert serialize(tree, indent=0) == \
            "<a>\nx\n&lt;\n<b>12</b>\n<c/>\ny\n<d>\n<e/>\n</d>\n</a>\n"
        assert serialize(tree, indent=1) == (
            "<a>\n x\n &lt;\n <b>12</b>\n <c/>\n y\n <d>\n  <e/>\n"
            " </d>\n</a>\n")
        assert serialize(text("<"), indent=2) == "&lt;\n"

    def test_mismatched_tags_rejected(self):
        with pytest.raises(ValidationError):
            parse_xml("<a><b></a></b>")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ValidationError):
            parse_xml("<a/>extra")

    def test_xml_declaration_and_comments_skipped(self):
        tree = parse_xml("<?xml version='1.0'?><!-- hi --><a><b>x</b></a>")
        assert tree == element("a", element("b", "x"))

    text_strategy = st.text(
        alphabet=st.characters(blacklist_categories=("Cs", "Cc")),
        min_size=1).filter(lambda s: not s.isspace())

    @given(value=text_strategy)
    def test_roundtrip_arbitrary_text(self, value):
        tree = element("a", element("b", value))
        assert parse_xml(serialize(tree)) == tree
        assert parse_xml(serialize(tree, indent=2)) == tree

    @given(tags=st.lists(st.sampled_from(["x", "y", "z"]), max_size=6))
    def test_roundtrip_arbitrary_shapes(self, tags):
        tree = element("root")
        cursor = tree
        for tag in tags:
            cursor = cursor.append(element(tag))
        assert parse_xml(serialize(tree)) == tree


HOSPITAL_DTD = """
<!ELEMENT report (patient*)>
<!ELEMENT patient (SSN, pname, treatments, bill)>
<!ELEMENT treatments (treatment*)>
<!ELEMENT treatment (trId, tname, procedure)>
<!ELEMENT procedure (treatment*)>
<!ELEMENT bill (item*)>
<!ELEMENT item (trId, price)>
"""


class TestValidate:
    def setup_method(self):
        self.dtd = parse_dtd(HOSPITAL_DTD)

    def make_treatment(self, trid, children=()):
        return element("treatment", element("trId", trid),
                       element("tname", "n"),
                       element("procedure", *children))

    def make_patient(self, trids):
        treatments = element("treatments",
                             *[self.make_treatment(t) for t in trids])
        bill = element("bill", *[element("item", element("trId", t),
                                         element("price", "1"))
                                 for t in trids])
        return element("patient", element("SSN", "s"),
                       element("pname", "p"), treatments, bill)

    def test_valid_document(self):
        report = element("report", self.make_patient(["t1", "t2"]))
        assert conforms_to(report, self.dtd)

    def test_recursive_nesting_validates(self):
        nested = self.make_treatment("t1", [self.make_treatment("t2")])
        patient = self.make_patient([])
        patient.find("treatments").append(nested)
        report = element("report", patient)
        assert conforms_to(report, self.dtd)

    def test_wrong_root(self):
        problems = validate_tree(element("patient"), self.dtd)
        assert any("root" in p for p in problems)

    def test_missing_child(self):
        bad = element("report",
                      element("patient", element("SSN", "s")))
        problems = validate_tree(bad, self.dtd)
        assert any("patient" in p for p in problems)

    def test_wrong_order(self):
        bad_patient = self.make_patient([])
        # swap SSN and pname
        ssn, pname = bad_patient.children[0], bad_patient.children[1]
        bad_patient.children[0], bad_patient.children[1] = pname, ssn
        problems = validate_tree(element("report", bad_patient), self.dtd)
        assert problems

    def test_undeclared_element(self):
        bad = element("report", element("intruder"))
        problems = validate_tree(bad, self.dtd)
        assert any("intruder" in p for p in problems)

    def test_text_where_element_expected(self):
        bad = element("report", "oops")
        assert not conforms_to(bad, self.dtd)

    def test_star_accepts_zero(self):
        assert conforms_to(element("report"), self.dtd)

    def test_pcdata_leaf_with_no_text_rejected(self):
        # SSN requires exactly one text node
        patient = self.make_patient([])
        patient.find("SSN").children.clear()
        assert not conforms_to(element("report", patient), self.dtd)

    def test_choice_and_optional_models(self):
        dtd = parse_dtd("""
            <!ELEMENT a (b | c)>
            <!ELEMENT b EMPTY>
            <!ELEMENT c EMPTY>
        """)
        assert conforms_to(element("a", element("b")), dtd)
        assert conforms_to(element("a", element("c")), dtd)
        assert not conforms_to(element("a"), dtd)
        assert not conforms_to(element("a", element("b"), element("c")), dtd)

    def test_general_regex_models(self):
        dtd = parse_dtd("""
            <!ELEMENT a (b+, (c | d)?)>
            <!ELEMENT b EMPTY>
            <!ELEMENT c EMPTY>
            <!ELEMENT d EMPTY>
        """)
        assert conforms_to(element("a", element("b")), dtd)
        assert conforms_to(
            element("a", element("b"), element("b"), element("d")), dtd)
        assert not conforms_to(element("a", element("c")), dtd)
        assert not conforms_to(
            element("a", element("b"), element("c"), element("d")), dtd)

    @given(count=st.integers(min_value=0, max_value=8))
    def test_star_accepts_any_count(self, count):
        report = element("report", *[self.make_patient([]) for _ in range(count)])
        assert conforms_to(report, self.dtd)


def lazy_leaves(tree: XMLElement) -> int:
    """Elements still holding their one text child as a plain ``str``."""
    return sum(node._kids.__class__ is str for node in tree.iter())


def tracked_per_node(tree: XMLElement) -> float:
    """GC-tracked objects (nodes, their children lists, and a pending
    group's tuple, columns list and columns) per node of ``tree``, counted
    without reading ``children``."""
    tracked, stack = 0, [tree]
    while stack:
        node = stack.pop()
        tracked += gc.is_tracked(node)
        if not isinstance(node, XMLElement):
            continue
        kids = node._kids
        if kids.__class__ is tuple:
            _, _, columns = kids
            tracked += (gc.is_tracked(kids) + gc.is_tracked(columns)
                        + sum(map(gc.is_tracked, columns)))
        elif kids.__class__ is not str:
            tracked += gc.is_tracked(kids)
            stack.extend(kids)
    return tracked / tree.size()


def groups_document(groups: int, tracer=None) -> XMLElement:
    """The groups workload's document over ``groups`` groups, as its first
    read leaves it: each ``members`` holds its group unbuilt."""
    document = Middleware(build_group_aig(), make_group_sources(1, groups),
                          tracer=tracer).evaluate({"run": "1"}).document
    document.children
    return document


class TestTrackedObjects:
    """A ``<tag>text</tag>`` leaf is one object until its ``children`` is
    read, and a fragment group that is an element's whole content is one
    tuple over the columns the tagging phase read: pinned as a count of
    GC-tracked objects per document node (the cyclic collector's work grows
    with it), not as a clock.  Before the leaf kept its text as a ``str``
    — an element, a list and an ``XMLText`` per leaf — the 200-group
    document read 1.614 and the hospital ``tiny`` documents 1.657; with
    the leaf and every group built, 0.841 and 0.973; with whole-content
    groups left unbuilt, 0.182 and 0.773."""

    @pytest.fixture(scope="class")
    def groups(self):
        tracer = Tracer()
        return build_group_aig(), groups_document(200, tracer), tracer

    def test_groups_document(self):
        # a fresh document: a read on the class's builds its groups
        document = groups_document(200)
        assert tracked_per_node(document) <= 0.19
        assert len(pending_groups(document)) == 200
        assert lazy_leaves(document) == 200 + 200 * 8 * 2
        assert pending_groups(document) == []
        assert tracked_per_node(document) <= 0.85

    def test_hospital_tiny_documents(self):
        # over the ten report dates together: a patient with no visit that
        # day keeps an empty ``treatments`` and ``bill`` list, so a sparse
        # day alone reads more; every group built, the ten read 0.973
        sources, _ = make_loaded_sources("tiny")
        middleware = Middleware(build_hospital_aig(), sources)
        documents = [middleware.evaluate({"date": date}).document
                     for date in DATES]
        for document in documents:
            document.children
        nodes = sum(document.size() for document in documents)
        tracked = sum(tracked_per_node(document) * document.size()
                      for document in documents)
        assert tracked / nodes <= 0.80
        assert all(pending_groups(document) for document in documents)
        assert all(lazy_leaves(document) for document in documents)

    def test_document_nodes_gauge_counts_the_text_not_made(self, groups):
        _, document, tracer = groups
        assert tracer.metrics.gauge("document_nodes") == document.size() \
            == 200 * (1 + 1 + 1 + 1 + 8 * 5) + 1

    def test_readers_never_make_the_text_child(self, groups):
        aig, document, _ = groups
        leaves = lazy_leaves(document)
        before = tracked_per_node(document)
        eager = parse_xml(serialize(document))
        assert lazy_leaves(eager) == 0
        assert serialize(document, indent=2) == serialize(eager, indent=2)
        assert check_constraints(document, aig.constraints) == []
        assert conforms_to(document, aig.dtd)
        assert tree_diff(document, eager) == [] == tree_diff(eager, document)
        assert document == eager and eager == document
        group = document.find("group")
        gid = group.subelement_value("gid")
        assert gid == eager.find("group").subelement_value("gid")
        assert group.text_value() == eager.find("group").text_value()
        assert group.text_value().startswith(gid)
        assert group.find_all("gid")[0].child_elements() == []
        assert group.find("gid").find_all("x") == []
        assert sum(1 for _ in document.iter("mid")) == 200 * 8
        assert decode_document(*encode_document(document)) == eager
        assert repr(group.find("gid")) == "XMLElement('gid', 1 children)"
        assert lazy_leaves(document) == leaves
        assert tracked_per_node(document) == before

    def test_first_read_makes_one_text_child_kept_from_then_on(self):
        leaf = new_element("b", new_element("a", None), "x")
        children = leaf.children
        assert len(children) == 1 and isinstance(children[0], XMLText)
        assert children[0].value == "x" and children[0].parent is leaf
        assert leaf.children is children and leaf._kids is children
        assert leaf.parent.children == [leaf]

    def test_size_counts_the_text_child_not_made(self):
        leaf = new_element("b", None, "x")
        assert leaf.size() == 2 == element("b", "x").size()
        assert leaf._kids == "x"

    def test_equality_with_an_eager_leaf(self):
        for value in ("x", ""):
            lazy, eager = new_element("a", None, value), element("a", value)
            assert lazy == eager and eager == lazy
            assert lazy == new_element("a", None, value)
            assert serialize(lazy) == serialize(eager) == f"<a>{value}</a>"
        lazy = new_element("a", None, "x")
        for other in (element("a", "y"), element("a"), element("a", "x", "y"),
                      element("a", element("x")), element("c", "x"),
                      new_element("a", None, ""), text("x")):
            assert lazy != other and other != lazy
        assert new_element("a", None, "") != element("a")
        assert lazy._kids == "x"

    @staticmethod
    def both_leaves():
        """The same ``<p><b>x</b></p>``, its leaf lazy and eager."""
        lazy_parent = new_element("p", None)
        lazy = new_element("b", lazy_parent, "x")
        eager = element("b", "x")
        return (lazy_parent, lazy), (element("p", eager), eager)

    @pytest.mark.parametrize("operation", [
        lambda parent, leaf: leaf.append(element("c")),
        lambda parent, leaf: leaf.append(text("y")),
        lambda parent, leaf: leaf.remove(leaf.children[0]),
        lambda parent, leaf: parent.replace_with_children(leaf),
        lambda parent, leaf: parent.remove(leaf),
        lambda parent, leaf: parent.append(element("c", leaf)),
        lambda parent, leaf: leaf.children.clear(),
    ])
    def test_mutations_on_a_lazy_leaf_match_an_eager_one(self, operation):
        outcomes = []
        for parent, leaf in self.both_leaves():
            operation(parent, leaf)
            for tree in (parent, leaf):
                assert all(child.parent is node for node in tree.iter()
                           for child in node.children)
            outcomes.append((serialize(parent), serialize(leaf),
                             leaf.parent is parent, parent.size()))
        assert outcomes[0] == outcomes[1]


def counted_constructions(monkeypatch) -> list[str]:
    """Tags of the elements the trusted constructor makes from now on."""
    from repro.xmlmodel import node
    made, real = [], node.new_element

    def counting(tag, *args):
        made.append(tag)
        return real(tag, *args)

    monkeypatch.setattr(node, "new_element", counting)
    return made


class TestPendingGroups:
    """An element whose whole content is one fragment group holds it
    unbuilt — ``(fragment, count, columns)`` in ``_kids`` — until a reader
    asks for nodes: on the groups document, every ``members``."""

    @staticmethod
    def both(groups: int = 3):
        """The groups document as ``evaluate`` leaves it and fully read,
        each with its first ``members``."""
        pending, built = groups_document(groups), groups_document(groups)
        assert sum(1 for _ in built.iter()) > 0
        pair = [(document, document.find("group").find("members"))
                for document in (pending, built)]
        assert pair[0][1]._kids.__class__ is tuple
        assert pair[1][1]._kids.__class__ is list
        return pair

    def test_size_counts_a_group_without_building_it(self, monkeypatch):
        document = groups_document(3)
        made = counted_constructions(monkeypatch)
        size = document.size()
        assert made == [] and len(pending_groups(document)) == 3
        assert size == 3 * (1 + 1 + 1 + 1 + 8 * 5) + 1
        assert sum(1 for _ in document.iter()) == 1 + 3 * (3 + 8 * 3)
        assert len(made) == 3 * 8 * 3 and pending_groups(document) == []
        assert document.size() == size

    def test_append_keeps_the_group_first(self):
        (_, pending), (_, built) = self.both()
        mids = [member.subelement_value("mid") for member in built.children]
        extra = element("member", element("mid", "new"), element("score", "0"))
        assert pending.append(extra) is extra
        assert [member.subelement_value("mid")
                for member in pending.children] == mids + ["new"]
        assert pending.children[-1] is extra and extra.parent is pending

    @pytest.mark.parametrize("operation", [
        lambda group, members: members.append(
            element("member", element("mid", "new"), element("score", "0"))),
        lambda group, members: members.remove(members.children[3]),
        lambda group, members: members.replace_with_children(
            members.children[0]),
        lambda group, members: members.children[5].remove(
            members.children[5].find("score")),
        lambda group, members: group.remove(members),
        lambda group, members: group.replace_with_children(members),
        lambda group, members: members.children.clear(),
    ])
    def test_mutations_on_a_pending_group_match_a_built_one(self, operation):
        outcomes = []
        for document, members in self.both():
            operation(document.find("group"), members)
            for tree in (document, members):
                assert all(child.parent is node for node in tree.iter()
                           for child in node.children)
            outcomes.append((serialize(document, indent=1),
                             serialize(members), members.parent is None,
                             document.size(), members.size()))
        assert outcomes[0] == outcomes[1]

    def test_a_pending_tree_equals_it_fully_read(self):
        (pending, members), (built, _) = self.both()
        assert pending == built and built == pending
        assert pending_groups(pending) == []
        members.children[0].find("mid").children[0].value = "changed"
        assert pending != built and built != pending

    def test_built_nodes_have_their_parent(self):
        (document, members), _ = self.both()
        for node in members.children:
            assert node.parent is members and node.tag == "member"
        for node in document.iter():
            assert all(child.parent is node for child in node.children)
        assert members.children[0].find("mid").root() is document

    @pytest.mark.parametrize("scenario", ["groups", "hospital"])
    def test_a_document_only_serialized_builds_no_group(self, scenario,
                                                        monkeypatch):
        if scenario == "groups":
            runs = [(Middleware(build_group_aig(), make_group_sources(1, 50)),
                     {"run": "1"})]
        else:
            sources, _ = make_loaded_sources("tiny")
            middleware = Middleware(build_hospital_aig(), sources)
            runs = [(middleware, {"date": date}) for date in DATES]
        made = counted_constructions(monkeypatch)
        for middleware, root in runs:
            made.clear()
            document = middleware.evaluate(root).document
            unread = serialize(document, indent=2)
            assert made == [document.tag]   # an unread document: no tree
            document.children   # built as the tree sink leaves it
            tagged = len(made)
            held = sum(count * fragment.elements
                       for fragment, count, _ in pending_groups(document))
            assert held > 0
            written = serialize(document, indent=2)
            assert len(made) == tagged
            assert sum(1 for _ in document.iter()) == tagged + held
            assert len(made) == tagged + held
            assert serialize(document, indent=2) == written == unread
