"""The incremental cache must never alias the returned document.

The caller owns the document an evaluation returns; mutating it —
dropping children, grafting junk, editing text in place — is fair game
and must never change what a later run returns.  PR 4 shipped a subtree
memo that kept live document nodes; the memo is gone (every run tags a
fresh tree from the cached *query results*), and these stay as the
behaviour tests for that guarantee.
"""

from repro.hospital import build_hospital_aig, make_sources
from repro.relational import Network
from repro.runtime import Middleware
from repro.xmlmodel import serialize
from repro.xmlmodel.node import XMLElement, XMLText
from tests.conftest import load_tiny_hospital


def _middleware(**kwargs):
    sources = make_sources()
    load_tiny_hospital(sources)
    kwargs.setdefault("incremental", True)
    kwargs.setdefault("unfold_depth", 8)
    return Middleware(build_hospital_aig(), sources, Network.mbps(1.0),
                      **kwargs)


def _pristine() -> str:
    return serialize(_middleware().evaluate({"date": "d1"}).document)


def _vandalize(document) -> None:
    """Mutate the document the way a post-processing caller might."""
    patient = document.find("patient")
    assert patient is not None
    patient.children.pop()                      # drop a subtree
    patient.append(XMLElement("injected"))      # graft junk
    for node in document.iter():
        for child in node.children:
            if isinstance(child, XMLText):
                child.value = "vandalized"      # rewrite text in place


class TestMemoIsolation:
    def test_mutating_cold_document_does_not_poison_warm_run(self):
        pristine = _pristine()
        middleware = _middleware()
        cold = middleware.evaluate({"date": "d1"})
        _vandalize(cold.document)
        warm = middleware.evaluate({"date": "d1"})
        assert warm.queries_executed == 0
        assert serialize(warm.document) == pristine

    def test_mutating_a_spliced_subtree_does_not_poison_the_memo(self):
        pristine = _pristine()
        middleware = _middleware()
        middleware.evaluate({"date": "d1"})
        warm = middleware.evaluate({"date": "d1"})
        # a warm run's document is as much the caller's; wreck it and go
        # again
        _vandalize(warm.document)
        again = middleware.evaluate({"date": "d1"})
        assert again.queries_executed == 0
        assert serialize(again.document) == pristine

    def test_memo_shares_no_nodes_with_any_returned_document(self):
        middleware = _middleware()
        documents = [middleware.evaluate({"date": "d1"}).document
                     for _ in range(3)]
        seen: set = set()
        for document in documents:
            returned = {id(node) for node in document.iter()}
            assert not (seen & returned)
            seen |= returned
