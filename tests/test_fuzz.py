"""Differential fuzzing: generator validity, oracle, shrinker, CLI.

The acceptance bar (docs/TESTING.md): generated scenarios certify and
round-trip; the oracle grid agrees on clean seeds and on
violation-injected seeds; a deliberately seeded engine bug is *caught*
by the oracle and *shrunk* to a repro of at most 12 DTD productions.
"""

import json
import os

import pytest

from repro.aig import ConceptualEvaluator
from repro.fuzz import generator
from repro.fuzz import (
    build_scenario,
    from_json,
    generate_scenario,
    run_oracle,
    shrink,
    to_json,
)
from repro.runtime import Middleware
from repro.xmlmodel import serialize


def _seeded_bug(monkeypatch):
    """Patch the tagging stage to silently drop the root's last child
    whenever it has two or more — a classic 'optimized path loses data'
    engine bug that only a differential oracle notices."""
    import repro.runtime.middleware as middleware_module

    real = middleware_module.pending_document

    def buggy(run, tracer):
        document = real(run, tracer)
        if len(document.children) >= 2:
            document.children.pop()
        return document

    monkeypatch.setattr(middleware_module, "pending_document", buggy)


class TestGenerator:
    def test_scenarios_certify_and_round_trip(self):
        for seed in range(6):
            spec = generate_scenario(seed)
            again = from_json(to_json(spec))
            assert again.to_dict() == spec.to_dict()
            assert spec.production_count() >= 1
            # a rebuilt spec evaluates to the identical document
            aig_a, sources_a = build_scenario(spec)
            aig_b, sources_b = build_scenario(again)
            doc_a = ConceptualEvaluator(
                aig_a, list(sources_a.values()),
                violation_mode="report").evaluate(dict(spec.root_values))
            doc_b = ConceptualEvaluator(
                aig_b, list(sources_b.values()),
                violation_mode="report").evaluate(dict(again.root_values))
            assert serialize(doc_a) == serialize(doc_b)

    @staticmethod
    def conceptual_bytes(spec) -> str:
        aig, sources = build_scenario(spec)
        return serialize(ConceptualEvaluator(
            aig, list(sources.values()),
            violation_mode="report").evaluate(dict(spec.root_values)))

    def test_a_pinned_share_of_values_needs_escaping(self):
        # pooled values carry the five markup characters, so the oracle
        # reaches every writer's escaping as well as columns that need none
        values = marked = documents = 0
        for seed in range(45):
            spec = generate_scenario(seed)
            strings = [value for table in spec.tables for row in table.rows
                       for value in row if isinstance(value, str)]
            values += len(strings)
            marked += sum(any(c in value for c in "&<>\"'")
                          for value in strings)
            documents += any(entity in self.conceptual_bytes(spec)
                             for entity in ("&amp;", "&lt;", "&gt;",
                                            "&quot;", "&apos;"))
        assert (marked, values) == (160, 836)
        assert documents == 16

    def test_both_rewrites_are_drawn(self):
        # seeds 0-44: a nested star left unbound, or one bound to a passed
        # member whose value is a root value or a constant, gives a query
        # that reads nothing of its anchor (a product node); a pass-through
        # read below gives a propagated parameter
        products = propagated = 0
        for seed in range(45):
            spec = generate_scenario(seed)
            aig, sources = build_scenario(spec)
            middleware = Middleware(aig, sources, violation_mode="report")
            middleware.evaluate(dict(spec.root_values))
            graph = middleware.last_plan.graph
            products += any(node.kind == "product"
                            for node in graph.nodes.values())
            propagated += bool(graph.propagated)
        assert (products, propagated) == (7, 5)

    def test_markup_moves_no_shape(self, monkeypatch):
        marked = [generate_scenario(seed) for seed in range(45)]
        monkeypatch.setattr(generator, "MARKUP_SHARE", 0.0)
        for seed, spec in enumerate(marked):
            plain = generate_scenario(seed)
            assert plain.dtd_text == spec.dtd_text
            assert [len(table.rows) for table in plain.tables] == \
                [len(table.rows) for table in spec.tables]

    @pytest.mark.parametrize("seed", [3, 7])  # an '=' and a '<>' filter
    def test_a_literal_filter_quotes_its_value(self, seed, monkeypatch):
        monkeypatch.setattr(generator, "MARKUP_SHARE", 0.0)
        plain = self.conceptual_bytes(generate_scenario(seed))
        monkeypatch.setattr(generator, "MARKUP_SHARE", 1.0)
        monkeypatch.setattr(generator, "MARKUP", ["'"])
        spec = generate_scenario(seed)
        assert "''" in json.dumps(spec.rules)
        # every pooled value gained the tail: the filter kept the same rows
        marked = self.conceptual_bytes(spec)
        assert "&apos;" in marked
        assert marked.replace("&apos;", "") == plain

    def test_determinism_same_seed_same_spec(self):
        assert to_json(generate_scenario(7)) == to_json(generate_scenario(7))

    def test_violation_injection_yields_violations(self):
        spec = generate_scenario(3, violate=True)
        assert spec.notes["violated"] in ("key", "inclusion")
        report = run_oracle(spec, configs=("merged-w1",
                                           "abort-consistency"))
        assert report.ok
        assert report.baseline_violations


class TestOracle:
    @pytest.mark.fuzz
    def test_grid_agrees_on_clean_seeds(self):
        for seed in range(8):
            report = run_oracle(generate_scenario(seed))
            assert report.ok, "\n".join(str(d) for d in report.divergences)

    @pytest.mark.fuzz
    def test_grid_agrees_on_violating_seeds(self):
        for seed in range(4):
            report = run_oracle(generate_scenario(seed, violate=True))
            assert report.ok, "\n".join(str(d) for d in report.divergences)
            assert report.baseline_violations

    def test_seeded_engine_bug_is_caught(self, monkeypatch):
        _seeded_bug(monkeypatch)
        report = run_oracle(generate_scenario(0),
                            configs=("merged-w1",))
        assert not report.ok
        assert any(d.kind == "xml" for d in report.divergences)

    def test_unbuilt_group_writer_checked_against_built_write(
            self, monkeypatch):
        # a generated group piece that loses every row: the document
        # ``evaluate`` returns is written wrong by its tagging program, and
        # written right once the checkers have built its groups
        from repro.runtime import tagging
        monkeypatch.setitem(tagging._NAMESPACE, "_join", lambda rows: "")
        report = run_oracle(generate_scenario(1), configs=("merged",))
        kinds = {d.kind for d in report.divergences}
        assert kinds == {"xml", "built-xml"}, report.divergences

    def test_unread_document_writer_checked_against_built_write(
            self, monkeypatch):
        # a writer that ignores the pending document: the document
        # ``evaluate`` returns is written as an empty root, and written
        # right once the checkers have built it
        from repro.runtime.tagging import PendingDocument
        monkeypatch.setattr(PendingDocument, "write",
                            lambda self, serializer: None)
        report = run_oracle(generate_scenario(1), configs=("merged",))
        kinds = {d.kind for d in report.divergences}
        assert kinds == {"xml", "built-xml"}, report.divergences


class TestShrinker:
    @pytest.mark.fuzz
    def test_seeded_bug_shrinks_to_small_repro(self, monkeypatch):
        _seeded_bug(monkeypatch)
        spec = generate_scenario(0)
        report = run_oracle(spec)
        assert not report.ok
        configs = tuple({d.config for d in report.divergences})
        small = shrink(spec, configs=configs)
        assert small.production_count() <= 12
        # the minimized spec still reproduces the divergence
        assert not run_oracle(small, configs).ok
        # and it is strictly simpler than what we started with
        assert small.production_count() <= spec.production_count()
        assert sum(len(t.rows) for t in small.tables) \
            <= sum(len(t.rows) for t in spec.tables)

    def test_shrink_refuses_non_diverging_input(self):
        from repro.errors import ReproError
        with pytest.raises(ReproError):
            shrink(generate_scenario(1))


class TestCLI:
    def test_fuzz_command_clean_run(self, capsys):
        from repro.__main__ import main
        assert main(["fuzz", "--seeds", "3"]) == 0
        out = capsys.readouterr().out
        assert "zero divergence" in out

    def test_fuzz_command_counts_the_rewrites(self, capsys):
        from repro.__main__ import main
        # seed 11 draws a product node and a propagated parameter
        assert main(["fuzz", "--seeds", "1", "--start", "11"]) == 0
        out = capsys.readouterr().out
        (line,) = [line for line in out.splitlines()
                   if line.startswith("rewrites: ")]
        runs = out.split(" configuration run(s), ")[0].rsplit(" ", 1)[-1]
        assert line == (f"rewrites: {runs} configuration run(s) with a "
                        f"product node (1 seed(s)), {runs} with a "
                        f"propagated parameter (1 seed(s))")

    def test_fuzz_command_seed_file_round_trip(self, tmp_path, capsys):
        from repro.__main__ import main
        spec = generate_scenario(2)
        path = tmp_path / "scenario.json"
        path.write_text(to_json(spec), encoding="utf-8")
        assert main(["fuzz", "--seed-file", str(path)]) == 0
        assert "no divergence" in capsys.readouterr().out

    @pytest.mark.fuzz
    def test_fuzz_command_catches_and_shrinks_seeded_bug(
            self, monkeypatch, tmp_path, capsys):
        _seeded_bug(monkeypatch)
        from repro.__main__ import main
        out_dir = tmp_path / "repros"
        code = main(["fuzz", "--seeds", "1", "--shrink",
                     "--out", str(out_dir)])
        assert code == 1
        artifacts = sorted(os.listdir(out_dir))
        assert artifacts, "expected a repro artifact"
        payload = json.loads((out_dir / artifacts[0]).read_text())
        repro_spec = from_json(json.dumps(payload))
        assert repro_spec.production_count() <= 12
        assert repro_spec.notes["divergences"]
        # the artifact reproduces the divergence when loaded back
        assert not run_oracle(repro_spec).ok
