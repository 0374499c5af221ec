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
from repro.fuzz import (
    build_scenario,
    from_json,
    generate_scenario,
    run_oracle,
    shrink,
    to_json,
)
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
        # a group fill that loses every row: the document ``evaluate``
        # returns is written wrong by its tagging program, and written
        # right once the checkers have built its groups
        import importlib
        monkeypatch.setattr(
            importlib.import_module("repro.xmlmodel.serialize"), "fill",
            lambda template, columns, start, stop: "")
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
