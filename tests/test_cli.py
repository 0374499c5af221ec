"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main


class TestCLI:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "Attribute Integration Grammars" in out
        assert "repro.optimizer" in out

    def test_demo(self, capsys):
        assert main(["demo", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "patients" in out and "simulated response" in out

    def test_demo_xml(self, capsys):
        assert main(["demo", "--scale", "tiny", "--xml"]) == 0
        out = capsys.readouterr().out
        assert "<report>" in out

    def test_demo_no_merge(self, capsys):
        assert main(["demo", "--scale", "tiny", "--no-merge"]) == 0
        assert "merging off" in capsys.readouterr().out

    def test_demo_workers_invalid(self, capsys):
        # the option went with the threaded executor: every value is
        # refused by argparse, on each command that had it
        for command in ("demo", "calibrate", "profile", "serve"):
            with pytest.raises(SystemExit) as exit_info:
                main([command, "--workers", "4"])
            assert exit_info.value.code == 2
            assert "unrecognized arguments: --workers" in \
                capsys.readouterr().err

    def test_demo_bad_backend_spec(self, capsys):
        # the whole spec is checked at parsing, not just the name before
        # the first colon
        for value in ("DB1=file:xml", "DB1=file,DB3=sqlite3", "file:tsv"):
            with pytest.raises(SystemExit) as exit_info:
                main(["demo", "--backend", value])
            assert exit_info.value.code == 2
            err = capsys.readouterr().err
            assert "argument --backend" in err
            assert "valid spellings: sqlite, sqlite:PATH, file, file:csv, " \
                "file:csv:DIR" in err

    def test_source_outage_is_refused_in_one_line(self, capsys):
        assert main(["demo", "--scale", "tiny",
                     "--faults", "DB3:down@1"]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        (line,) = [line for line in err.splitlines()
                   if line.startswith("error: ")]
        assert line.startswith("error: EvaluationError: ")
        assert "'DB3'" in line

    def test_check(self, capsys):
        assert main(["check", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert out.count("identical=True") == 2
        assert out.strip().endswith("OK")

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_bad_scale(self):
        with pytest.raises(SystemExit):
            main(["demo", "--scale", "galactic"])
