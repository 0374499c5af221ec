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
        # the option went with the CSV source: every source is SQLite, so
        # every value is refused by argparse
        for value in ("file", "DB1=file", "sqlite"):
            with pytest.raises(SystemExit) as exit_info:
                main(["demo", "--backend", value])
            assert exit_info.value.code == 2
            assert "unrecognized arguments: --backend" in \
                capsys.readouterr().err

    def test_source_outage_is_refused_in_one_line(self, capsys):
        assert main(["demo", "--scale", "tiny",
                     "--faults", "DB3:down@1"]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        (line,) = [line for line in err.splitlines()
                   if line.startswith("error: ")]
        assert line.startswith("error: SourceUnavailableError: ")
        assert "'DB3'" in line

    def test_a_transient_error_is_refused_and_nothing_retries(self, capsys):
        assert main(["demo", "--scale", "tiny",
                     "--faults", "DB2:error@2"]) == 1
        captured = capsys.readouterr()
        assert "faults fired: DB2:error@2" in captured.out
        (line,) = [line for line in captured.err.splitlines()
                   if line.startswith("error: ")]
        assert line.startswith("error: SourceUnavailableError: ")
        assert "'DB2'" in line
        with pytest.raises(SystemExit) as exit_info:
            main(["demo", "--retries", "2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --retries" in capsys.readouterr().err

    def test_refusal_still_prints_observability(self, capsys):
        assert main(["demo", "--scale", "tiny", "--faults", "DB3:down@1",
                     "--metrics"]) == 1
        captured = capsys.readouterr()
        assert "faults fired: DB3:down@1" in captured.out
        assert "== counters ==" in captured.out
        assert captured.err.startswith("error: SourceUnavailableError: ")

    @pytest.mark.parametrize("argv", [
        ["profile", "--runs", "0"], ["profile", "--runs", "-1"],
        ["demo", "--mbps", "0"], ["demo", "--mbps", "nan"],
        ["calibrate", "--mbps", "-2"], ["profile", "--mbps", "0"],
        ["demo", "--shards", "0"]])
    def test_numeric_flags_must_be_positive(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {argv[1]}: expected a positive" in err
        assert "Traceback" not in err

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
