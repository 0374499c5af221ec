"""The perf gate's two rules on synthetic samples (no benchmark run).

``tools/bench_gate.py`` decides a regression per metric with ``judge`` and a
claimed gain with ``judge_claim``; both are pure functions of the samples.
"""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_gate", Path(__file__).resolve().parents[1] / "tools"
    / "bench_gate.py")
bench_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_gate)

LATENCY = {"name": "doc_latency_p50_s", "better": "lower", "bound": 0.25}
RATE = {"name": "requests_per_s", "better": "higher", "bound": 0.25}
#: ten parent runs, q1-q3 distance 0.0045
PARENT = [0.250, 0.247, 0.252, 0.249, 0.246, 0.251, 0.248, 0.250, 0.253,
          0.247]


class TestJudge:
    def test_within_worse_and_direction(self):
        assert bench_gate.judge(LATENCY, PARENT, [0.26] * 10)[0] == "within"
        assert bench_gate.judge(LATENCY, PARENT, [0.32] * 10)[0] == "worse"
        assert bench_gate.judge(LATENCY, PARENT, [0.10] * 10)[0] == "within"
        assert bench_gate.judge(RATE, [100.0] * 10, [70.0] * 10)[0] == "worse"
        assert bench_gate.judge(RATE, [100.0] * 10, [130.0] * 10)[0] == \
            "within"

    def test_noisy_parent_is_unresolved_unless_every_run_is_better(self):
        noisy = [0.1, 0.2, 0.3, 0.4, 0.5]
        assert bench_gate.judge(LATENCY, noisy, [0.45] * 5)[0] == "unresolved"
        assert bench_gate.judge(LATENCY, noisy, [0.05] * 5)[0] == "within"

    def test_missing_side_is_unresolved(self):
        assert bench_gate.judge(LATENCY, PARENT, [])[0] == "unresolved"


class TestJudgeClaim:
    def test_clear_gain_is_met(self):
        met, text = bench_gate.judge_claim(
            LATENCY, [(old, old * 0.8) for old in PARENT])
        assert met and "wins 10/10" in text and "-20." in text

    def test_nine_of_ten_is_enough_eight_is_not(self):
        nine = [(old, 0.20) for old in PARENT[:9]] + [(0.247, 0.26)]
        assert bench_gate.judge_claim(LATENCY, nine)[0]
        eight = nine[:8] + [(0.253, 0.26), (0.247, 0.26)]
        met, text = bench_gate.judge_claim(LATENCY, eight)
        assert not met and "wins 8/10" in text

    def test_a_tie_is_a_win_for_neither(self):
        pairs = [(old, 0.20) for old in PARENT[:8]] + [(0.25, 0.25)] * 2
        met, text = bench_gate.judge_claim(LATENCY, pairs)
        assert not met and "wins 8/10" in text

    def test_gap_must_exceed_the_parents_quartile_distance(self):
        # every pair won, but by less than the parent's own spread
        met, text = bench_gate.judge_claim(
            LATENCY, [(old, old - 0.001) for old in PARENT])
        assert not met and "wins 10/10" in text

    def test_higher_is_better_metrics(self):
        assert bench_gate.judge_claim(
            RATE, [(100.0 + i, 130.0 + i) for i in range(10)])[0]
        assert not bench_gate.judge_claim(
            RATE, [(100.0 + i, 70.0 + i) for i in range(10)])[0]

    def test_a_run_without_the_metric_wins_nothing(self):
        pairs = [(old, 0.20) for old in PARENT[:8]] + [(0.25, None),
                                                       (None, 0.20)]
        met, text = bench_gate.judge_claim(LATENCY, pairs)
        assert not met and "wins 8/10" in text
        assert not bench_gate.judge_claim(LATENCY, [(None, 0.2)] * 10)[0]

    @pytest.mark.parametrize("claim", ["nope@hospital-daily",
                                       "doc_latency_p50_s@nope",
                                       "doc_latency_p50_s"])
    def test_unknown_names_are_an_argument_error(self, claim, capsys):
        with pytest.raises(SystemExit) as refused:
            bench_gate.main(["HEAD", "--claim", claim])
        assert refused.value.code == 2
        assert "--claim" in capsys.readouterr().err


class TestParallelCapacity:
    def test_one_reading_per_alternation(self):
        readings = bench_gate.parallel_capacity(alternations=2, work=20_000)
        assert len(readings) == 2 and all(r > 0 for r in readings)
