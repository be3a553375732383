"""Tests for the benchmark suite and its ratio gates."""

import pytest

from repro.perf.suite import (
    MIN_BATCH_OVER_UNTRACED,
    MIN_FAST_OBSERVATION_OVER_UNTRACED,
    MIN_UNTRACED_OVER_TRACED,
    SLICES,
    UNGATED_RATIOS,
    PerfReport,
    check_gates,
    run_suite,
)
from repro.perf.bench import BenchResult


class TestCheckGates:
    def test_all_pass(self):
        assert check_gates({"gift64_untraced_over_traced": 12.0}) == []

    def test_below_min_ratio(self):
        failures = check_gates({"gift64_untraced_over_traced": 2.0})
        assert len(failures) == 1
        assert "below" in failures[0]

    def test_every_ratio_is_gated(self):
        failures = check_gates({
            "gift64_untraced_over_traced": 12.0,
            "gift128_untraced_over_traced": 1.5,
        })
        assert len(failures) == 1
        assert "gift128" in failures[0]

    def test_baseline_headroom(self):
        ratios = {"gift64_untraced_over_traced": 30.0}
        assert check_gates(ratios, baseline_ratio=20.0) == []
        failures = check_gates(ratios, baseline_ratio=10.0)
        assert len(failures) == 1
        assert "regressed" in failures[0]

    def test_no_baseline_means_no_regression_gate(self):
        assert check_gates({"gift64_untraced_over_traced": 1000.0}) == []

    def test_batch_ratio_gated_at_batch_floor(self):
        # 12x clears the 5x untraced gate but not the 20x batch gate.
        failures = check_gates({"gift64_batch_over_untraced": 12.0})
        assert len(failures) == 1
        assert f"{MIN_BATCH_OVER_UNTRACED:.1f}x" in failures[0]
        assert check_gates(
            {"gift64_batch_over_untraced": MIN_BATCH_OVER_UNTRACED}
        ) == []

    def test_fast_observation_ratio_gated_at_its_floor(self):
        # 6x clears the 5x untraced gate but not the observation gate.
        failures = check_gates({"observer_fast_over_untraced": 6.0})
        assert len(failures) == 1
        assert f"{MIN_FAST_OBSERVATION_OVER_UNTRACED:.1f}x" in failures[0]
        assert check_gates({
            "observer_fast_over_untraced":
                MIN_FAST_OBSERVATION_OVER_UNTRACED,
        }) == []

    def test_fast_over_full_is_reported_not_gated(self):
        assert UNGATED_RATIOS == {"observer_fast_over_full"}
        assert check_gates({"observer_fast_over_full": 0.5}) == []


class TestPerfReport:
    def test_result_lookup(self):
        report = PerfReport(quick=True, seed=0, results=[
            BenchResult("a", ops=1, seconds=1.0),
        ])
        assert report.result("a").ops == 1
        with pytest.raises(KeyError):
            report.result("missing")

    def test_ratios_skip_missing_pairs(self):
        report = PerfReport(quick=True, seed=0, results=[
            BenchResult("gift64_encrypt_untraced", ops=10, seconds=1.0),
        ])
        assert report.ratios == {}


class TurnClock:
    """Read twice per turn of a slow bench (one call a turn); each turn
    spans the next duration, the cycle repeating for every bench."""

    def __init__(self, durations):
        self.durations = durations
        self.now = 0.0
        self.reads = 0

    def __call__(self):
        self.reads += 1
        if self.reads % 2 == 0:
            turn = self.reads // 2 - 1
            self.now += self.durations[turn % len(self.durations)]
        return self.now


class TestAlternatingTurns:
    def test_benches_alternate_and_keep_their_fastest_turn(self):
        # Seven quick benches, one turn each per round: the fourth
        # bench's turns take 0.5, 0.1, 0.3, 0.4, 0.2 s, all others
        # 0.6 s.  Bench after bench, it would keep 0.3 s instead.
        assert SLICES == 5
        durations = [duration
                     for fourth in (0.5, 0.1, 0.3, 0.4, 0.2)
                     for duration in [0.6] * 3 + [fourth] + [0.6] * 3]
        report = run_suite(quick=True, seed=0, min_seconds=0.01,
                           clock=TurnClock(durations))
        seconds = [result.seconds for result in report.results]
        assert [result.ops for result in report.results] == [1] * 7
        assert seconds == pytest.approx([0.6] * 3 + [0.1] + [0.6] * 3)


class TestRunSuite:
    @pytest.fixture(scope="class")
    def report(self):
        # One real (but tiny) suite run shared by the assertions below.
        return run_suite(quick=True, seed=0, min_seconds=0.01)

    def test_quick_suite_shape(self, report):
        names = [result.name for result in report.results]
        expected = [
            "gift64_encrypt_untraced",
            "gift64_encrypt_traced",
            "gift64_encrypt_batch",
            "observer_fast_observations",
            "observer_full_observations",
            "voting_updates",
            "engine_first_round_trial",
        ]
        assert names == expected
        assert all(result.ops >= 1 for result in report.results)

    def test_untraced_beats_traced_by_gate_margin(self, report):
        """The tentpole claim: the trace-free path is >= 5x the traced
        path, on whatever hardware the tests run on."""
        ratio = report.ratios["gift64_untraced_over_traced"]
        assert ratio >= MIN_UNTRACED_OVER_TRACED

    def test_batch_beats_untraced_by_gate_margin(self, report):
        """The batch-fabric claim: bitsliced encrypt_batch delivers
        >= 20x the scalar untraced blocks/s."""
        ratio = report.ratios["gift64_batch_over_untraced"]
        assert ratio >= MIN_BATCH_OVER_UNTRACED

    def test_fast_observation_beats_untraced_by_gate_margin(self, report):
        """The index-mask claim: one fast-path observation runs >= 7x
        as often as one untraced encryption."""
        ratio = report.ratios["observer_fast_over_untraced"]
        assert ratio >= MIN_FAST_OBSERVATION_OVER_UNTRACED

    def test_fast_over_full_is_reported(self, report):
        assert report.ratios["observer_fast_over_full"] > 1.0

    def test_gates_pass_on_real_run(self, report):
        assert check_gates(report.ratios) == []
