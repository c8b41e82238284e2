"""The verdict rule of ``scripts/bench_pairs.py``, on synthetic paired runs
(the benchmark itself is not run)."""

import importlib.util
import os
import sys

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("bench_pairs", bench_pairs)
_spec.loader.exec_module(bench_pairs)
verdict = bench_pairs.verdict

PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.5, 98.5, 100.0, 100.0]


class TestVerdict:
    def test_clear_gain_is_improved(self):
        current = [p * 1.5 for p in PARENT]
        judged = verdict(PARENT, current, "higher", 0.25)
        assert judged.verdict == "improved"
        assert (judged.wins, judged.pairs) == (10, 10)
        assert judged.current[1] == pytest.approx(150.0)

    def test_lower_is_better_direction(self):
        faster = [p * 0.5 for p in PARENT]
        assert verdict(PARENT, faster, "lower", 0.25).verdict == "improved"
        assert verdict(PARENT, faster, "higher", 0.25).verdict == "regressed"

    def test_eight_wins_of_ten_is_not_improved(self):
        current = [p * 1.5 for p in PARENT[:8]] + [p * 0.99 for p in PARENT[8:]]
        judged = verdict(PARENT, current, "higher", 0.25)
        assert judged.wins == 8
        assert judged.verdict == "flat"

    def test_gain_inside_the_parent_spread_is_not_improved(self):
        parent = [90.0, 110.0] * 5  # quartile spread 20
        current = [p + 5.0 for p in parent]  # wins every pair by 5
        judged = verdict(parent, current, "higher", 0.25)
        assert judged.wins == 10
        assert judged.verdict == "flat"

    def test_ties_count_for_neither_side(self):
        judged = verdict(PARENT, list(PARENT), "higher", 0.25)
        assert judged.wins == 0
        assert judged.verdict == "flat"

    def test_worse_than_the_bound_is_regressed(self):
        slower = [p * 1.3 for p in PARENT]
        assert verdict(PARENT, slower, "lower", 0.25).verdict == "regressed"
        within = [p * 1.2 for p in PARENT]
        assert verdict(PARENT, within, "lower", 0.25).verdict == "flat"

    def test_spread_wider_than_the_bound_is_unresolved(self):
        parent = [50.0, 150.0] * 5
        current = [60.0, 140.0] * 5
        assert verdict(parent, current, "lower", 0.25).verdict == "unresolved"

    def test_wide_spread_resolves_when_every_run_is_better(self):
        parent = [200.0, 300.0] * 5  # quartile spread 100, wider than 10%
        current = [190.0, 199.0] * 5  # every run beats every parent run
        # The median gap (55.5) is inside the parent's spread: not a gain,
        # but no longer unresolved either.
        assert verdict(parent, current, "lower", 0.1).verdict == "flat"

    def test_zero_metric_on_both_sides_is_flat(self):
        assert verdict([0.0] * 4, [0.0] * 4, "higher", 0.25).verdict == "flat"

    def test_unpaired_runs_are_rejected(self):
        with pytest.raises(ValueError):
            verdict([1.0, 2.0], [1.0], "higher", 0.25)


class TestSeeds:
    def test_ranges_and_lists(self):
        assert bench_pairs.parse_seeds("1-3") == [1, 2, 3]
        assert bench_pairs.parse_seeds("1987") == [1987]
        assert bench_pairs.parse_seeds("1-2,1987") == [1, 2, 1987]
