#!/usr/bin/env python3
"""Unit tests of tools/ab.py's verdict rules: python3 tools/test_ab.py"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import ab  # noqa: E402

# Ten steady parent runs: quartiles 98.75 and 101.25, so an IQR of 2.5.
STEADY = [100, 101, 99, 102, 98, 100, 103, 97, 101, 99]


def run(correct=True, cpu="cpu A", side="change"):
    return {"workload": "kernels", "seed": 0, "side": side,
            "result": {"correct": correct, "attempted": 25, "failed": 0 if correct else 1},
            "fingerprint": (cpu, "2", "rustc 1.95.0")}


class VerdictTest(unittest.TestCase):
    def test_disjoint_slowdown_is_a_regression_despite_a_wide_spread(self):
        change = [35, 65, 40, 60, 50, 45, 55, 38, 62, 50]
        self.assertGreater(ab.spread(change), 0.25)
        self.assertFalse(ab.overlap(STEADY, change))
        self.assertEqual(ab.verdict(STEADY, change, "higher", 0.25), "regression")

    def test_overlapping_noisy_runs_are_unresolved(self):
        parent = [100, 60, 140, 80, 120, 70, 130, 90, 110, 100]
        change = [95, 65, 135, 85, 115, 75, 125, 85, 105, 100]
        self.assertEqual(ab.verdict(parent, change, "higher", 0.25), "unresolved")

    def test_either_sides_spread_leaves_overlapping_runs_unresolved(self):
        noisy = [70, 130, 75, 125, 100, 80, 120, 90, 110, 100]
        self.assertLess(ab.spread(STEADY), 0.25)
        self.assertEqual(ab.verdict(STEADY, noisy, "higher", 0.25), "unresolved")
        self.assertEqual(ab.verdict(noisy, STEADY, "higher", 0.25), "unresolved")

    def test_a_steady_slowdown_regresses_only_past_the_bound(self):
        self.assertEqual(ab.verdict(STEADY, [x * 0.7 for x in STEADY], "higher", 0.25),
                         "regression")
        self.assertEqual(ab.verdict(STEADY, [x * 0.8 for x in STEADY], "higher", 0.25),
                         "within bound")

    def test_nine_wins_in_ten_with_a_gap_past_the_parent_iqr_is_a_gain(self):
        change = [x + 10 for x in STEADY]
        change[3] = STEADY[3] - 1
        self.assertEqual(ab.wins(STEADY, change, "higher"), (9, 0))
        self.assertEqual(ab.verdict(STEADY, change, "higher", 0.25), "gain")

    def test_eight_wins_in_ten_is_no_gain(self):
        change = [x + 10 for x in STEADY]
        change[3] = STEADY[3] - 1
        change[6] = STEADY[6] - 1
        self.assertEqual(ab.wins(STEADY, change, "higher"), (8, 0))
        self.assertEqual(ab.verdict(STEADY, change, "higher", 0.25), "within bound")

    def test_a_gap_inside_the_parent_iqr_is_no_gain(self):
        change = [x + 2 for x in STEADY]
        self.assertEqual(ab.wins(STEADY, change, "higher"), (10, 0))
        self.assertEqual(ab.verdict(STEADY, change, "higher", 0.25), "within bound")

    def test_ties_count_for_neither_side(self):
        change = [x + 10 for x in STEADY]
        change[3] = STEADY[3]
        self.assertEqual(ab.wins(STEADY, change, "higher"), (9, 1))
        self.assertEqual(ab.verdict(STEADY, change, "higher", 0.25), "gain")
        change[6] = STEADY[6]
        self.assertEqual(ab.wins(STEADY, change, "higher"), (8, 2))
        self.assertEqual(ab.verdict(STEADY, change, "higher", 0.25), "within bound")

    def test_three_pairs_show_no_gain_but_still_regress(self):
        parent = [100, 101, 99]
        change = [200, 202, 198]
        self.assertLess(max(ab.spread(parent), ab.spread(change)), 0.25)
        self.assertEqual(ab.wins(parent, change, "higher"), (3, 0))
        self.assertEqual(ab.verdict(parent, change, "higher", 0.25), "within bound")
        self.assertEqual(ab.verdict(parent, [x * 0.7 for x in parent], "higher", 0.25),
                         "regression")

    def test_lower_is_better_inverts(self):
        doubled = [x * 2 for x in STEADY]
        halved = [x / 2 for x in STEADY]
        self.assertEqual(ab.wins(STEADY, halved, "lower"), (10, 0))
        self.assertEqual(ab.verdict(STEADY, doubled, "lower", 0.25), "regression")
        self.assertEqual(ab.verdict(STEADY, halved, "lower", 0.25), "gain")
        self.assertEqual(ab.verdict(STEADY, doubled, "higher", 0.25), "gain")


class RefusalTest(unittest.TestCase):
    def test_correct_runs_from_one_host_are_judged(self):
        self.assertIsNone(ab.refusal([run(side="parent"), run()]))

    def test_an_incorrect_run_is_refused(self):
        self.assertIn("not correct", ab.refusal([run(side="parent"), run(correct=False)]))

    def test_mixed_fingerprints_are_refused(self):
        self.assertIn("different host", ab.refusal([run(side="parent"), run(cpu="cpu B")]))


if __name__ == "__main__":
    unittest.main()
