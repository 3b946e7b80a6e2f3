#!/usr/bin/env python3
"""Self-test of bench_regress.evaluate_gates: runs no benchmark.

Feeds the gate evaluation synthetic measurements and checks that a
missing benchmark pair and an out-of-bounds ratio fail with a message
naming what broke, while pairs the run's filter excludes are skipped.
Repeated measurements check the min-of-k ratio estimator: a pair whose
single shot is out of bounds passes when its per-side minima are within,
and a pair whose minima are out of bounds still fails.

Usage: tools/bench_regress_selftest.py (exit 0 on success).
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bench_regress import collect_repetitions, evaluate_gates  # noqa: E402

SUITE = {
    "gated": ["BM_Fast", "BM_Big/1048576"],
    "ratio_gates": [
        {"fast": "BM_Fast", "slow": "BM_Slow", "max_ratio": 1.15},
        {"fast": "BM_Big/1048576", "slow": "BM_BigSlow/1048576",
         "min_ratio": 2.0},
    ],
}
BASELINE = {"BM_Fast": {"items_per_second": 100.0},
            "BM_Big/1048576": {"items_per_second": 10.0}}
SMOKE_FILTER = "BM_Fast$|BM_Slow$"


def run(measured_ips, bench_filter=None, threshold=0.20):
    measured = {name: {"items_per_second": v}
                for name, v in measured_ips.items()}
    return evaluate_gates(SUITE, measured, BASELINE, threshold, bench_filter)


def run_repeated(repetitions, bench_filter=SMOKE_FILTER, threshold=0.20):
    """Gates a repeated run given each benchmark's per-repetition
    items/s, folded the way bench_regress folds google-benchmark output
    (aggregate entries included, and skipped)."""
    benchmarks = []
    for name, values in repetitions.items():
        for i, v in enumerate(values):
            benchmarks.append({"name": name, "run_name": name,
                               "run_type": "iteration", "repetition_index": i,
                               "items_per_second": v, "real_time": 1e9 / v,
                               "cpu_time": 1e9 / v, "time_unit": "ns"})
        benchmarks.append({"name": name + "_median", "run_name": name,
                           "run_type": "aggregate", "aggregate_name": "median",
                           "items_per_second": 1.0, "real_time": 1.0,
                           "cpu_time": 1.0, "time_unit": "ns"})
    measured = collect_repetitions({"benchmarks": benchmarks})
    return evaluate_gates(SUITE, measured, BASELINE, threshold, bench_filter)


class EvaluateGates(unittest.TestCase):
    def test_all_within_bounds_passes(self):
        _, failures = run({"BM_Fast": 100.0, "BM_Slow": 95.0,
                           "BM_Big/1048576": 10.0,
                           "BM_BigSlow/1048576": 4.0})
        self.assertEqual(failures, [])

    def test_pair_excluded_by_the_filter_is_skipped(self):
        report, failures = run({"BM_Fast": 100.0, "BM_Slow": 95.0},
                               bench_filter=SMOKE_FILTER)
        self.assertEqual(failures, [])
        self.assertTrue(any("BM_Fast vs BM_Slow" in line for line in report))
        self.assertFalse(any("BM_Big" in line for line in report))

    def test_missing_pair_fails(self):
        _, failures = run({"BM_Fast": 100.0}, bench_filter=SMOKE_FILTER)
        self.assertEqual(failures,
                         ["BM_Fast vs BM_Slow: BM_Slow missing from the run"])

    def test_missing_pair_fails_in_a_full_run(self):
        _, failures = run({"BM_Fast": 100.0, "BM_Slow": 95.0,
                           "BM_Big/1048576": 10.0})
        self.assertEqual(failures, ["BM_Big/1048576 vs BM_BigSlow/1048576: "
                                    "BM_BigSlow/1048576 missing from the run"])

    def test_missing_gated_name_fails(self):
        _, failures = run({"BM_Slow": 95.0}, bench_filter=SMOKE_FILTER)
        self.assertIn("BM_Fast: missing from the run", failures)

    def test_out_of_bounds_ratio_names_the_bound(self):
        _, failures = run({"BM_Fast": 125.0, "BM_Slow": 100.0},
                          bench_filter=SMOKE_FILTER)
        self.assertEqual(failures, ["BM_Fast vs BM_Slow: 1.25x > max 1.15x"])

    def test_min_ratio_violation_names_the_bound(self):
        _, failures = run({"BM_Fast": 100.0, "BM_Slow": 95.0,
                           "BM_Big/1048576": 10.0,
                           "BM_BigSlow/1048576": 8.0})
        self.assertEqual(failures, ["BM_Big/1048576 vs BM_BigSlow/1048576: "
                                    "1.25x < min 2.00x"])

    def test_noisy_single_shot_passes_on_its_minima(self):
        # Repetition 0 alone reads 110/80 = 1.38x > max 1.15x (the slow
        # side ran during a burst of load); the fastest repetition of each
        # side reads 110/100 = 1.10x.
        report, failures = run_repeated({
            "BM_Fast": [110.0, 104.0, 109.0, 98.0, 107.0],
            "BM_Slow": [80.0, 100.0, 91.0, 85.0, 99.0]})
        self.assertEqual(failures, [])
        line = next(l for l in report if "BM_Fast vs BM_Slow" in l)
        self.assertIn("1.10x (max 1.15x)  OK", line)
        # The spread is printed next to the ratio: min/median/max ns/item.
        self.assertIn("fast 9.091e+06/9.346e+06/1.02e+07 ns/item over 5",
                      line)
        self.assertIn("slow 1e+07/1.099e+07/1.25e+07 ns/item over 5", line)

    def test_out_of_bounds_minima_still_fail(self):
        # Every repetition of the slow side is at least 25% slower than
        # the fastest fast repetition: min-of-k reads 125/100 = 1.25x.
        _, failures = run_repeated({
            "BM_Fast": [125.0, 118.0, 121.0, 110.0, 124.0],
            "BM_Slow": [100.0, 97.0, 99.0, 90.0, 100.0]})
        self.assertEqual(failures, ["BM_Fast vs BM_Slow: 1.25x > max 1.15x"])

    def test_absolute_gate_reads_the_median_repetition(self):
        # The fastest repetition would pass a 20% gate against a baseline
        # of 100/s; the median repetition (70/s) does not.
        _, failures = run_repeated({
            "BM_Fast": [95.0, 70.0, 60.0, 72.0, 65.0],
            "BM_Slow": [90.0, 88.0, 91.0, 92.0, 89.0]})
        self.assertEqual(failures, ["BM_Fast: 0.70x of baseline < min 0.80x "
                                    "(20% regression allowed)"])

    def test_absolute_regression_names_the_bound(self):
        _, failures = run({"BM_Fast": 30.0, "BM_Slow": 30.0},
                          bench_filter=SMOKE_FILTER, threshold=0.60)
        self.assertEqual(failures, ["BM_Fast: 0.30x of baseline < min 0.40x "
                                    "(60% regression allowed)"])


if __name__ == "__main__":
    unittest.main()
