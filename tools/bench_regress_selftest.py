#!/usr/bin/env python3
"""Self-test of bench_regress.evaluate_gates: runs no benchmark.

Feeds the gate evaluation synthetic measurements and checks that a
missing benchmark pair and an out-of-bounds ratio fail with a message
naming what broke, while pairs the run's filter excludes are skipped.

Usage: tools/bench_regress_selftest.py (exit 0 on success).
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bench_regress import evaluate_gates  # noqa: E402

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

    def test_absolute_regression_names_the_bound(self):
        _, failures = run({"BM_Fast": 30.0, "BM_Slow": 30.0},
                          bench_filter=SMOKE_FILTER, threshold=0.60)
        self.assertEqual(failures, ["BM_Fast: 0.30x of baseline < min 0.40x "
                                    "(60% regression allowed)"])


if __name__ == "__main__":
    unittest.main()
