#!/usr/bin/env python3
"""Unit tests for the statistics of tools/ab.py, the paired A/B ledger.

Pins what a ledger entry says on fixed arrays: medians, interquartile
ranges (inclusive quartiles), the median of the per-pair change/parent
ratios, the win count in the metric's better direction, and the "beyond
the parent's IQR" claim test. Imports the script as a module; no runs,
no builds. Stdlib only (unittest), registered with ctest.
"""
import importlib.util
import os
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
AB = os.environ.get("AB_SCRIPT", os.path.join(HERE, "..", "tools", "ab.py"))

spec = importlib.util.spec_from_file_location("ab", AB)
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)


class Quartiles(unittest.TestCase):
    def test_inclusive_interpolation(self):
        self.assertEqual(ab.quartiles([1, 2, 3, 4]), (1.75, 3.25))
        self.assertEqual(ab.iqr([1, 2, 3, 4]), 1.5)

    def test_order_does_not_matter(self):
        self.assertEqual(ab.iqr([4, 1, 3, 2]), ab.iqr([1, 2, 3, 4]))

    def test_odd_count(self):
        self.assertEqual(ab.quartiles([10, 20, 30, 40, 50]), (20, 40))

    def test_single_value_has_no_spread(self):
        self.assertEqual(ab.iqr([7.0]), 0.0)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            ab.quartiles([])


class Summarize(unittest.TestCase):
    PARENT = [17.0, 16.8, 17.4, 17.1, 16.9, 17.2, 17.0, 17.3, 16.9, 17.1]
    CHANGE = [13.9, 14.1, 13.8, 14.0, 17.5, 13.9, 14.2, 13.7, 14.0, 13.9]

    def test_lower_is_better(self):
        m = ab.summarize(self.PARENT, self.CHANGE, "lower")
        self.assertEqual(m["pairs"], 10)
        self.assertEqual(m["wins"], 9)  # pair 4 lost: 17.5 > 16.9
        self.assertAlmostEqual(m["median_parent"], 17.05)
        self.assertAlmostEqual(m["median_change"], 13.95)
        self.assertAlmostEqual(m["iqr_parent"], 17.175 - 16.925)
        self.assertTrue(m["beyond_parent_iqr"])
        self.assertEqual(m["parent"], self.PARENT)
        self.assertEqual(m["change"], self.CHANGE)
        ratios = sorted(c / p for p, c in zip(self.PARENT, self.CHANGE))
        self.assertAlmostEqual(m["median_ratio"], (ratios[4] + ratios[5]) / 2)

    def test_higher_is_better_flips_wins_and_claim(self):
        m = ab.summarize(self.PARENT, self.CHANGE, "higher")
        self.assertEqual(m["wins"], 1)
        self.assertFalse(m["beyond_parent_iqr"])

    def test_ties_are_not_wins(self):
        m = ab.summarize([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], "lower")
        self.assertEqual(m["wins"], 0)
        self.assertEqual(m["median_ratio"], 1.0)
        self.assertFalse(m["beyond_parent_iqr"])

    def test_gain_inside_the_spread_is_not_claimed(self):
        parent = [10.0, 12.0, 14.0, 16.0]  # IQR 3.0
        change = [9.0, 11.0, 13.0, 15.0]   # better every pair, median by 1.0
        m = ab.summarize(parent, change, "lower")
        self.assertEqual(m["wins"], 4)
        self.assertAlmostEqual(m["iqr_parent"], 3.0)
        self.assertFalse(m["beyond_parent_iqr"])

    def test_zero_parent_values_leave_the_ratio_out(self):
        m = ab.summarize([0.0, 2.0, 4.0], [1.0, 1.0, 2.0], "lower")
        self.assertAlmostEqual(m["median_ratio"], 0.5)

    def test_mismatched_pairs_are_an_error(self):
        with self.assertRaises(ValueError):
            ab.summarize([1.0], [1.0, 2.0], "lower")
        with self.assertRaises(ValueError):
            ab.summarize([1.0], [1.0], "sideways")


class SummarizeRun(unittest.TestCase):
    def result(self, **values):
        return {"correct": True, "attempted": 100, "failed": 0,
                "metrics": {k: {"value": v, "unit": "us"} for k, v in values.items()}}

    def test_only_metrics_every_run_reported_and_the_benchmark_names(self):
        dirs = ab.directions({
            "end_to_end": [{"name": "cpu_us_per_req", "better": "lower"}],
            "per_layer": [{"name": "slo_rps", "better": "higher"}],
        })
        self.assertEqual(dirs, {"cpu_us_per_req": "lower", "slo_rps": "higher"})
        parent = [self.result(cpu_us_per_req=10, slo_rps=5, extra=1),
                  self.result(cpu_us_per_req=12, slo_rps=6)]
        change = [self.result(cpu_us_per_req=9, slo_rps=7, extra=1),
                  self.result(cpu_us_per_req=11, slo_rps=5)]
        metrics = ab.summarize_run(parent, change, dirs)
        self.assertEqual(sorted(metrics), ["cpu_us_per_req", "slo_rps"])
        self.assertEqual(metrics["cpu_us_per_req"]["wins"], 2)
        self.assertEqual(metrics["slo_rps"]["wins"], 1)

    def test_fail_ratio(self):
        rs = [{"attempted": 100, "failed": 1}, {"attempted": 300, "failed": 3}]
        self.assertAlmostEqual(ab.fail_ratio(rs), 0.01)
        self.assertIsNone(ab.fail_ratio([]))


if __name__ == "__main__":
    unittest.main()
