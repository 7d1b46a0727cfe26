"""Tests of the spread and bound rules in repeat.py.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import repeat  # noqa: E402


class SpreadTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [10.0, 11.0, 9.5, 10.2, 10.8, 9.9, 10.1, 10.4, 10.0, 12.0]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(repeat.quartile_spread(values),
                               (q3 - q1) / statistics.median(values))

    def test_equal_values_have_no_spread(self):
        self.assertEqual(repeat.quartile_spread([1.0] * 10), 0.0)
        self.assertEqual(repeat.quartile_spread([3.0]), 0.0)

    def test_steadiness_thirds(self):
        self.assertEqual(repeat.steadiness(0.03, 0.15), "steady")
        self.assertEqual(repeat.steadiness(0.10, 0.15), "ok")
        self.assertEqual(repeat.steadiness(0.16, 0.15), "wide")


class BoundTest(unittest.TestCase):
    def test_lower_is_better(self):
        self.assertFalse(repeat.regressed(100.0, 114.9, 0.15, "lower"))
        self.assertTrue(repeat.regressed(100.0, 115.1, 0.15, "lower"))
        self.assertFalse(repeat.regressed(100.0, 50.0, 0.15, "lower"))

    def test_higher_is_better(self):
        self.assertFalse(repeat.regressed(10.0, 8.6, 0.15, "higher"))
        self.assertTrue(repeat.regressed(10.0, 8.4, 0.15, "higher"))
        self.assertFalse(repeat.regressed(10.0, 20.0, 0.15, "higher"))

    def test_any_failure_breaks_a_tiny_success_bound(self):
        # One failed operation in 100,000 is a success_ratio regression.
        self.assertTrue(repeat.regressed(1.0, 1 - 1e-5, 1e-6, "higher"))
        self.assertFalse(repeat.regressed(1.0, 1.0, 1e-6, "higher"))


class SummaryTest(unittest.TestCase):
    SPEC = {"end_to_end": [
        {"name": "query_p50_ms", "unit": "ms", "better": "lower", "bound": 0.15},
    ]}

    def rows(self, values, failed=0):
        return [{"seed": i, "result": {"correct": failed == 0, "attempted": 10,
                                       "failed": failed,
                                       "metrics": {"query_p50_ms": {"value": v, "unit": "ms"}}}}
                for i, v in enumerate(values)]

    def test_steady_runs_pass_and_regressions_fail(self):
        base = self.rows([100, 101, 99, 100, 102])
        with open(os.devnull, "w") as out:
            stdout, sys.stdout = sys.stdout, out
            try:
                self.assertTrue(repeat.summarize(base, self.SPEC))
                self.assertTrue(repeat.summarize(self.rows([110] * 5), self.SPEC, base))
                self.assertFalse(repeat.summarize(self.rows([120] * 5), self.SPEC, base))
                self.assertFalse(repeat.summarize(self.rows([100] * 5, failed=1), self.SPEC))
            finally:
                sys.stdout = stdout

    def test_setup_spread_is_printed_but_not_gated(self):
        spec = {"end_to_end": [
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        ]}
        rows = [{"seed": i, "result": {"correct": True, "attempted": 1, "failed": 0,
                                       "metrics": {"setup_s": {"value": v, "unit": "s"}}}}
                for i, v in enumerate([4.0, 5.0, 7.0, 4.5, 6.5])]
        wide = self.rows([80, 100, 140, 90, 130])
        with open(os.devnull, "w") as out:
            stdout, sys.stdout = sys.stdout, out
            try:
                self.assertTrue(repeat.summarize(rows, spec))
                self.assertFalse(repeat.summarize(wide, self.SPEC))
            finally:
                sys.stdout = stdout
        self.assertEqual(repeat.steadiness(repeat.quartile_spread([4.0, 5.0, 7.0, 4.5, 6.5]),
                                           0.25), "wide")

    def test_trace_overhead_is_traced_minus_untraced(self):
        untraced = [{"params": {"samples": {"first_third_p50_ms": v}},
                     "result": {"metrics": {"query_p50_ms": {"value": 2 * v, "unit": "ms"}}}}
                    for v in [100, 90, 110]]
        traced = [{"result": {"metrics": {"service.query_p50_ms": {"value": v, "unit": "ms"}}}}
                  for v in [105, 120, 95]]
        self.assertAlmostEqual(repeat.trace_overhead(untraced, traced), 0.05)

    def test_benchmark_json_names_every_workload(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        path = os.path.join(root, "BENCHMARK.json")
        if not os.path.exists(path):
            self.skipTest("BENCHMARK.json is not beside this directory")
        with open(path) as f:
            spec = json.load(f)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         ["rds-1m", "sds-cohort"])
        names = [m["name"] for m in spec["end_to_end"]]
        self.assertIn("setup_s", names)
        self.assertTrue(all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
