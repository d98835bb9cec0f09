#!/usr/bin/env python3
"""Tests the statistics of tools/ab_campaign.py on canned runs.

tools/ab_fixtures/canned_runs.jsonl holds five rounds of four variants
(base and change, pads 0 and 176) for three made-up workloads:

  holds  the change is 10 % lower at both pads (one round lost at pad 0);
         the pad alone moves the metric 2 %;
  flips  the change is 5 % lower at pad 0 but 3 % higher at pad 176;
  floor  the change is 2 % lower at both pads, inside a 4 % pad floor.

Run directly: python3 tools/test_ab_campaign.py
"""

from __future__ import annotations

import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree

import ab_campaign  # noqa: E402

METRICS = [("decision_p99_ms", "lower"), ("jobs_per_s", "higher")]


class Statistics(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.runs = ab_campaign.read_runs(
            os.path.join(HERE, "ab_fixtures", "canned_runs.jsonl"))
        cls.result = ab_campaign.analyse(cls.runs, METRICS)

    def test_quantiles(self):
        xs = [1.00, 1.02, 0.98, 1.01, 0.99]
        self.assertAlmostEqual(ab_campaign.median(xs), 1.00)
        self.assertAlmostEqual(ab_campaign.quantile(xs, 0.25), 0.99)
        self.assertAlmostEqual(ab_campaign.quantile(xs, 0.75), 1.01)
        self.assertAlmostEqual(ab_campaign.median([1.0, 2.0]), 1.5)

    def test_variant_quartiles(self):
        q1, med, q3, n = (self.result["holds"]["decision_p99_ms"]
                          ["variants"][("base", 0)])
        self.assertEqual(n, 5)
        self.assertAlmostEqual(q1, 0.99)
        self.assertAlmostEqual(med, 1.00)
        self.assertAlmostEqual(q3, 1.01)
        self.assertAlmostEqual(self.result["holds"]["decision_p99_ms"]
                               ["variants"][("change", 176)][1], 0.918)

    def test_change_that_holds(self):
        row = self.result["holds"]["decision_p99_ms"]
        chg0, won0, n0 = row["changes"][0]
        chg176, won176, n176 = row["changes"][176]
        self.assertAlmostEqual(chg0, -10.0)
        self.assertEqual((won0, n0), (4, 5))
        self.assertAlmostEqual(chg176, -10.0)
        self.assertEqual((won176, n176), (5, 5))
        self.assertAlmostEqual(row["floor"], 2.0)
        self.assertEqual(row["verdict"], "better")

    def test_higher_is_better_metric(self):
        row = self.result["holds"]["jobs_per_s"]
        chg0, won0, _ = row["changes"][0]
        self.assertAlmostEqual(chg0, 100.0 / 0.9 - 100.0, places=3)
        self.assertEqual(won0, 4)
        self.assertAlmostEqual(row["floor"], 100.0 - 100.0 / 1.02, places=3)
        self.assertEqual(row["verdict"], "better")

    def test_change_that_flips_sign(self):
        row = self.result["flips"]["decision_p99_ms"]
        self.assertAlmostEqual(row["changes"][0][0], -5.0)
        self.assertEqual(row["changes"][0][1], 5)
        self.assertAlmostEqual(row["changes"][176][0], 3.0)
        self.assertEqual(row["changes"][176][1], 0)
        self.assertAlmostEqual(row["floor"], 1.0)
        self.assertEqual(row["verdict"], "sign flips")

    def test_change_inside_the_floor(self):
        row = self.result["floor"]["decision_p99_ms"]
        self.assertAlmostEqual(row["changes"][0][0], -2.0)
        self.assertAlmostEqual(row["changes"][176][0], -2.0)
        self.assertEqual(row["changes"][176][1], 5)
        self.assertAlmostEqual(row["floor"], 4.0)
        self.assertEqual(row["verdict"], "inside floor")

    def test_verdict_rules(self):
        self.assertEqual(ab_campaign.verdict([-3.0, -4.0], 2.0, "lower"),
                         "better")
        self.assertEqual(ab_campaign.verdict([-3.0, -4.0], 2.0, "higher"),
                         "worse")
        self.assertEqual(ab_campaign.verdict([-3.0, -4.0], 3.0, "lower"),
                         "inside floor")
        self.assertEqual(ab_campaign.verdict([0.0, 0.0], 0.0, "lower"),
                         "inside floor")
        self.assertEqual(ab_campaign.verdict([0.0, 0.0], 0.5, "lower"),
                         "inside floor")
        self.assertEqual(ab_campaign.verdict([-3.0, 0.0], 0.5, "lower"),
                         "inside floor")
        self.assertEqual(ab_campaign.verdict([-3.0, 1.0], 0.5, "lower"),
                         "sign flips")
        self.assertEqual(ab_campaign.verdict([-3.0], None, "lower"),
                         "no control")

    def test_report_names_every_workload(self):
        text = ab_campaign.format_report(self.result)
        for workload in ("holds", "flips", "floor"):
            self.assertIn(f"== {workload} ==", text)
        self.assertIn("pad 0: -10.0 % (4/5), pad 176: -10.0 % (5/5)", text)


if __name__ == "__main__":
    unittest.main()
