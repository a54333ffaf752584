#!/usr/bin/env python3
"""The perf A/B gate's rule (tools/perf_ab.py) on synthetic samples.

usage: test_perf_ab.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import perf_ab  # noqa: E402

BASE = [100.0] * 10


class VerdictTest(unittest.TestCase):
    def test_aa_like_series_passes(self):
        base = [100.0, 104.0, 97.0, 110.0, 99.0, 101.0, 95.0, 108.0, 102.0, 98.0]
        change = [103.0, 99.0, 111.0, 100.0, 96.0, 107.0, 101.0, 97.0, 104.0, 100.5]
        self.assertEqual(perf_ab.verdict(base, change), "ok")

    def test_fifteen_percent_slower_losing_nine_pairs_fails(self):
        change = [115.0] * 9 + [95.0]
        self.assertEqual(perf_ab.verdict(BASE, change), "REGRESSION")

    def test_fifteen_percent_slower_losing_six_pairs_passes(self):
        base = [100.0] * 6 + [200.0] * 4
        change = [115.0] * 6 + [150.0] * 4
        self.assertGreater(perf_ab.statistics.median(change),
                           1.1 * perf_ab.statistics.median(base))
        self.assertEqual(perf_ab.verdict(base, change), "ok")

    def test_five_percent_slower_losing_every_pair_passes(self):
        self.assertEqual(perf_ab.verdict(BASE, [105.0] * 10), "ok")

    def test_row_on_one_side_only_is_listed_not_gated(self):
        base = {"kept": BASE, "gone": BASE}
        change = {"kept": BASE, "new": [500.0] * 10}
        lines, failed = perf_ab.table(base, change)
        self.assertFalse(failed)
        listed = {line.split("|")[1].strip(): line for line in lines[2:]}
        self.assertEqual(list(listed), ["kept", "gone", "new"])
        self.assertIn("one side only", listed["gone"])
        self.assertIn("one side only", listed["new"])

    def test_table_fails_on_a_regressed_row(self):
        lines, failed = perf_ab.table({"slow": BASE}, {"slow": [120.0] * 10})
        self.assertTrue(failed)
        self.assertEqual([c.strip() for c in lines[2].split("|")[1:-1]],
                         ["slow", "100.0", "120.0", "+20.0", "0/10", "REGRESSION"])


if __name__ == "__main__":
    unittest.main()
