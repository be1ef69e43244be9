"""Unit tests for the steadiness tool's statistics (python3 -m unittest)."""
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import steady  # noqa: E402


class QuartileTest(unittest.TestCase):
    def test_quartiles_match_exclusive_method(self):
        # statistics.quantiles' default "exclusive" method: position
        # (n + 1) * k / 4, interpolated.
        self.assertEqual(steady.quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]),
                         (2.75, 5.5, 8.25))
        self.assertEqual(steady.quartiles([4, 1, 3, 2, 5]), (1.5, 3.0, 4.5))

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(steady.spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]),
                               (8.25 - 2.75) / 5.5)
        self.assertEqual(steady.spread([7.0] * 10), 0.0)

    def test_worsening_respects_direction(self):
        self.assertAlmostEqual(steady.worsening(10.0, 11.0, "lower"), 0.1)
        self.assertAlmostEqual(steady.worsening(10.0, 9.0, "lower"), -0.1)
        self.assertAlmostEqual(steady.worsening(10.0, 9.0, "higher"), 0.1)
        self.assertEqual(steady.worsening(0.0, 0.0, "lower"), 0.0)

    def test_agreement_uses_each_bound(self):
        spec = {"end_to_end": [
            {"name": "a_ms", "better": "lower", "bound": 0.1},
            {"name": "b_per_s", "better": "higher", "bound": 0.05}]}
        first = {"a_ms": [10, 10, 10], "b_per_s": [100, 100, 100]}
        second = {"a_ms": [10.5, 10.9, 10.9], "b_per_s": [90, 94, 94]}
        rows = {r[0]: r for r in steady.agreement(first, second, spec)}
        self.assertTrue(rows["a_ms"][5])       # 9% worse, bound 10%
        self.assertFalse(rows["b_per_s"][5])   # 6% worse, bound 5%


if __name__ == "__main__":
    unittest.main()
