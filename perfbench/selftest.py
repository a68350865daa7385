"""Tests of the benchmark's own arithmetic: self time, layer shares, error rate.

    python3 perfbench/selftest.py
"""

import unittest
from types import SimpleNamespace

import harness
import layers


def span(sid, parent, name, start, end, attrs=None):
    return {"id": sid, "parent": parent, "name": name, "start": start, "end": end, "attrs": attrs}


class SelfTime(unittest.TestCase):
    def test_sequential_children_are_subtracted(self):
        spans = [
            span("a", None, "cli.main", 0.0, 10.0),
            span("b", "a", "mlp.x", 1.0, 3.0),
            span("c", "a", "mlp.x", 4.0, 8.0),
            span("d", "c", "mlp.y", 5.0, 6.0),
        ]
        self.assertEqual(harness.self_times(spans), {"a": 4.0, "b": 2.0, "c": 3.0, "d": 1.0})

    def test_parallel_children_count_once(self):
        # two pool workers overlapping inside one parent span
        spans = [
            span("p", None, "cli.cmd_sample", 0.0, 10.0),
            span("w1", "p", "cli._sample_worker", 1.0, 7.0),
            span("w2", "p", "cli._sample_worker", 2.0, 9.0),
        ]
        self.assertAlmostEqual(harness.self_times(spans)["p"], 2.0)

    def test_children_clipped_to_parent(self):
        self.assertEqual(harness.union_length([(-1.0, 2.0), (8.0, 12.0)], 0.0, 10.0), 4.0)
        self.assertEqual(harness.union_length([]), 0.0)

    def test_layer_shares_add_up_to_one(self):
        step = SimpleNamespace(stage="diagnose", jobs=1)
        result = harness.CommandResult(0.0, 12.0, 0, 1, "")
        spans = [
            span("a", None, "cli.main", 1.0, 11.0),
            span("b", "a", "diagnostics.minse", 2.0, 6.0),
            span("c", "a", "chainio.load_chain", 6.0, 7.0, {"bytes": 2_000_000}),
        ]
        m = layers.per_layer([(step, result, spans)])
        shares = [m[f"{layer}.self_share"] for layer in layers.LAYERS]
        self.assertAlmostEqual(sum(shares), 1.0)
        self.assertAlmostEqual(m["diagnostics.self_share"], 0.4)
        self.assertEqual(m["diagnostics.minse.calls"], 1)
        self.assertAlmostEqual(m["diagnostics.minse.ms_per_call"], 4000.0)
        self.assertAlmostEqual(m["chainio.load_mb_per_s"], 2.0)
        # 12 s of wall, 5 s of it inside library spans
        self.assertAlmostEqual(m["cli.unaccounted_s"], 7.0)


class ErrorRate(unittest.TestCase):
    def test_ratio(self):
        self.assertEqual(harness.error_rate(0, 12), 0.0)
        self.assertEqual(harness.error_rate(3, 12), 0.25)

    def test_rejects_impossible_counts(self):
        for failed, attempted in ((0, 0), (5, 4), (-1, 4)):
            with self.assertRaises(ValueError):
                harness.error_rate(failed, attempted)


if __name__ == "__main__":
    unittest.main()
