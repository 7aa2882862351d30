#!/usr/bin/env python3
"""Unit tests for run_e2e.py: percentiles, bounds, the unresolved rule, the
metric derivations and the correctness checks. Needs only python3:

  python3 bench/e2e/test_run_e2e.py
"""

import statistics
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run_e2e  # noqa: E402


def raw_run(**overrides):
    raw = {
        "workload": "dense_join", "system": "triple pendulum", "seed": 17,
        "nproc": 4, "pool_threads": 2, "traced": False, "attempted": 8,
        "failed": 0, "fingerprint": "00", "checks": {"fingerprint_stable": True},
        "accuracy": run_e2e.load_reference()["accuracy"]["dense_join"],
        "peak_rss_mb": 120.5, "setup_s": [5.0, 4.0, 6.0],
        "pipeline_s": [0.4, 0.5, 0.6, 0.7, 0.8],
        "decompose_s": [0.3, 0.3, 0.4, 0.5, 0.5],
        "cpu_s": [0.5, 0.6, 0.6, 0.7, 0.9], "layers": [],
    }
    raw.update(overrides)
    return raw


class PercentileTest(unittest.TestCase):
    def test_matches_inclusive_quantiles(self):
        values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0, 3.5]
        q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
        self.assertAlmostEqual(run_e2e.percentile(values, 25), q1)
        self.assertAlmostEqual(run_e2e.percentile(values, 50), q2)
        self.assertAlmostEqual(run_e2e.percentile(values, 75), q3)

    def test_p75_of_forty_leaves_ten_beyond(self):
        values = list(range(1, 41))
        p75 = run_e2e.percentile(values, 75)
        self.assertEqual(sum(v > p75 for v in values), 10)

    def test_single_sample(self):
        self.assertEqual(run_e2e.percentile([2.5], 75), 2.5)
        with self.assertRaises(ValueError):
            run_e2e.percentile([], 50)


class SpreadTest(unittest.TestCase):
    def test_relative_iqr(self):
        q1, _, q3 = statistics.quantiles([1.0, 2.0, 3.0, 4.0], n=4)
        self.assertAlmostEqual(run_e2e.relative_iqr([1.0, 2.0, 3.0, 4.0]),
                               (q3 - q1) / 2.5)
        self.assertEqual(run_e2e.relative_iqr([7.0, 7.0, 7.0]), 0.0)

    def test_one_run_has_unknown_spread(self):
        self.assertEqual(run_e2e.relative_iqr([1.0]), float("inf"))


class VerdictTest(unittest.TestCase):
    BASE = [1.00, 1.01, 0.99, 1.00, 1.02]

    def test_within_bound_is_unchanged(self):
        change = [v * 1.05 for v in self.BASE]
        verdict, worse, _ = run_e2e.verdict(self.BASE, change, 0.10, "lower")
        self.assertEqual(verdict, "unchanged")
        self.assertAlmostEqual(worse, 0.05)

    def test_beyond_bound_regresses(self):
        change = [v * 1.2 for v in self.BASE]
        self.assertEqual(
            run_e2e.verdict(self.BASE, change, 0.10, "lower")[0], "regressed")

    def test_beyond_bound_in_the_good_direction_is_better(self):
        change = [v * 0.8 for v in self.BASE]
        verdict, worse, _ = run_e2e.verdict(self.BASE, change, 0.10, "lower")
        self.assertEqual(verdict, "better")
        self.assertLess(worse, 0)

    def test_higher_is_better_orientation(self):
        base = [0.6112350615211075] * 3
        self.assertEqual(
            run_e2e.verdict(base, [0.6112] * 3, 1e-10, "higher")[0],
            "regressed")
        self.assertEqual(
            run_e2e.verdict(base, list(base), 1e-10, "higher")[0],
            "unchanged")

    def test_wide_spread_is_unresolved_not_unchanged(self):
        noisy = [0.7, 1.0, 1.3, 0.8, 1.2]
        self.assertEqual(
            run_e2e.verdict(noisy, list(noisy), 0.10, "lower")[0],
            "unresolved")
        self.assertEqual(
            run_e2e.verdict([1.0], [1.0], 0.10, "lower")[0], "unresolved")

    def test_wide_spread_with_every_change_run_better(self):
        noisy = [1.0, 1.4, 1.8, 1.2, 1.6]
        faster = [0.5, 0.7, 0.9, 0.6, 0.8]
        self.assertEqual(
            run_e2e.verdict(noisy, faster, 0.10, "lower")[0], "better")


class MetricsTest(unittest.TestCase):
    def test_end_to_end_metrics(self):
        metrics = run_e2e.end_to_end_metrics(
            raw_run(attempted=10, failed=1))
        self.assertEqual(metrics["pipeline_p50_s"], (0.6, 5))
        self.assertEqual(metrics["setup_s"], (5.0, 3))
        self.assertEqual(metrics["ok_frac"], (0.9, 10))
        with self.assertRaises(run_e2e.BenchError):
            run_e2e.end_to_end_metrics(raw_run(pipeline_s=[]))

    def test_tail_is_reported_but_not_gated(self):
        result = run_e2e.summarize(raw_run(), run_e2e.load_spec(),
                                   run_e2e.load_reference())
        self.assertNotIn("pipeline_p75_s", result["metrics"])
        self.assertAlmostEqual(result["info"]["pipeline_p75_s"]["value"], 0.7)
        self.assertEqual(result["info"]["pipeline_p75_s"]["n"], 5)
        self.assertTrue(result["correct"])

    def test_every_benchmark_metric_is_produced(self):
        spec = run_e2e.load_spec()
        produced = run_e2e.end_to_end_metrics(raw_run())
        self.assertEqual({m["name"] for m in spec["end_to_end"]},
                         set(produced))
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertTrue(all(0 <= b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertTrue(all(v > 0 for v, _ in produced.values()))

    def test_per_layer_ledger(self):
        layers = [
            {"rep_s": 1.1, "core.je_stitch_s": 0.4,
             "tensor.core_from_sparse_s": 0.3, "tensor.mode_gram_s": 0.1,
             "core.m2td.sub_decompose_s": 0.1, "core.m2td.stitch_s": 0.4,
             "core.m2td.core_s": 0.25},
        ] * 3
        raw = raw_run(traced=True, layers=layers, pipeline_s=[1.0, 1.0])
        metrics = run_e2e.per_layer_metrics(
            raw, ["core.je_stitch_s", "io.shuffle_files"])
        self.assertEqual(metrics["core.je_stitch_s"], (0.4, 3))
        self.assertEqual(metrics["io.shuffle_files"], (0.0, 3))
        self.assertAlmostEqual(metrics["ledger.trace_overhead_frac"][0], 0.1)
        self.assertAlmostEqual(
            metrics["ledger.replay_vs_program_frac"][0], 0.05 / 0.75)

    def test_per_layer_needs_traced_reps(self):
        with self.assertRaises(run_e2e.BenchError):
            run_e2e.per_layer_metrics(raw_run(traced=True), [])


class CorrectnessTest(unittest.TestCase):
    def test_clean_run_is_correct(self):
        self.assertEqual(
            run_e2e.check_correct(raw_run(), run_e2e.load_reference()), [])

    def test_problems_are_reported(self):
        raw = raw_run(failed=2, accuracy=0.61,
                      checks={"fingerprint_stable": False,
                              "backend_identical": True})
        problems = run_e2e.check_correct(raw, run_e2e.load_reference())
        self.assertEqual(len(problems), 3)


if __name__ == "__main__":
    unittest.main()
