#!/usr/bin/env python3
"""Tests for tools/compare_runs.py (the run-diff gate).

Exercises both report flavors (schema-versioned run reports and legacy
BENCH json), the pass path, and each fatal gate: wall-time slowdown,
peak-RSS growth, allocation growth, a phase vanishing from the current
run, and a report with a newer schema_version than the tool supports.
Runs the tool in-process (imported as a module) so failures carry
Python tracebacks instead of just exit codes.
"""

import copy
import importlib.util
import json
import os
import sys
import tempfile
import unittest

_TOOLS_DIR = os.path.dirname(os.path.abspath(__file__))


def _load_compare_runs():
    spec = importlib.util.spec_from_file_location(
        "compare_runs", os.path.join(_TOOLS_DIR, "compare_runs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare_runs = _load_compare_runs()


def run_report(peak_rss=100 * 1048576, alloc=50 * 1048576,
               smoke_us=10.0, phase_seconds=1.0, phase_count=100):
    """A minimal but schema-complete run report for the fields the tool
    reads; smoke_us/phase_seconds feed the two wall-time sources."""
    return {
        "schema_version": 1,
        "kind": "m2td_run_report",
        "tool": "test",
        "flags": {
            "result.smoke_sparse_mode_product_us_per_call": f"{smoke_us:.17g}",
        },
        "phases": [
            {"name": "sparse_mode_product", "count": phase_count,
             "wall_seconds": phase_seconds, "cpu_seconds": phase_seconds,
             "alloc_bytes": 0, "alloc_count": 0},
        ],
        "resources": {
            "peak_rss_bytes": peak_rss,
            "alloc_bytes_total": alloc,
        },
    }


def bench_json(smoke_us=10.0, phase_seconds=1.0, phase_count=100):
    """The legacy BENCH_<name>.json shape."""
    return {
        "bench": "test",
        "results": {
            "smoke_sparse_mode_product_us_per_call": smoke_us,
        },
        "phases": {
            "sparse_mode_product": {"total_seconds": phase_seconds,
                                    "count": phase_count},
        },
    }


class CompareRunsTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self._tmp.cleanup)

    def _write(self, name, data):
        path = os.path.join(self._tmp.name, name)
        with open(path, "w") as f:
            json.dump(data, f)
        return path

    def _run(self, baseline, current, *extra):
        argv = [
            self._write("baseline.json", baseline),
            self._write("current.json", current),
            "--phases", "sparse_mode_product", *extra,
        ]
        old_argv = sys.argv
        sys.argv = ["compare_runs.py"] + argv
        try:
            return compare_runs.main()
        finally:
            sys.argv = old_argv

    def test_identical_run_reports_pass(self):
        self.assertEqual(self._run(run_report(), run_report()), 0)

    def test_slowdown_within_tolerance_passes(self):
        self.assertEqual(
            self._run(run_report(smoke_us=10.0), run_report(smoke_us=11.5)),
            0)

    def test_wall_time_regression_fails(self):
        self.assertEqual(
            self._run(run_report(smoke_us=10.0), run_report(smoke_us=12.5)),
            1)

    def test_peak_rss_inflated_25_percent_fails(self):
        baseline = run_report(peak_rss=100 * 1048576)
        inflated = run_report(peak_rss=125 * 1048576)
        self.assertEqual(self._run(baseline, inflated), 1)

    def test_alloc_growth_beyond_tolerance_fails(self):
        baseline = run_report(alloc=100 * 1048576)
        hungry = run_report(alloc=140 * 1048576)  # +40% > default +30%
        self.assertEqual(self._run(baseline, hungry), 1)

    def test_alloc_not_counted_is_skipped(self):
        baseline = run_report(alloc=0)
        current = run_report(alloc=10 * 1048576)
        self.assertEqual(self._run(baseline, current), 0)

    def test_missing_phase_in_current_fails(self):
        current = run_report()
        current["flags"] = {}
        current["phases"] = []
        self.assertEqual(self._run(run_report(), current), 1)

    def test_phase_absent_from_baseline_is_skipped(self):
        baseline = run_report()
        baseline["flags"] = {}
        baseline["phases"] = []
        self.assertEqual(self._run(baseline, run_report()), 0)

    def test_newer_schema_version_is_refused(self):
        newer = run_report()
        newer["schema_version"] = compare_runs.SUPPORTED_SCHEMA_VERSION + 1
        with self.assertRaises(SystemExit):
            self._run(run_report(), newer)

    def test_falls_back_to_phase_totals_when_smoke_absent(self):
        # No smoke keys: a 2x slower per-call aggregate must still trip.
        baseline = run_report(phase_seconds=1.0)
        slower = run_report(phase_seconds=2.0)
        for report in (baseline, slower):
            report["flags"] = {}
        self.assertEqual(self._run(baseline, slower), 1)

    def test_mixed_sources_are_never_compared(self):
        # Baseline has a smoke key, current does not: both must fall back
        # to phase totals (which agree), not compare smoke vs aggregate.
        baseline = run_report(smoke_us=10.0, phase_seconds=1.0)
        current = copy.deepcopy(baseline)
        current["flags"] = {}
        self.assertEqual(self._run(baseline, current), 0)

    def test_legacy_bench_json_pass_and_fail(self):
        self.assertEqual(self._run(bench_json(), bench_json()), 0)
        self.assertEqual(
            self._run(bench_json(smoke_us=10.0), bench_json(smoke_us=13.0)),
            1)

    def test_legacy_bench_json_skips_resource_gates(self):
        # Legacy files carry no resources section; only wall time gates.
        self.assertEqual(self._run(bench_json(), bench_json()), 0)

    def test_custom_tolerance_is_respected(self):
        self.assertEqual(
            self._run(run_report(smoke_us=10.0), run_report(smoke_us=14.0),
                      "--tolerance", "0.50"),
            0)

    @staticmethod
    def _with_hosvd_results(report, fast_us=50.0, slow_us=500.0, gap=0.005):
        report["flags"]["result.smoke_randomized_hosvd_us_per_call"] = (
            f"{fast_us:.17g}")
        report["flags"]["result.smoke_deterministic_hosvd_us_per_call"] = (
            f"{slow_us:.17g}")
        report["flags"]["result.randomized_hosvd_fit_gap"] = f"{gap:.17g}"
        return report

    def test_assert_faster_passes_when_fast_wins(self):
        baseline = self._with_hosvd_results(run_report())
        current = self._with_hosvd_results(run_report())
        self.assertEqual(
            self._run(baseline, current, "--assert_faster",
                      "randomized_hosvd:deterministic_hosvd"),
            0)

    def test_assert_faster_fails_when_sketch_is_slower(self):
        baseline = self._with_hosvd_results(run_report())
        current = self._with_hosvd_results(run_report(), fast_us=600.0)
        self.assertEqual(
            self._run(baseline, current, "--assert_faster",
                      "randomized_hosvd:deterministic_hosvd"),
            1)

    def test_assert_faster_fails_when_key_missing(self):
        # A vanished smoke key means the measurement was dropped — the
        # gate must fail rather than silently stop checking.
        baseline = self._with_hosvd_results(run_report())
        self.assertEqual(
            self._run(baseline, run_report(), "--assert_faster",
                      "randomized_hosvd:deterministic_hosvd"),
            1)

    def test_max_result_within_limit_passes(self):
        baseline = self._with_hosvd_results(run_report())
        current = self._with_hosvd_results(run_report(), gap=0.01)
        self.assertEqual(
            self._run(baseline, current, "--max_result",
                      "randomized_hosvd_fit_gap:0.02"),
            0)

    def test_max_result_exceeding_limit_fails(self):
        baseline = self._with_hosvd_results(run_report())
        current = self._with_hosvd_results(run_report(), gap=0.05)
        self.assertEqual(
            self._run(baseline, current, "--max_result",
                      "randomized_hosvd_fit_gap:0.02"),
            1)

    def test_max_result_missing_key_fails(self):
        self.assertEqual(
            self._run(run_report(), run_report(), "--max_result",
                      "randomized_hosvd_fit_gap:0.02"),
            1)

    def test_max_result_on_legacy_bench_json(self):
        good = bench_json()
        good["results"]["randomized_hosvd_fit_gap"] = 0.001
        self.assertEqual(
            self._run(bench_json(), good, "--max_result",
                      "randomized_hosvd_fit_gap:0.02"),
            0)
        bad = bench_json()
        bad["results"]["randomized_hosvd_fit_gap"] = 0.5
        self.assertEqual(
            self._run(bench_json(), bad, "--max_result",
                      "randomized_hosvd_fit_gap:0.02"),
            1)

    @staticmethod
    def _with_dispatch(report, isa):
        report["hardware"] = {"hardware_threads": 1,
                              "page_size_bytes": 4096,
                              "cpu_features": [], "simd_dispatch": isa}
        return report

    def test_matching_simd_dispatch_passes(self):
        baseline = self._with_dispatch(run_report(), "avx2")
        current = self._with_dispatch(run_report(), "avx2")
        self.assertEqual(self._run(baseline, current), 0)

    def test_simd_dispatch_mismatch_is_refused(self):
        # Diffing an avx2 run against a scalar run would report the ISA
        # delta as a perf regression; the tool must refuse outright.
        baseline = self._with_dispatch(run_report(), "avx2")
        current = self._with_dispatch(run_report(), "scalar")
        with self.assertRaises(SystemExit):
            self._run(baseline, current)

    def test_simd_dispatch_mismatch_override(self):
        baseline = self._with_dispatch(run_report(), "avx2")
        current = self._with_dispatch(run_report(), "scalar")
        self.assertEqual(
            self._run(baseline, current, "--allow_isa_mismatch"), 0)

    def test_missing_simd_dispatch_is_tolerated(self):
        # Reports from before the hardware.simd_dispatch field existed
        # (or legacy BENCH json) must keep diffing as usual.
        baseline = run_report()  # no hardware section at all
        current = self._with_dispatch(run_report(), "avx2")
        self.assertEqual(self._run(baseline, current), 0)
        self.assertEqual(self._run(current, baseline), 0)

    def test_malformed_gate_specs_are_refused(self):
        with self.assertRaises(SystemExit):
            self._run(run_report(), run_report(), "--assert_faster",
                      "no-colon-here")
        with self.assertRaises(SystemExit):
            self._run(run_report(), run_report(), "--max_result",
                      "randomized_hosvd_fit_gap:not-a-number")


if __name__ == "__main__":
    unittest.main()
