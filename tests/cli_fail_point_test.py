#!/usr/bin/env python3
"""`m2td_cli --fail_point` reaches the process backend's workers.

The CLI arms its --fail_point specs in its own process and exports them
through M2TD_FAILPOINTS, which every spawned m2td_worker arms. A worker-side
`dist.map_task` failure then shows up in the coordinator as a task retry,
and the retried run prints the clean run's accuracy. Each process counts
its own `times`.

Usage: cli_fail_point_test.py <path to m2td_cli>
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

CLI = None


def run_dm2td(tmp, *extra):
    metrics = os.path.join(tmp, "metrics.json")
    env = dict(os.environ)
    env.pop("M2TD_FAILPOINTS", None)
    proc = subprocess.run(
        [CLI, "dm2td", "--system=double_pendulum", "--resolution=6",
         "--rank=3", "--backend=process", "--workers=1", "--report_out=",
         f"--metrics_out={metrics}", *extra],
        cwd=tmp, env=env, capture_output=True, text=True, timeout=120)
    counters = {}
    if os.path.exists(metrics):
        with open(metrics) as f:
            counters = json.load(f)["counters"]
        os.remove(metrics)
    accuracy = [line for line in proc.stdout.splitlines()
                if line.startswith("accuracy:")]
    return proc, counters, accuracy


class CliFailPointTest(unittest.TestCase):
    def test_worker_side_failure_is_retried(self):
        with tempfile.TemporaryDirectory() as tmp:
            clean, clean_counters, clean_accuracy = run_dm2td(tmp)
            self.assertEqual(clean.returncode, 0, clean.stderr)
            self.assertEqual(clean_counters.get("dist.task_retries", 0), 0)

            retried, counters, accuracy = run_dm2td(
                tmp, "--fail_point=dist.map_task:times=1", "--max_retries=2")
            self.assertEqual(retried.returncode, 0, retried.stderr)
            self.assertGreaterEqual(counters.get("dist.task_retries", 0), 1)
            self.assertEqual(accuracy, clean_accuracy)

    def test_worker_side_failure_without_retries_fails_the_run(self):
        with tempfile.TemporaryDirectory() as tmp:
            failed, _, _ = run_dm2td(tmp, "--fail_point=dist.map_task:times=1")
            self.assertNotEqual(failed.returncode, 0)


if __name__ == "__main__":
    CLI = os.path.abspath(sys.argv.pop(1))
    unittest.main()
