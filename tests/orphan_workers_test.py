#!/usr/bin/env python3
"""Spawned m2td_worker processes do not outlive a SIGKILLed coordinator.

`m2td_cli dm2td --backend=process --workers=2` forks two workers that dial
the coordinator over loopback. M2TD_DIST_STRAGGLER holds one phase-1 map
task for 30 s, so the run is still going when the test SIGKILLs the CLI.
Every worker must be gone within 2 s, instead of redialing for its 10 s
budget. The worker pids are read from /proc (children of the CLI named
m2td_worker). A zombie counts as gone: it no longer runs.

Usage: orphan_workers_test.py <path to m2td_cli>
"""

import os
import signal
import subprocess
import sys
import tempfile
import time
import unittest

CLI = None


def proc_stat(pid):
    """(comm, state, ppid) of `pid`, or None once it has been reaped."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            stat = f.read()
    except OSError:
        return None
    comm = stat[stat.index("(") + 1:stat.rindex(")")]
    state, ppid = stat[stat.rindex(")") + 2:].split()[:2]
    return comm, state, int(ppid)


def workers_of(parent):
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        stat = proc_stat(int(entry))
        if stat and stat[0] == "m2td_worker" and stat[2] == parent:
            pids.append(int(entry))
    return pids


def running(pid):
    stat = proc_stat(pid)
    return stat is not None and stat[1] != "Z"


class OrphanWorkersTest(unittest.TestCase):
    def test_workers_die_with_a_killed_coordinator(self):
        with tempfile.TemporaryDirectory() as tmp:
            env = dict(os.environ)
            env.pop("M2TD_FAILPOINTS", None)
            env["M2TD_DIST_STRAGGLER"] = "p1map:0:30000"
            env["TMPDIR"] = tmp  # the CLI's job dir lands here
            cli = subprocess.Popen(
                [CLI, "dm2td", "--system=double_pendulum", "--resolution=6",
                 "--rank=3", "--backend=process", "--workers=2",
                 "--report_out="],
                cwd=tmp, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL)
            workers = []
            try:
                deadline = time.monotonic() + 30.0
                while len(workers) < 2 and time.monotonic() < deadline:
                    self.assertIsNone(cli.poll(), "the CLI exited early")
                    time.sleep(0.05)
                    workers = workers_of(cli.pid)
                self.assertEqual(len(workers), 2, "workers never spawned")

                cli.send_signal(signal.SIGKILL)
                cli.wait()
                deadline = time.monotonic() + 2.0
                while (any(running(pid) for pid in workers)
                       and time.monotonic() < deadline):
                    time.sleep(0.02)
                survivors = [pid for pid in workers if running(pid)]
                self.assertEqual(survivors, [],
                                 "workers outlived their coordinator")
            finally:
                if cli.poll() is None:
                    cli.kill()
                    cli.wait()
                for pid in workers:
                    if running(pid):
                        os.kill(pid, signal.SIGKILL)


if __name__ == "__main__":
    CLI = os.path.abspath(sys.argv.pop(1))
    unittest.main()
