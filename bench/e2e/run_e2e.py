#!/usr/bin/env python3
"""End-to-end M2TD pipeline benchmark runner.

Builds bench_e2e (the CMake project in this directory) into
.bench_build/e2e at the repository root, runs each workload in its own
process, checks its outputs, and turns the raw per-rep samples into the
metrics named in BENCHMARK.json.

  python3 bench/e2e/run_e2e.py                      # every workload
  python3 bench/e2e/run_e2e.py --workloads dense_join,dist_thread --repeat 5
  python3 bench/e2e/run_e2e.py --trace 1            # per-layer metrics
  python3 bench/e2e/run_e2e.py --workload dense_join --seed 3 --seconds 15 \
      --trace 0                                     # one run, JSON last line
  python3 bench/e2e/run_e2e.py --compare A.json B.json

Several workloads write e2e_result.json (see --out) and exit 1 on any
correctness failure. One --workload prints, as the last line of stdout,
{"correct", "attempted", "failed", "metrics"}. --compare applies the
BENCHMARK.json bounds to two e2e_result.json files, one row per workload
and metric, and exits 1 on a regression or a failed run.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD_DIR = ROOT / ".bench_build" / "e2e"
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_reference():
    return json.loads((HERE / "reference.json").read_text())


# ----------------------------------------------------------- statistics

def percentile(values, q):
    """Linear interpolation between closest ranks (q in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def relative_iqr(values):
    """Distance between the first and third quartile, as a share of the
    median; infinite when fewer than two values leave the spread unknown."""
    if len(values) < 2:
        return float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    if median == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(median)


def verdict(base, change, bound, better):
    """Compares two sets of run values of one metric.

    Returns (verdict, worse, spread): `worse` is how much worse the change's
    median is than the base's, as a share of the base's median (negative when
    it is better); `spread` is the larger relative IQR of the two sets. A
    spread wider than the bound leaves the metric unresolved unless every run
    of the change reads better than every run of the base.
    """
    sign = 1.0 if better == "lower" else -1.0
    base_median = statistics.median(base)
    change_median = statistics.median(change)
    delta = sign * (change_median - base_median)
    if base_median != 0:
        worse = delta / abs(base_median)
    else:
        worse = 0.0 if delta == 0 else float("inf") * delta
    spread = max(relative_iqr(base), relative_iqr(change))
    if better == "lower":
        all_better = max(change) < min(base)
    else:
        all_better = min(change) > max(base)
    if spread > bound:
        return ("better" if all_better else "unresolved"), worse, spread
    if worse > bound:
        return "regressed", worse, spread
    if -worse > bound:
        return "better", worse, spread
    return "unchanged", worse, spread


# ------------------------------------------------------------- metrics

def end_to_end_metrics(raw):
    """(value, sample count) of each end-to-end metric."""
    pipeline = raw["pipeline_s"]
    attempted = raw["attempted"]
    if not pipeline:
        raise BenchError(f"{raw['workload']}: no timed rep succeeded")
    return {
        "pipeline_p50_s": (statistics.median(pipeline), len(pipeline)),
        "decompose_p50_s": (statistics.median(raw["decompose_s"]),
                            len(raw["decompose_s"])),
        "pipeline_cpu_s": (statistics.median(raw["cpu_s"]),
                           len(raw["cpu_s"])),
        "accuracy": (raw["accuracy"], attempted - raw["failed"]),
        "peak_rss_mb": (raw["peak_rss_mb"], 1),
        "setup_s": (statistics.median(raw["setup_s"]), len(raw["setup_s"])),
        "ok_frac": ((attempted - raw["failed"]) / attempted, attempted),
    }


# The replay's decompose layers and the program's own phase timers.
REPLAY_LAYERS = ("tensor.mode_gram_s", "linalg.gram_factor_s",
                 "core.combine_s", "core.je_stitch_s",
                 "tensor.core_from_sparse_s")
PROGRAM_PHASES = ("core.m2td.sub_decompose_s", "core.m2td.stitch_s",
                  "core.m2td.core_s")


def per_layer_metrics(raw, names):
    """Median over traced reps of each per-layer value (0 where a layer does
    not run on this workload), plus the two cross-rep ledger ratios."""
    layers = raw["layers"]
    n = len(layers)
    if n == 0:
        raise BenchError("traced run recorded no reps")

    def median_of(key):
        return statistics.median(rep.get(key, 0.0) for rep in layers)

    out = {name: (median_of(name), n) for name in names}
    out["ledger.trace_overhead_frac"] = (
        median_of("rep_s") / statistics.median(raw["pipeline_s"]) - 1.0, n)
    program = statistics.median(
        sum(rep.get(k, 0.0) for k in PROGRAM_PHASES) for rep in layers)
    replay = statistics.median(
        sum(rep.get(k, 0.0) for k in REPLAY_LAYERS) for rep in layers)
    out["ledger.replay_vs_program_frac"] = (
        abs(replay - program) / program if program > 0 else 0.0, n)
    return out


def check_correct(raw, reference):
    """Problems found in one run; empty when its outputs are correct."""
    problems = []
    if raw["failed"]:
        problems.append(f"{raw['failed']} of {raw['attempted']} reps failed")
    problems += [f"check {name} failed"
                 for name, ok in raw["checks"].items() if not ok]
    expected = reference["accuracy"][raw["workload"]]
    if abs(raw["accuracy"] - expected) > reference["rtol"] * abs(expected):
        problems.append(f"accuracy {raw['accuracy']!r} != reference "
                        f"{expected!r} (seed {reference['seed']})")
    return problems


def summarize(raw, spec, reference):
    traced = raw["traced"]
    defs = spec["per_layer"] if traced else spec["end_to_end"]
    if traced:
        values = per_layer_metrics(raw, [d["name"] for d in defs])
    else:
        values = end_to_end_metrics(raw)
    problems = check_correct(raw, reference)
    # The tail is reported but not gated: its run-to-run spread on a shared
    # VM exceeds any bound BENCHMARK.json may set (see README.md).
    info = {} if traced else {
        "pipeline_p75_s": {"value": percentile(raw["pipeline_s"], 75),
                           "unit": "s", "n": len(raw["pipeline_s"])}}
    return {
        "workload": raw["workload"],
        "system": raw["system"],
        "seed": raw["seed"],
        "nproc": raw["nproc"],
        "pool_threads": raw["pool_threads"],
        "traced": traced,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "fingerprint": raw["fingerprint"],
        "correct": not problems,
        "problems": problems,
        "metrics": {d["name"]: {"value": values[d["name"]][0],
                                "unit": d["unit"],
                                "n": values[d["name"]][1]} for d in defs},
        "info": info,
    }


# ------------------------------------------------------------- running

def build():
    """Configures (once) and builds bench_e2e; returns its path."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    steps = []
    if not any((BUILD_DIR / f).exists() for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      *generator])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "bench_e2e",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        proc = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            raise BenchError("building bench_e2e failed: " + " ".join(step))
    return BUILD_DIR / "bench_e2e"


def run_workload(bench_bin, workload, seed, seconds, traced):
    """Runs one workload in its own bench_e2e process; returns its raw JSON.

    Worker processes and shuffle blobs go to a private TMPDIR under the
    build directory, removed afterwards.
    """
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    raw_path = BUILD_DIR / f"raw_{workload}.json"
    raw_path.unlink(missing_ok=True)
    tmp = BUILD_DIR / f"tmp_{workload}_{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = [str(bench_bin), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--out={raw_path}"]
    if traced:
        cmd.append(f"--trace={BUILD_DIR / f'trace_{workload}.json'}")
    try:
        proc = subprocess.run(cmd, env={**os.environ, "TMPDIR": str(tmp)},
                              stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: no result within {RUN_TIMEOUT_S} s") \
            from exc
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    # Exit code 1 still carries a result: a failed rep or check.
    if proc.returncode not in (0, 1) or not raw_path.exists():
        raise BenchError(f"{workload}: bench_e2e exited {proc.returncode}")
    return json.loads(raw_path.read_text())


def print_result(result):
    print(f"== {result['workload']} ({result['system']}), seed "
          f"{result['seed']}, nproc {result['nproc']}, pool "
          f"{result['pool_threads']} threads, "
          f"{'traced' if result['traced'] else 'untraced'}, "
          f"{result['attempted']} reps attempted, {result['failed']} failed")
    for name, metric in result["metrics"].items():
        print(f"  {name:36s} {metric['value']:>16.6g} {metric['unit']:6s} "
              f"n={metric['n']}")
    for name, metric in result["info"].items():
        print(f"  {name:36s} {metric['value']:>16.6g} {metric['unit']:6s} "
              f"n={metric['n']} (not gated)")
    for problem in result["problems"]:
        print(f"  INCORRECT: {problem}")


def compare(path_a, path_b, spec):
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    if a["traced"] or b["traced"]:
        print("--compare takes untraced results", file=sys.stderr)
        return 2
    print(f"{'workload':14s} {'metric':16s} {'A median':>12s} "
          f"{'B median':>12s} {'worse':>9s} {'spread':>8s} {'bound':>8s}  "
          f"verdict")
    failed = False
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        runs_a = a["workloads"][workload]["runs"]
        runs_b = b["workloads"][workload]["runs"]
        for side, runs in (("A", runs_a), ("B", runs_b)):
            for run in runs:
                if not run["correct"]:
                    print(f"{workload}: a run in {side} is incorrect: "
                          f"{'; '.join(run['problems'])}")
                    failed = True
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values_a = [run["metrics"][name]["value"] for run in runs_a]
            values_b = [run["metrics"][name]["value"] for run in runs_b]
            result, worse, spread = verdict(values_a, values_b,
                                            metric["bound"], metric["better"])
            failed = failed or result == "regressed"
            print(f"{workload:14s} {name:16s} "
                  f"{statistics.median(values_a):12.6g} "
                  f"{statistics.median(values_b):12.6g} {worse:9.2%} "
                  f"{spread:8.2%} {metric['bound']:8.2%}  {result}")
    return 1 if failed else 0


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload",
                        help="run this one workload once; the last line of "
                             "stdout is the result JSON")
    parser.add_argument("--workloads",
                        help="comma-separated workloads (default: all)")
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--seconds", type=float,
                        help="timed reps per run last this long (default: "
                             "run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting the per-layer metrics")
    parser.add_argument("--repeat", type=int, default=3,
                        help="runs per workload, each in its own process")
    parser.add_argument("--out", default="e2e_result.json")
    parser.add_argument("--bench-bin",
                        help="use this bench_e2e binary instead of building")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    spec = load_spec()
    if args.compare:
        return compare(*args.compare, spec)
    known = [w["name"] for w in spec["workloads"]]
    if args.workload:
        workloads, repeat = [args.workload], 1
    else:
        workloads = args.workloads.split(",") if args.workloads else known
        repeat = args.repeat
    unknown = sorted(set(workloads) - set(known))
    if unknown or repeat < 1:
        parser.error(f"unknown workloads {unknown} or --repeat < 1")
    seconds = args.seconds if args.seconds else spec["run_seconds"]

    reference = load_reference()
    try:
        bench_bin = Path(args.bench_bin) if args.bench_bin else build()
        results = {w: [summarize(run_workload(bench_bin, w, args.seed,
                                              seconds, args.trace),
                                 spec, reference)
                       for _ in range(repeat)]
                   for w in workloads}
    except BenchError as exc:
        print(f"run_e2e: {exc}", file=sys.stderr)
        return 2

    for runs in results.values():
        for result in runs:
            print_result(result)
    correct = all(r["correct"] for runs in results.values() for r in runs)
    if args.workload:
        result = results[args.workload][0]
        print(json.dumps({
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                        for name, m in result["metrics"].items()},
        }))
    else:
        Path(args.out).write_text(json.dumps({
            "seed": args.seed,
            "seconds": seconds,
            "traced": bool(args.trace),
            "workloads": {w: {"runs": runs} for w, runs in results.items()},
        }, indent=1) + "\n")
        print(f"wrote {args.out}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
