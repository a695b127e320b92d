#!/usr/bin/env python3
"""Benchmark of the wayplace simulator and its wp_serve daemon.

One run:
    python3 perfbench/run.py --workload fig6_sweep --seed 1 --seconds 30 --trace 0

builds the benchmark against the default RelWithDebInfo build (into
.bench_build/ at the root of the checkout), runs one workload and prints
as its last stdout line {"correct", "attempted", "failed", "metrics"}.
--trace 1 runs the layer ledger instead and prints the per-layer metrics.

Repeat mode:
    python3 perfbench/run.py --workload serve_warm --repeat 10 --seed 1

runs one workload N times with seeds seed, seed+1, ... and prints, per
end-to-end metric, the median, the quartiles, the interquartile range and
the min-max range as shares of the median.

Self-test:
    python3 perfbench/run.py --self-test

builds and runs the test of the percentile rule.

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKDIR = os.path.join(".bench_build", "run")
WORKLOADS = ("fig6_sweep", "serve_cold", "serve_warm")


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build(targets):
    """Configures (once) and builds @targets; exits 3 on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no wayplace sources next to perfbench/ (expected src/); nothing to build")
        sys.exit(2)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets)
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            sys.exit(3)


def commit_id():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "bench", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "tree-" + h.hexdigest()[:16]


def run_once(workload, seed, seconds, trace, capture):
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace),
           "--serve-bin", os.path.join(BUILD, "wayplace", "bench", "wp_serve"),
           "--workdir", WORKDIR, "--commit", commit_id()]
    return subprocess.run(cmd, cwd=ROOT, text=True,
                          stdout=subprocess.PIPE if capture else None)


def spread_table(results):
    """Median, quartiles and spreads of every metric over @results."""
    rows = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        rows[name] = {"unit": unit, "median": med, "q1": q1, "q3": q3,
                      "min": min(values), "max": max(values),
                      "iqr_share": (q3 - q1) / med if med else float("nan"),
                      "range_share": (max(values) - min(values)) / med if med else float("nan")}
    return rows


def repeat(args):
    results = []
    for i in range(args.repeat):
        seed = args.seed + i
        r = run_once(args.workload, seed, args.seconds, args.trace, True)
        lines = r.stdout.strip().splitlines()
        if r.returncode != 0 or not lines:
            log("run with seed %d failed (exit %d)" % (seed, r.returncode))
            return 1
        for line in lines[:-1]:
            print(line)
        result = json.loads(lines[-1])
        print(json.dumps(result), flush=True)
        results.append(result)
    if len(results) < 2:
        log("repeat mode needs --repeat 2 or more for quartiles")
        return 1
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print("\n%s: %d runs, seeds %d..%d, correct %s, failed shares %s"
          % (args.workload, len(results), args.seed, args.seed + len(results) - 1,
             all(r["correct"] for r in results), shares))
    print("%-16s %-6s %12s %12s %12s %8s %8s" %
          ("metric", "unit", "median", "q1", "q3", "iqr/med", "rng/med"))
    table = spread_table(results)
    for name, row in table.items():
        print("%-16s %-6s %12.6g %12.6g %12.6g %8.4f %8.4f" %
              (name, row["unit"], row["median"], row["q1"], row["q3"],
               row["iqr_share"], row["range_share"]))
    print("repeat-summary " + json.dumps({"workload": args.workload,
                                          "runs": len(results),
                                          "metrics": table}))
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, default=0,
                   help="run the workload N times and print the spread")
    p.add_argument("--self-test", action="store_true",
                   help="build and run the percentile rule's test")
    args = p.parse_args()

    os.chdir(ROOT)
    if args.self_test:
        build(["percentile_test"])
        return subprocess.run([os.path.join(BUILD, "percentile_test")]).returncode
    if args.workload is None:
        p.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    build(["perfbench", "wp_serve"])
    if args.repeat:
        return repeat(args)
    return run_once(args.workload, args.seed, args.seconds, args.trace,
                    False).returncode


if __name__ == "__main__":
    sys.exit(main())
