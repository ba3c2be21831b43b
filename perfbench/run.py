#!/usr/bin/env python3
"""Builds and runs the perfbench host wall-clock benchmark.

Usage (from the root of a gamma-db checkout):

    python3 perfbench/run.py --workload <select_1m|join_100k|update_100k> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the library and the benchmark from source (CMake, Release) into
$CARGO_TARGET_DIR, default .bench_build, runs one workload, checks its
answers and its simulated-clock digest, prints every metric by name with
its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--workload all` runs every workload untraced and traced, and prefixes each
metric name with its workload.

Extra flags for the self-tests: --smoke (10k tuples), --threads <n> (host
pool width, default 2), --perturb <answer|digest>, --raw (print the
benchmark binary's own JSON line instead, with digest and counts).
Exits nonzero when any answer or the digest is wrong, or when the build or
the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
WORKLOADS = ("select_1m", "join_100k", "update_100k")


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(REPO_ROOT, target, "perfbench")


def build():
    """Configures (once) and builds the perfbench binary; returns its path."""
    for needed in ("CMakeLists.txt", os.path.join("src", "gamma", "machine.h")):
        if not os.path.exists(os.path.join(REPO_ROOT, needed)):
            log(f"perfbench: {needed} not found next to perfbench/; run from "
                "a gamma-db checkout")
            sys.exit(2)
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            log(f"perfbench: build step failed: {err}")
            sys.exit(2)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            sys.exit(2)
    return os.path.join(out, "perfbench")


def expected_digest(workload, seed, smoke):
    """The pinned digest for (workload, seed, size), or None if not pinned."""
    with open(os.path.join(BENCH_DIR, "expected.json")) as f:
        pinned = json.load(f)
    if seed != pinned["seed"]:
        return None
    return pinned["smoke" if smoke else "full"].get(workload)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--threads", type=int, default=2)
    parser.add_argument("--perturb", choices=("answer", "digest"))
    parser.add_argument("--raw", action="store_true")
    args = parser.parse_args()

    binary = build()
    if args.workload != "all":
        result = run_one(binary, args, args.workload, args.trace)
        if args.raw:
            print(json.dumps(result))
        else:
            print(json.dumps({k: result[k] for k in
                              ("correct", "attempted", "failed", "metrics")}))
        sys.exit(0 if result["correct"] else 1)

    # Every workload, untraced then traced; metric names get the workload
    # as a prefix.
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run_one(binary, args, workload, trace)
            total["correct"] = total["correct"] and result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                total["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(total))
    sys.exit(0 if total["correct"] else 1)


def run_one(binary, args, workload, trace):
    """Runs one workload; prints its metrics; returns the checked result."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--threads", str(args.threads)]
    if args.smoke:
        cmd.append("--smoke")
    if args.perturb:
        cmd += ["--perturb", args.perturb]
    if trace:
        trace_dir = os.path.join(os.path.dirname(build_dir()), "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, f"spans_{workload}_{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run timed out")
        sys.exit(2)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"perfbench: no result from the benchmark (exit {proc.returncode})")
        sys.exit(2)
    for line in lines[:-1]:
        print(line)

    correct = (result["failed"] == 0 and result["consistent"]
               and proc.returncode == 0)
    want = expected_digest(workload, args.seed, args.smoke)
    if want is not None and want != result["digest"]:
        log(f"perfbench: simulated-clock digest {result['digest']} differs "
            f"from the pinned {want}: the 1988 model's output changed")
        correct = False
        result["failed"] += 1
    elif want is None:
        print(f"digest {result['digest']} (not pinned for seed {args.seed}; "
              "checked for equality across iterations)")
    else:
        print(f"digest {result['digest']} matches the pinned value")

    print(f"statement samples: {result['stmt_samples']} over "
          f"{result['iterations']} iterations")
    for name, metric in result["metrics"].items():
        print(f"  {name:40s} {metric['value']:>16.6g} {metric['unit']}")
    result["correct"] = correct
    return result


if __name__ == "__main__":
    main()
