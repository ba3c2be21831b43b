#!/usr/bin/env python3
"""Self-tests of the perfbench benchmark, at smoke size (10k tuples).

Run from the root of a gamma-db checkout:

    python3 perfbench/selftest.py

Checks, for every workload:
  * every answer is right and the simulated-clock digest matches the pinned
    smoke digest in expected.json;
  * the digest and every exact work count are identical at host pool widths
    1 and 2;
and, on select_1m:
  * a perturbed answer and a perturbed digest are both caught (nonzero exit,
    "correct": false);
  * without the library sources next to it, run.py fails without printing a
    result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")
WORKLOADS = ("select_1m", "join_100k", "update_100k")
# Units of the metrics that must repeat exactly (counts, ratios of counts,
# the simulated clock).
EXACT_UNITS = ("count", "ratio")
EXACT_NAMES = ("sim.simulated_s",)

failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, *extra, cwd=REPO_ROOT, script=RUN):
    cmd = [sys.executable, script, "--workload", workload, "--seed", "1",
           "--seconds", "0.5", "--smoke", "--raw", *extra]
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = None
    return proc.returncode, result


def exact_metrics(result):
    timed = ("failed_frac", "tracing_overhead_frac")
    return {name: m["value"] for name, m in result["metrics"].items()
            if (m["unit"] in EXACT_UNITS and name not in timed)
            or name in EXACT_NAMES}


def main():
    for workload in WORKLOADS:
        by_width = {}
        for threads in (1, 2):
            code, result = run(workload, "--trace", "1", "--threads",
                               str(threads))
            check(code == 0 and result is not None and result["correct"]
                  and result["failed"] == 0,
                  f"{workload} width {threads}: all answers right, digest "
                  "matches the pinned one")
            by_width[threads] = result
        if None in by_width.values():
            continue
        check(by_width[1]["digest"] == by_width[2]["digest"],
              f"{workload}: digest identical at pool widths 1 and 2")
        one, two = exact_metrics(by_width[1]), exact_metrics(by_width[2])
        check(len(one) >= 15 and one == two,
              f"{workload}: {len(one)} exact counts identical at pool "
              "widths 1 and 2")

    for perturb in ("answer", "digest"):
        code, result = run("select_1m", "--trace", "0", "--perturb", perturb)
        check(code != 0 and result is not None and not result["correct"],
              f"perturbed {perturb} is caught")

    # Only BENCHMARK.json and perfbench/: the build must fail, no result.
    scratch = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    parent = os.path.join(REPO_ROOT, scratch)
    os.makedirs(parent, exist_ok=True)
    lonely = tempfile.mkdtemp(prefix="lonely_", dir=parent)
    try:
        shutil.copytree(BENCH_DIR, os.path.join(lonely, "perfbench"))
        shutil.copy(os.path.join(REPO_ROOT, "BENCHMARK.json"), lonely)
        code, result = run("select_1m", "--trace", "0", cwd=lonely,
                           script=os.path.join(lonely, "perfbench", "run.py"))
        check(code != 0 and result is None,
              "without the library sources run.py fails and prints no result")
    finally:
        shutil.rmtree(lonely)

    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
