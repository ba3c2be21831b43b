#!/usr/bin/env bash
# Full pre-merge check: build and run the test suite three ways — a plain
# RelWithDebInfo build, an ASan+UBSan build (GAMMA_SANITIZE=address), and a
# TSan build (GAMMA_SANITIZE=thread) run with GAMMA_HOST_THREADS > 1 so the
# host-parallel node executor is exercised across real threads.
# Usage: scripts/check.sh [--plain-only|--sanitize-only|--tsan-only]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS=$(nproc 2>/dev/null || echo 4)
MODE=${1:-all}

run_suite() {
  local build_dir=$1
  shift
  cmake -B "$build_dir" -S . "$@"
  cmake --build "$build_dir" -j "$JOBS"
  ctest --test-dir "$build_dir" --output-on-failure -j "$JOBS"
}

if [[ "$MODE" != "--sanitize-only" && "$MODE" != "--tsan-only" ]]; then
  echo "== plain build =="
  run_suite build
  echo "== examples (each must exit 0; machine_duel drives the Teradata path) =="
  for example in machine_duel overflow_autopsy partitioning_explorer \
      quel_session quickstart; do
    ./build/examples/"$example" > /dev/null ||
      { echo "example $example failed"; exit 1; }
  done
  echo "== recovery smoke (crash replay + node reintegration, 10k) =="
  GAMMA_BENCH_SIZES=10000 ./build/bench/extension_recovery_server
  echo "== profiled queries (Table 1 selection + Fig 9 join, traced, 10k) =="
  GAMMA_BENCH_SIZES=10000 ./build/bench/profile_queries
  echo "== skew-join cliff (hash vs sampled bucket-map routing, 10k) =="
  GAMMA_BENCH_SIZES=10000 ./build/bench/extension_skew_join
  echo "== elastic growth (4 -> 8 nodes, migrated vs static answers, 10k) =="
  GAMMA_BENCH_SIZES=10000 ./build/bench/extension_elastic
  echo "== Table 1 selections (baseline workload, 10k) =="
  GAMMA_BENCH_SIZES=10000 ./build/bench/table1_selection
  echo "== Table 2 joins (baseline workload, 10k) =="
  GAMMA_BENCH_SIZES=10000 ./build/bench/table2_join
  echo "== Table 3 updates (baseline workload, 10k) =="
  GAMMA_BENCH_SIZES=10000 ./build/bench/table3_update
  echo "== aggregates (scalar + grouped, local/merge path, 100k) =="
  ./build/bench/extension_aggregates
  echo "== multiuser workload (closed-loop 2PL clients through WorkloadDriver, 100k) =="
  ./build/bench/extension_multiuser
  echo "== micro benchmarks smoke (first-read statistics fold, index build, node reintegration, recount, point select, join sites, page checksum, pool miss and dirty sweeps, machine rebuild, Wisconsin generation, load) =="
  ./build/bench/micro_operators \
    --benchmark_filter='BM_StatsFold|BM_BuildIndex|BM_ReintegrateNode|BM_RecomputeStatistics|BM_PointSelect|BM_JoinSite|BM_PageChecksum|BM_BufferPoolMissSweep|BM_BufferPoolDirtySweep|BM_MachineRebuild|BM_GenerateWisconsin|BM_LoadTuples' \
    --benchmark_min_time=0.01
  echo "== optimizer validation (chosen vs forced plans, estimates kept, 10k) =="
  GAMMA_BENCH_SIZES=10000 ./build/bench/extension_optimizer
  echo "== perf-regression gate (BENCH_*.json vs baselines/) =="
  python3 scripts/bench_compare.py --self-check
  echo "== simulated-clock digests (perfbench smoke: selects, joins, txn updates) =="
  # Exits nonzero on a wrong answer, a failed statement or a digest that
  # differs from perfbench/expected.json.
  python3 perfbench/run.py --workload all --seed 1 --seconds 2 --smoke
  echo "== simulated-clock digests on a 4-thread host pool (perfbench smoke) =="
  python3 perfbench/run.py --workload all --seed 1 --seconds 2 --smoke \
    --threads 4
  echo "== perfbench self-tests (width 1 vs 2, perturbed answer and digest caught) =="
  python3 perfbench/selftest.py
fi

if [[ "$MODE" == "all" || "$MODE" == "--sanitize-only" ]]; then
  echo "== sanitized build (ASan + UBSan, LeakSanitizer on) =="
  ASAN_OPTIONS=detect_leaks=1 run_suite build-sanitize -DGAMMA_SANITIZE=address
  echo "== recycled page slabs under ASan (poisoned while cached, no leak at exit) =="
  ASAN_OPTIONS=detect_leaks=1 ./build-sanitize/tests/buffer_pool_test \
    --gtest_filter='RecycledSlab*:PageOwnershipTest.*OnRecycledSlabs'
  echo "== recovery smoke under ASan + UBSan (crash, restart, reintegration) =="
  GAMMA_BENCH_SIZES=10000 ./build-sanitize/bench/extension_recovery_server
fi

if [[ "$MODE" == "all" || "$MODE" == "--tsan-only" ]]; then
  echo "== thread-sanitized build (TSan, 4 host threads) =="
  GAMMA_HOST_THREADS=4 run_suite build-tsan -DGAMMA_SANITIZE=thread
  echo "== recovery smoke under TSan =="
  GAMMA_HOST_THREADS=4 GAMMA_BENCH_SIZES=10000 \
    ./build-tsan/bench/extension_recovery_server
  echo "== profiled queries under TSan (4 host threads) =="
  GAMMA_HOST_THREADS=4 GAMMA_BENCH_SIZES=10000 \
    ./build-tsan/bench/profile_queries
  echo "== skew-join cliff under TSan (4 host threads) =="
  GAMMA_HOST_THREADS=4 GAMMA_BENCH_SIZES=10000 \
    ./build-tsan/bench/extension_skew_join
  echo "== elastic growth under TSan (4 host threads) =="
  GAMMA_HOST_THREADS=4 GAMMA_BENCH_SIZES=10000 \
    ./build-tsan/bench/extension_elastic
  echo "== Table 1 selections under TSan (4 host threads) =="
  GAMMA_HOST_THREADS=4 GAMMA_BENCH_SIZES=10000 \
    ./build-tsan/bench/table1_selection
  echo "== Table 3 updates under TSan (4 host threads) =="
  GAMMA_HOST_THREADS=4 GAMMA_BENCH_SIZES=10000 \
    ./build-tsan/bench/table3_update
  echo "== Table 2 joins under TSan (4 host threads: parallel Teradata load," \
    "secondary-index build, and the joins' per-AMP sort step) =="
  GAMMA_HOST_THREADS=4 GAMMA_BENCH_SIZES=10000 \
    ./build-tsan/bench/table2_join
fi

echo "All checks passed."
