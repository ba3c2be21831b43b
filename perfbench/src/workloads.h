#ifndef GAMMA_PERFBENCH_WORKLOADS_H_
#define GAMMA_PERFBENCH_WORKLOADS_H_

// The three workloads. Each iteration builds fresh machines from the seed
// (the timed set-up), then runs the workload's statement table once as a
// closed loop: one client, the next statement issued only after the previous
// one returns. Every answer is checked against an oracle computed from the
// generated tuples, outside the timed region.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.h"

namespace gammadb::perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// 10k-tuple relations on every workload (self-tests).
  bool smoke = false;
  /// Fixed host pool width (sim::HostPool).
  int threads = 2;
  /// Self-test hook: "answer" corrupts one oracle expectation, "digest" one
  /// simulated-clock record. Both must be caught.
  std::string perturb;
};

/// Exact work counts summed over one iteration's statements. They come from
/// QueryResult::metrics and must repeat exactly for a given seed, at any
/// host pool width.
struct ExactCounts {
  uint64_t pages_read = 0;
  uint64_t pages_written = 0;
  uint64_t buffer_hits = 0;
  uint64_t packets_sent = 0;
  uint64_t packets_short_circuited = 0;
  uint64_t bytes_sent = 0;
  uint64_t tuples_routed = 0;
  uint64_t overflow_rounds = 0;
  uint64_t log_records = 0;
  uint64_t forced_flushes = 0;
  uint64_t locks_acquired = 0;
  uint64_t scheduling_msgs = 0;
  double simulated_s = 0;

  bool operator==(const ExactCounts&) const = default;
};

struct StmtSample {
  /// Statement class, e.g. "gamma.select_scan".
  const char* cls;
  double host_ms;
  /// False for timed operations that are not client statements (Recover);
  /// they count in run_s and their class median, not in the percentiles.
  bool statement;
};

struct IterationResult {
  /// Library-facing set-up: generation, machine construction, loads, index
  /// builds.
  double setup_s = 0;
  /// Timed statement sequence (sum of the timed statement regions).
  double run_s = 0;
  /// Set-up broken down by step ("wisconsin.generate_s", ...).
  std::map<std::string, double> setup_parts;
  std::vector<StmtSample> stmts;
  /// FNV-1a over every statement's simulated seconds, page I/Os and packets.
  uint64_t digest = 0;
  ExactCounts counts;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// Workload names, in the order they are documented.
const std::vector<std::string>& WorkloadNames();

/// Runs one iteration of `opts.workload`. Spans go to `spans` when it is
/// enabled.
IterationResult RunIteration(const Options& opts, SpanRecorder& spans);

}  // namespace gammadb::perfbench

#endif  // GAMMA_PERFBENCH_WORKLOADS_H_
