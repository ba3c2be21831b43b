// perfbench: host wall-clock benchmark of the Gamma reproduction over the
// paper's three query tables. See ../README.md for workloads and metrics.
//
//   perfbench --workload <select_1m|join_100k|update_100k> --seed <n>
//             --seconds <s> --trace <0|1> [--smoke] [--threads <n>]
//             [--trace-out <path>] [--perturb <answer|digest>]
//
// Prints a human summary, then one JSON line with every metric, the
// simulated-clock digest and the pass/fail tallies (run.py wraps it).

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "layer_costs.h"
#include "sim/host_pool.h"
#include "spans.h"
#include "workloads.h"

namespace gammadb::perfbench {
namespace {

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--smoke] [--threads <n>] "
               "[--trace-out <path>] [--perturb <answer|digest>]\n",
               why);
  std::exit(2);
}

Options Parse(int argc, char** argv, std::string* trace_out) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      opts.smoke = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    if (arg == "--workload") {
      opts.workload = value;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      opts.trace = std::strcmp(value, "0") != 0;
    } else if (arg == "--threads") {
      opts.threads = std::atoi(value);
    } else if (arg == "--trace-out") {
      *trace_out = value;
    } else if (arg == "--perturb") {
      opts.perturb = value;
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  const auto& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), opts.workload) == names.end()) {
    Usage("unknown --workload");
  }
  if (opts.seconds <= 0 || opts.threads < 1) Usage("bad --seconds/--threads");
  if (!opts.perturb.empty() && opts.perturb != "answer" &&
      opts.perturb != "digest") {
    Usage("--perturb takes answer or digest");
  }
  return opts;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// Percentile with linear interpolation between closest ranks.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

/// Statement classes reported as per-layer medians, with their metric.
struct ClassMetric {
  const char* cls;
  const char* metric;
  double scale;  // from ms
  const char* unit;
};
constexpr ClassMetric kClassMetrics[] = {
    {"gamma.select_scan", "gamma.select_scan_ms", 1, "ms"},
    {"gamma.select_nc_index", "gamma.select_nc_index_ms", 1, "ms"},
    {"gamma.select_clustered", "gamma.select_clustered_ms", 1, "ms"},
    {"gamma.select_point", "gamma.select_point_us", 1e3, "us"},
    {"gamma.join_hash", "gamma.join_hash_ms", 1, "ms"},
    {"gamma.join_overflow", "gamma.join_overflow_ms", 1, "ms"},
    {"gamma.join_hybrid", "gamma.join_hybrid_ms", 1, "ms"},
    {"gamma.join_sortmerge", "gamma.join_sortmerge_ms", 1, "ms"},
    {"teradata.join", "teradata.join_ms", 1, "ms"},
    {"gamma.append", "gamma.append_ms", 1, "ms"},
    {"gamma.delete", "gamma.delete_ms", 1, "ms"},
    {"gamma.modify", "gamma.modify_ms", 1, "ms"},
    {"gamma.modify_key", "gamma.modify_key_ms", 1, "ms"},
    {"gamma.commit", "gamma.commit_ms", 1, "ms"},
    {"gamma.recover", "gamma.recover_ms", 1, "ms"},
};

/// Units of the layer host-cost metrics (by name suffix).
const char* LayerCostUnit(const std::string& name) {
  if (name.ends_with("_per_s")) return "1/s";
  if (name.ends_with("_us")) return "us";
  return "ns";
}

void AppendExactCounts(const ExactCounts& c, std::vector<Metric>* out) {
  auto count = [&](const char* name, uint64_t v) {
    out->push_back({name, static_cast<double>(v), "count"});
  };
  count("storage.pages_read", c.pages_read);
  count("storage.pages_written", c.pages_written);
  count("storage.buffer_hits", c.buffer_hits);
  out->push_back({"storage.buffer_hit_ratio",
                  Ratio(c.buffer_hits, c.buffer_hits + c.pages_read),
                  "ratio"});
  count("exec.packets_sent", c.packets_sent);
  count("exec.packets_short_circuited", c.packets_short_circuited);
  out->push_back({"exec.short_circuit_ratio",
                  Ratio(c.packets_short_circuited,
                        c.packets_sent + c.packets_short_circuited),
                  "ratio"});
  count("exec.bytes_sent", c.bytes_sent);
  count("exec.tuples_routed", c.tuples_routed);
  count("exec.overflow_rounds", c.overflow_rounds);
  count("wal.log_records", c.log_records);
  count("wal.forced_flushes", c.forced_flushes);
  count("txn.locks_acquired", c.locks_acquired);
  count("sim.scheduling_msgs", c.scheduling_msgs);
  out->push_back({"sim.simulated_s", c.simulated_s, "s"});
}

int Main(int argc, char** argv) {
  std::string trace_out;
  const Options opts = Parse(argc, argv, &trace_out);
  {
    // Fixed pool width on every workload; part of set-up, not timed.
    sim::HostPool::Instance().set_num_threads(opts.threads);
  }

  // Iteration 0 warms the process up (heap growth, lazy initialization) and
  // is checked but not timed. Later untraced iterations give the end-to-end
  // metrics. A traced run alternates traced and untraced iterations: the
  // traced ones give the per-layer numbers, the pair the tracing overhead.
  const int min_iterations = 3;
  SpanRecorder spans;
  IterationResult warmup;
  double warmup_peak_rss_mb = 0;
  std::vector<IterationResult> plain;
  std::vector<IterationResult> traced;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool consistent = true;
  const int64_t start = NowNs();
  for (int i = 0;; ++i) {
    const double elapsed = static_cast<double>(NowNs() - start) * 1e-9;
    if (i >= min_iterations && elapsed >= opts.seconds) break;
    const bool trace_this = opts.trace && i % 2 == 1;
    spans.set_enabled(trace_this);
    IterationResult it = RunIteration(opts, spans);
    attempted += it.attempted;
    failed += it.failed;
    if (i == 0) {
      // Peak memory of a fresh process through one whole iteration; later
      // iterations would add allocator history that varies run to run.
      warmup_peak_rss_mb = PeakRssMb();
      warmup = std::move(it);
      continue;
    }
    if (it.digest != warmup.digest || !(it.counts == warmup.counts)) {
      std::fprintf(stderr,
                   "perfbench: iteration %d's simulated clock differs from "
                   "iteration 0's\n",
                   i);
      consistent = false;
    }
    (trace_this ? traced : plain).push_back(std::move(it));
  }
  spans.set_enabled(false);

  auto collect = [](const std::vector<IterationResult>& its, auto field) {
    std::vector<double> v;
    for (const IterationResult& it : its) v.push_back(field(it));
    return v;
  };
  // Every iteration runs the same statement mix, so a percentile taken per
  // iteration sits at a fixed rank; the run reports the median across
  // iterations, which does not drift with how many iterations fit.
  size_t stmt_samples = 0;
  auto stmt_percentile = [&](double q) {
    return Median(collect(plain, [&](const IterationResult& it) {
      std::vector<double> ms;
      for (const StmtSample& s : it.stmts) {
        if (s.statement) ms.push_back(s.host_ms);
      }
      return Percentile(std::move(ms), q);
    }));
  };
  for (const IterationResult& it : plain) {
    for (const StmtSample& s : it.stmts) stmt_samples += s.statement ? 1 : 0;
  }
  const double run_s = Median(
      collect(plain, [](const IterationResult& it) { return it.run_s; }));

  std::vector<Metric> metrics;
  if (!opts.trace) {
    metrics.push_back({"setup_s", Median(collect(plain, [](const auto& it) {
                         return it.setup_s;
                       })),
                       "s"});
    metrics.push_back({"run_s", run_s, "s"});
    metrics.push_back({"stmt_ms_p50", stmt_percentile(0.50), "ms"});
    metrics.push_back({"stmt_ms_p90", stmt_percentile(0.90), "ms"});
    metrics.push_back({"stmt_ms_p99", stmt_percentile(0.99), "ms"});
    metrics.push_back({"peak_rss_mb", warmup_peak_rss_mb, "MiB"});
  } else {
    for (const char* part : {"wisconsin.generate_s", "gamma.load_s",
                             "gamma.build_index_s", "teradata.load_s"}) {
      metrics.push_back({part, Median(collect(traced, [&](const auto& it) {
                           const auto found = it.setup_parts.find(part);
                           return found == it.setup_parts.end()
                                      ? 0.0
                                      : found->second;
                         })),
                         "s"});
    }
    for (const ClassMetric& cm : kClassMetrics) {
      std::vector<double> v;
      for (const IterationResult& it : traced) {
        for (const StmtSample& s : it.stmts) {
          if (std::strcmp(s.cls, cm.cls) == 0) v.push_back(s.host_ms);
        }
      }
      metrics.push_back({cm.metric, Median(v) * cm.scale, cm.unit});
    }
    const double traced_run_s = Median(
        collect(traced, [](const IterationResult& it) { return it.run_s; }));
    metrics.push_back({"tracing_overhead_frac",
                       run_s > 0 ? traced_run_s / run_s - 1 : 0, "ratio"});
    const std::map<std::string, double> self = spans.SelfSecondsByLayer();
    for (const char* layer :
         {"bench", "wisconsin", "gamma", "teradata", "oracle"}) {
      const auto found = self.find(layer);
      metrics.push_back({std::string(layer) + ".self_s",
                         found == self.end() ? 0.0
                                             : found->second /
                                                   static_cast<double>(
                                                       traced.size()),
                         "s"});
    }
    AppendExactCounts(warmup.counts, &metrics);
    for (const auto& [name, value] : MeasureLayerCosts()) {
      metrics.push_back({name, value, LayerCostUnit(name)});
    }
    metrics.push_back({"failed_frac", Ratio(failed, attempted), "ratio"});
    if (!trace_out.empty() && !spans.WriteJson(trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());
    }
  }

  std::printf("perfbench %s seed=%" PRIu64 " threads=%d iterations=%zu "
              "statements=%zu attempted=%" PRIu64 " failed=%" PRIu64 "\n",
              opts.workload.c_str(), opts.seed, opts.threads,
              1 + plain.size() + traced.size(), stmt_samples, attempted,
              failed);
  for (const IterationResult& it : plain) {
    std::printf("  iteration setup_s=%.4f run_s=%.4f statements=%zu\n",
                it.setup_s, it.run_s, it.stmts.size());
  }
  std::printf("  peak_rss_mb after iteration 0: %.1f, at exit: %.1f\n",
              warmup_peak_rss_mb, PeakRssMb());
  std::printf("{\"workload\": \"%s\", \"seed\": %" PRIu64
              ", \"smoke\": %s, \"threads\": %d, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"consistent\": %s, "
              "\"digest\": \"%016" PRIx64 "\", \"iterations\": %zu, "
              "\"stmt_samples\": %zu, \"metrics\": {",
              opts.workload.c_str(), opts.seed, opts.smoke ? "true" : "false",
              opts.threads, attempted, failed,
              consistent ? "true" : "false", warmup.digest,
              1 + plain.size() + traced.size(), stmt_samples);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return failed == 0 && consistent ? 0 : 1;
}

}  // namespace
}  // namespace gammadb::perfbench

int main(int argc, char** argv) {
  return gammadb::perfbench::Main(argc, argv);
}
