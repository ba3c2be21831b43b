// Tests for the observability subsystem: the metrics registry, profile /
// span derivation from synthetic metrics, Chrome trace export, the flight
// recorder (event journal), the QUEL `explain profile` / `explain journal`
// surfaces, and the contract properties the subsystem promises —
// byte-identical traces, utilization and journals at any host-pool width
// (including under a mid-query failover), and zero effect on simulated
// seconds from any recording.

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "gamma/machine.h"
#include "obs/bounded_ring.h"
#include "obs/chrome_trace.h"
#include "obs/journal.h"
#include "obs/metrics_registry.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "quel/quel.h"
#include "sim/host_pool.h"
#include "wisconsin/wisconsin.h"

namespace gammadb {
namespace {

namespace wis = gammadb::wisconsin;
using exec::Predicate;
using exec::QueryResult;

constexpr int kManyThreads = 4;

template <typename Fn>
auto WithThreads(int threads, Fn&& body) {
  auto& pool = sim::HostPool::Instance();
  const int prev = pool.num_threads();
  pool.set_num_threads(threads);
  auto result = body();
  pool.set_num_threads(prev);
  return result;
}

// --- MetricsRegistry ---

TEST(MetricsRegistryTest, CountersAccumulateAndReset) {
  auto& registry = obs::MetricsRegistry::Instance();
  obs::Counter& c = registry.counter("test.counter_a");
  c.Reset();
  c.Inc();
  c.Inc(41);
  EXPECT_EQ(c.value(), 42u);
  EXPECT_EQ(registry.CounterValue("test.counter_a"), 42u);
  EXPECT_EQ(registry.CounterValue("test.never_touched"), 0u);
  // Same name -> same interned object.
  EXPECT_EQ(&registry.counter("test.counter_a"), &c);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(MetricsRegistryTest, HistogramBucketsAndQuantiles) {
  auto& registry = obs::MetricsRegistry::Instance();
  obs::Histogram& h = registry.histogram("test.hist", {1.0, 10.0, 100.0});
  h.Reset();
  EXPECT_EQ(h.Quantile(0.5), 0);  // empty
  h.Observe(0.5);   // bucket 0 (<= 1)
  h.Observe(5.0);   // bucket 1 (<= 10)
  h.Observe(50.0);  // bucket 2 (<= 100)
  h.Observe(500.0); // overflow
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 555.5);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 1u);
  EXPECT_EQ(h.bucket(3), 1u);  // overflow bucket
  EXPECT_EQ(h.Quantile(0.25), 1.0);
  EXPECT_EQ(h.Quantile(0.5), 10.0);
  // Overflow observations report the largest bound.
  EXPECT_EQ(h.Quantile(1.0), 100.0);
}

TEST(MetricsRegistryTest, SnapshotIsSortedAndRenders) {
  auto& registry = obs::MetricsRegistry::Instance();
  registry.counter("test.zz").Inc(7);
  registry.counter("test.aa").Inc(3);
  const auto samples = registry.Snapshot();
  ASSERT_GE(samples.size(), 2u);
  for (size_t i = 1; i < samples.size(); ++i) {
    EXPECT_LT(samples[i - 1].name, samples[i].name);
  }
  const std::string text = registry.RenderText();
  EXPECT_NE(text.find("test.aa"), std::string::npos);
  EXPECT_NE(text.find("test.zz"), std::string::npos);
}

// --- Profile derivation from synthetic metrics ---

/// Two-node pipelined phase + a sequential phase, with hand-picked numbers
/// so every derived quantity is checkable in closed form.
sim::QueryMetrics SyntheticMetrics() {
  sim::QueryMetrics metrics;
  metrics.scheduling_sec = 1.0;

  sim::PhaseMetrics scan;
  scan.name = "scan";
  scan.kind = sim::PhaseKind::kPipelined;
  scan.elapsed_sec = 2.0;
  scan.ring_bytes = 1000;  // 1 s at 1000 B/s: fits inside the 2 s phase
  scan.bottleneck_node = 0;
  scan.bottleneck_resource = sim::Resource::kDisk;
  scan.per_node.resize(3);
  scan.per_node[0].disk_sec = 2.0;   // the bottleneck
  scan.per_node[0].cpu_sec = 1.0;
  scan.per_node[0].pages_read = 10;
  scan.per_node[1].disk_sec = 1.0;
  scan.per_node[1].cpu_sec = 0.5;
  scan.per_node[1].serial_sec = 0.25;
  scan.per_node[1].pages_read = 5;
  // per_node[2] idle: must not appear in spans or active-node counts.

  sim::PhaseMetrics fetch;
  fetch.name = "fetch";
  fetch.kind = sim::PhaseKind::kSequential;
  fetch.elapsed_sec = 1.0;
  fetch.bottleneck_node = 1;
  fetch.bottleneck_resource = sim::Resource::kCpu;
  fetch.per_node.resize(3);
  fetch.per_node[1].cpu_sec = 0.6;
  fetch.per_node[1].disk_sec = 0.4;
  fetch.per_node[1].buffer_hits = 2;

  metrics.phases = {scan, fetch};
  return metrics;
}

TEST(ProfileTest, UtilizationClosedForm) {
  const sim::QueryMetrics metrics = SyntheticMetrics();
  // TotalSec = 1 (sched) + 2 + 1 = 4; nodes 0 and 1 active -> 2.
  const obs::Utilization util =
      obs::ComputeUtilization(metrics, /*ring_bytes_per_sec=*/1000);
  EXPECT_EQ(util.active_nodes, 2);
  // disk = 2 + 1 + 0.4 = 3.4 over (4 * 2).
  EXPECT_DOUBLE_EQ(util.disk_busy_frac, 3.4 / 8.0);
  // cpu = 1 + 0.5 + 0.6 = 2.1 over 8.
  EXPECT_DOUBLE_EQ(util.cpu_busy_frac, 2.1 / 8.0);
  EXPECT_DOUBLE_EQ(util.net_busy_frac, 0.0);
  // ring: 1000 bytes / 1000 B/s = 1 s over the 4 s query.
  EXPECT_DOUBLE_EQ(util.ring_busy_frac, 0.25);
  // Votes: scan (2 s) -> disk, fetch (1 s) -> cpu.
  EXPECT_EQ(util.critical_resource, "disk");
}

TEST(ProfileTest, RingLimitedPhaseWinsTheVerdict) {
  sim::QueryMetrics metrics = SyntheticMetrics();
  metrics.phases[0].ring_limited = true;
  const obs::Utilization util = obs::ComputeUtilization(metrics, 1000);
  EXPECT_EQ(util.critical_resource, "ring");
}

TEST(ProfileTest, SpanPlacementFollowsChargingRules) {
  const sim::QueryMetrics metrics = SyntheticMetrics();
  const auto spans = obs::BuildSpans("select", metrics, 1000);

  // Root.
  ASSERT_FALSE(spans.empty());
  EXPECT_EQ(spans[0].name, "query:select");
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_DOUBLE_EQ(spans[0].begin_sec, 0.0);
  EXPECT_DOUBLE_EQ(spans[0].dur_sec, 4.0);

  // Scheduling occupies [0, 1).
  EXPECT_EQ(spans[1].name, "scheduling");
  EXPECT_DOUBLE_EQ(spans[1].dur_sec, 1.0);

  // Every span nests inside its parent's interval, and the idle node never
  // appears.
  for (const obs::Span& span : spans) {
    EXPECT_NE(span.node, 2) << span.name;
    if (span.parent < 0) continue;
    const obs::Span& parent = spans[static_cast<size_t>(span.parent)];
    EXPECT_GE(span.begin_sec, parent.begin_sec - 1e-12) << span.name;
    EXPECT_LE(span.begin_sec + span.dur_sec,
              parent.begin_sec + parent.dur_sec + 1e-12)
        << span.name << " escapes " << parent.name;
  }

  // Pipelined phase: node 1's serial stall leads, devices share one origin.
  double serial_begin = -1, disk_begin = -1, cpu_begin = -1;
  for (const obs::Span& span : spans) {
    if (span.node != 1 || span.phase != 0) continue;
    if (span.device == obs::Device::kSerial) serial_begin = span.begin_sec;
    if (span.device == obs::Device::kDisk) disk_begin = span.begin_sec;
    if (span.device == obs::Device::kCpu) cpu_begin = span.begin_sec;
  }
  ASSERT_GE(serial_begin, 0.0);
  EXPECT_DOUBLE_EQ(serial_begin, 1.0);           // phase start
  EXPECT_DOUBLE_EQ(disk_begin, 1.25);            // after the 0.25 s stall
  EXPECT_DOUBLE_EQ(cpu_begin, disk_begin);       // overlapping from origin

  // Sequential phase: node 1's serial/disk/cpu/net run end to end.
  double seq_disk_begin = -1, seq_cpu_begin = -1;
  for (const obs::Span& span : spans) {
    if (span.node != 1 || span.phase != 1) continue;
    if (span.device == obs::Device::kDisk) seq_disk_begin = span.begin_sec;
    if (span.device == obs::Device::kCpu) seq_cpu_begin = span.begin_sec;
  }
  EXPECT_DOUBLE_EQ(seq_disk_begin, 3.0);  // phase starts at 1 + 2
  EXPECT_DOUBLE_EQ(seq_cpu_begin, 3.4);   // after the 0.4 s disk interval

  // One ring span, for the phase with traffic.
  int ring_spans = 0;
  for (const obs::Span& span : spans) {
    if (span.device == obs::Device::kRing) ++ring_spans;
  }
  EXPECT_EQ(ring_spans, 1);
}

TEST(ProfileTest, BuildProfileAggregatesPhases) {
  const sim::QueryMetrics metrics = SyntheticMetrics();
  const obs::Profile profile =
      obs::BuildProfile("gamma", "select", metrics, 1000);
  EXPECT_EQ(profile.machine, "gamma");
  EXPECT_EQ(profile.label, "select");
  EXPECT_DOUBLE_EQ(profile.total_sec, 4.0);
  ASSERT_EQ(profile.phases.size(), 2u);
  EXPECT_EQ(profile.phases[0].name, "scan");
  EXPECT_EQ(profile.phases[0].active_nodes, 2);
  EXPECT_DOUBLE_EQ(profile.phases[0].begin_sec, 1.0);
  EXPECT_DOUBLE_EQ(profile.phases[0].totals.disk_sec, 3.0);
  EXPECT_EQ(profile.phases[1].active_nodes, 1);
  EXPECT_DOUBLE_EQ(profile.phases[1].begin_sec, 3.0);
  EXPECT_DOUBLE_EQ(profile.totals.disk_sec, 3.4);
  EXPECT_FALSE(profile.spans.empty());

  const std::string rendered = obs::RenderProfile(profile);
  EXPECT_NE(rendered.find("profile gamma select"), std::string::npos);
  EXPECT_NE(rendered.find("critical resource: disk"), std::string::npos);
  EXPECT_NE(rendered.find("scan"), std::string::npos);
  EXPECT_NE(rendered.find("fetch"), std::string::npos);
}

TEST(ProfileTest, ChromeTraceJsonIsWellFormed) {
  const obs::Profile profile =
      obs::BuildProfile("gamma", "select", SyntheticMetrics(), 1000);
  const std::string json = obs::ChromeTraceJson(profile);
  EXPECT_EQ(json.find("{\"traceEvents\":["), 0u);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);  // track names
  EXPECT_NE(json.find("query:select"), std::string::npos);
  EXPECT_NE(json.find("\"critical_resource\":\"disk\""), std::string::npos);
  // Balanced braces/brackets (cheap structural validity check).
  int braces = 0, brackets = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"' && (i == 0 || json[i - 1] != '\\')) in_string = !in_string;
    if (in_string) continue;
    braces += (c == '{') - (c == '}');
    brackets += (c == '[') - (c == ']');
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

// --- End-to-end properties on a real machine ---

gamma::GammaConfig SmallConfig() {
  gamma::GammaConfig config;
  config.num_disk_nodes = 4;
  config.num_diskless_nodes = 4;
  config.join_memory_total = 4 << 20;
  config.chained_declustering = true;
  return config;
}

struct TracedRun {
  QueryResult result;
  std::string chrome_json;
  std::string rendered;
};

/// Fresh machine + loaded relations + one traced query, under the current
/// host-pool width.
TracedRun RunTraced(
    const gamma::GammaConfig& config,
    const std::function<Result<QueryResult>(gamma::GammaMachine&)>& query) {
  gamma::GammaMachine machine(config);
  GAMMA_CHECK(machine
                  .CreateRelation("A", wis::WisconsinSchema(),
                                  catalog::PartitionSpec::Hashed(
                                      wis::kUnique1))
                  .ok());
  GAMMA_CHECK(machine.LoadTuples("A", wis::GenerateWisconsin(2000, 7)).ok());
  GAMMA_CHECK(machine
                  .CreateRelation("B", wis::WisconsinSchema(),
                                  catalog::PartitionSpec::Hashed(
                                      wis::kUnique1))
                  .ok());
  GAMMA_CHECK(machine.LoadTuples("B", wis::GenerateWisconsin(1000, 8)).ok());
  auto result = query(machine);
  GAMMA_CHECK_MSG(result.ok(), result.status().ToString().c_str());
  TracedRun run{*std::move(result), {}, {}};
  GAMMA_CHECK(run.result.profile != nullptr);
  run.chrome_json = obs::ChromeTraceJson(*run.result.profile);
  run.rendered = obs::RenderProfile(*run.result.profile);
  return run;
}

void ExpectTraceIdenticalAcrossThreads(
    const gamma::GammaConfig& config,
    const std::function<Result<QueryResult>(gamma::GammaMachine&)>& query) {
  const TracedRun one = WithThreads(1, [&] { return RunTraced(config, query); });
  const TracedRun many =
      WithThreads(kManyThreads, [&] { return RunTraced(config, query); });

  // Byte-identical Chrome export and rendered breakdown.
  EXPECT_EQ(one.chrome_json, many.chrome_json);
  EXPECT_EQ(one.rendered, many.rendered);

  // Bit-identical utilization scalars.
  const obs::Utilization& ua = one.result.profile->util;
  const obs::Utilization& ub = many.result.profile->util;
  EXPECT_EQ(ua.disk_busy_frac, ub.disk_busy_frac);
  EXPECT_EQ(ua.cpu_busy_frac, ub.cpu_busy_frac);
  EXPECT_EQ(ua.net_busy_frac, ub.net_busy_frac);
  EXPECT_EQ(ua.ring_busy_frac, ub.ring_busy_frac);
  EXPECT_EQ(ua.critical_resource, ub.critical_resource);
  EXPECT_EQ(ua.active_nodes, ub.active_nodes);

  // Identical span streams, field by field.
  const auto& sa = one.result.profile->spans;
  const auto& sb = many.result.profile->spans;
  ASSERT_EQ(sa.size(), sb.size());
  for (size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].name, sb[i].name) << i;
    EXPECT_EQ(sa[i].node, sb[i].node) << i;
    EXPECT_EQ(sa[i].phase, sb[i].phase) << i;
    EXPECT_EQ(sa[i].device, sb[i].device) << i;
    EXPECT_EQ(sa[i].begin_sec, sb[i].begin_sec) << i;
    EXPECT_EQ(sa[i].dur_sec, sb[i].dur_sec) << i;
    EXPECT_EQ(sa[i].parent, sb[i].parent) << i;
  }
}

TEST(ObservabilityPropertyTest, SelectTraceIdenticalAcrossThreadCounts) {
  gamma::GammaConfig config = SmallConfig();
  config.trace.enabled = true;
  ExpectTraceIdenticalAcrossThreads(config, [](gamma::GammaMachine& m) {
    gamma::SelectQuery query;
    query.relation = "A";
    query.predicate = Predicate::Range(wis::kUnique2, 100, 299);
    query.store_result = true;
    return m.RunSelect(query);
  });
}

TEST(ObservabilityPropertyTest, JoinTraceIdenticalAcrossThreadCounts) {
  gamma::GammaConfig config = SmallConfig();
  config.trace.enabled = true;
  ExpectTraceIdenticalAcrossThreads(config, [](gamma::GammaMachine& m) {
    gamma::JoinQuery join;
    join.outer = "A";
    join.inner = "B";
    join.outer_attr = wis::kUnique2;
    join.inner_attr = wis::kUnique2;
    join.mode = gamma::JoinMode::kAllnodes;
    return m.RunJoin(join);
  });
}

// A node dies mid-query (after 10 disk ops) and chained declustering
// retries against the survivors: the failover path's trace must still be
// independent of the host-pool width.
TEST(ObservabilityPropertyTest, FailoverTraceIdenticalAcrossThreadCounts) {
  gamma::GammaConfig config = SmallConfig();
  config.trace.enabled = true;
  config.fault.drop_packet_prob = 0.02;
  ExpectTraceIdenticalAcrossThreads(config, [](gamma::GammaMachine& m) {
    m.KillNodeAfterOps(1, 10);
    gamma::SelectQuery query;
    query.relation = "A";
    query.predicate = Predicate::Range(wis::kUnique1, 0, 999);
    query.store_result = true;
    return m.RunSelect(query);
  });
}

// Tracing off vs on: identical simulated seconds and metrics (derivation is
// strictly post-accounting), and the profile only exists when asked for.
TEST(ObservabilityPropertyTest, TracingChargesZeroSimulatedTime) {
  auto run = [](bool traced) {
    gamma::GammaConfig config = SmallConfig();
    config.trace.enabled = traced;
    gamma::GammaMachine machine(config);
    GAMMA_CHECK(machine
                    .CreateRelation("A", wis::WisconsinSchema(),
                                    catalog::PartitionSpec::Hashed(
                                        wis::kUnique1))
                    .ok());
    GAMMA_CHECK(
        machine.LoadTuples("A", wis::GenerateWisconsin(2000, 7)).ok());
    gamma::SelectQuery query;
    query.relation = "A";
    query.predicate = Predicate::Range(wis::kUnique2, 100, 299);
    auto result = machine.RunSelect(query);
    GAMMA_CHECK(result.ok());
    return *std::move(result);
  };
  const QueryResult off = run(false);
  const QueryResult on = run(true);
  EXPECT_EQ(off.profile, nullptr);
  ASSERT_NE(on.profile, nullptr);
  EXPECT_EQ(off.seconds(), on.seconds());
  EXPECT_EQ(off.metrics.scheduling_sec, on.metrics.scheduling_sec);
  ASSERT_EQ(off.metrics.phases.size(), on.metrics.phases.size());
  for (size_t p = 0; p < off.metrics.phases.size(); ++p) {
    EXPECT_EQ(off.metrics.phases[p].elapsed_sec,
              on.metrics.phases[p].elapsed_sec);
  }
  // The profile agrees with the accounting it derived from.
  EXPECT_DOUBLE_EQ(on.profile->total_sec, on.seconds());
}

TEST(ObservabilityPropertyTest, StatementsFeedTheRegistry) {
  auto& registry = obs::MetricsRegistry::Instance();
  const uint64_t before = registry.CounterValue("query.count");
  gamma::GammaConfig config = SmallConfig();
  gamma::GammaMachine machine(config);
  GAMMA_CHECK(machine
                  .CreateRelation("A", wis::WisconsinSchema(),
                                  catalog::PartitionSpec::Hashed(
                                      wis::kUnique1))
                  .ok());
  GAMMA_CHECK(machine.LoadTuples("A", wis::GenerateWisconsin(500, 7)).ok());
  gamma::SelectQuery query;
  query.relation = "A";
  query.predicate = Predicate::Range(wis::kUnique1, 0, 99);
  ASSERT_TRUE(machine.RunSelect(query).ok());
  EXPECT_EQ(registry.CounterValue("query.count"), before + 1);
  EXPECT_GT(registry.CounterValue("query.pages_read"), 0u);
}

// --- QUEL surface ---

TEST(QuelProfileTest, ExplainProfileAttachesBreakdown) {
  gamma::GammaMachine machine(SmallConfig());
  GAMMA_CHECK(machine
                  .CreateRelation("A", wis::WisconsinSchema(),
                                  catalog::PartitionSpec::Hashed(
                                      wis::kUnique1))
                  .ok());
  GAMMA_CHECK(machine.LoadTuples("A", wis::GenerateWisconsin(1000, 9)).ok());
  quel::Session session(&machine);
  ASSERT_TRUE(session.Execute("range of t is A").ok());

  const auto plain = session.Execute(
      "explain retrieve (t.all) where t.unique1 >= 0 and t.unique1 <= 99");
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->profile, nullptr);
  EXPECT_EQ(plain->explain.find("profile gamma"), std::string::npos);

  const auto profiled = session.Execute(
      "explain profile retrieve (t.all) where t.unique1 >= 0 and "
      "t.unique1 <= 99");
  ASSERT_TRUE(profiled.ok());
  ASSERT_NE(profiled->profile, nullptr);
  EXPECT_NE(profiled->explain.find("profile gamma select"),
            std::string::npos);
  EXPECT_NE(profiled->explain.find("critical resource:"), std::string::npos);
  // Same query, same answer regardless of profiling. (Simulated seconds
  // differ between the two statements because the first warms the buffer
  // pool — that is cross-statement state, not a profiling charge; the
  // zero-overhead property is asserted on fresh machines above.)
  EXPECT_EQ(plain->result_tuples, profiled->result_tuples);

  EXPECT_TRUE(session.Execute("explain profile range of t is A")
                  .status()
                  .IsInvalidArgument());
}

// --- Metrics registry: log buckets, snapshot, concurrency ---

TEST(MetricsRegistryTest, LogBucketsAreSharedFixedEdges) {
  const std::vector<double> bounds = obs::LogBuckets(1e-4, 1e4, 4);
  ASSERT_GE(bounds.size(), 33u);
  EXPECT_EQ(bounds.front(), 1e-4);
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
  EXPECT_GE(bounds.back(), 1e4 * (1 - 1e-9));
  // Pure function of the index: a second call is bit-identical.
  EXPECT_EQ(bounds, obs::LogBuckets(1e-4, 1e4, 4));
  EXPECT_NEAR(bounds[4], 1e-3, 1e-15);
}

TEST(MetricsRegistryTest, HistogramSnapshotReportsTailQuantiles) {
  auto& registry = obs::MetricsRegistry::Instance();
  obs::Histogram& h =
      registry.histogram("test.snapshot_hist", obs::LogBuckets(0.001, 10, 1));
  h.Reset();
  for (int i = 0; i < 98; ++i) h.Observe(0.0005);  // bucket 0 (<= 0.001)
  h.Observe(0.5);  // <= 1
  h.Observe(5.0);  // <= 10
  const auto samples = registry.HistogramSnapshot();
  const obs::MetricsRegistry::HistogramSample* found = nullptr;
  for (const auto& s : samples) {
    if (s.name == "test.snapshot_hist") found = &s;
  }
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->count, 100u);
  EXPECT_EQ(found->p50, 0.001);
  EXPECT_EQ(found->p95, 0.001);
  EXPECT_EQ(found->p99, 1.0);
}

// TSan coverage: concurrent Observe on one histogram must be data-race free
// (atomic buckets, CAS sum) and lose no observations.
TEST(MetricsRegistryTest, ConcurrentHistogramObserveIsSafe) {
  auto& registry = obs::MetricsRegistry::Instance();
  obs::Histogram& h =
      registry.histogram("test.concurrent_hist", obs::LogBuckets(0.01, 10, 2));
  h.Reset();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Observe(0.01 * static_cast<double>(1 + (t + i) % 7));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(h.count(), static_cast<uint64_t>(kThreads * kPerThread));
  uint64_t bucket_total = 0;
  for (size_t i = 0; i <= h.bounds().size(); ++i) bucket_total += h.bucket(i);
  EXPECT_EQ(bucket_total, h.count());
}

// --- Flight recorder: the Journal itself ---

TEST(JournalTest, RingBoundEvictsOldestAndKeepsSeq) {
  obs::Journal journal(2, 4);
  EXPECT_TRUE(journal.enabled());
  for (int i = 0; i < 6; ++i) {
    journal.Emit(0, obs::JournalEventKind::kLockWait, i);
  }
  journal.Emit(1, obs::JournalEventKind::kCheckpoint);
  // Ring 0 retains the newest 4 of 6, oldest first, seq preserved.
  const auto& ring0 = journal.ring(0);
  ASSERT_EQ(ring0.size(), 4u);
  for (size_t i = 0; i < ring0.size(); ++i) {
    EXPECT_EQ(ring0[i].seq, i + 2);
    EXPECT_EQ(ring0[i].a, static_cast<int64_t>(i + 2));
  }
  EXPECT_EQ(journal.events_emitted(), 7u);  // evicted events still count
  EXPECT_EQ(journal.Merged().size(), 5u);
}

TEST(BoundedRingTest, WrapsInArrivalOrderOverManyLaps) {
  obs::BoundedRing<int> ring(5);
  for (int pushed = 1; pushed <= 17; ++pushed) {  // 3.4 laps
    ring.Push(pushed);
    const int kept = std::min(pushed, 5);
    ASSERT_EQ(ring.size(), static_cast<size_t>(kept));
    std::vector<int> want;
    for (int v = pushed - kept + 1; v <= pushed; ++v) want.push_back(v);
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(ring[i], want[i]) << pushed;
    }
  }
  ring.Clear();
  EXPECT_TRUE(ring.empty());
  ring.Push(42);
  ASSERT_EQ(ring.size(), 1u);
  EXPECT_EQ(ring[0], 42);
  obs::BoundedRing<int> none(0);
  none.Push(1);
  EXPECT_TRUE(none.empty());
}

TEST(JournalTest, WraparoundKeepsEvictionOrderAndSeqOverLaps) {
  obs::Journal journal(2, 3);
  for (int i = 0; i < 11; ++i) {  // more than three laps of ring 0
    journal.Emit(0, obs::JournalEventKind::kLockWait, i);
    const auto& ring0 = journal.ring(0);
    const size_t kept = std::min<size_t>(static_cast<size_t>(i) + 1, 3);
    ASSERT_EQ(ring0.size(), kept);
    const uint64_t oldest = static_cast<uint64_t>(i) + 1 - kept;
    for (size_t k = 0; k < kept; ++k) {
      EXPECT_EQ(ring0[k].seq, oldest + k) << i;
      EXPECT_EQ(ring0[k].a, static_cast<int64_t>(oldest + k)) << i;
    }
  }
  EXPECT_EQ(journal.events_emitted(), 11u);
  const auto merged = journal.Merged();
  ASSERT_EQ(merged.size(), 3u);
  for (size_t k = 0; k < merged.size(); ++k) {
    EXPECT_EQ(merged[k].event->seq, 8 + k);
  }
  EXPECT_NE(journal.RenderText().find("journal: 11 events recorded, 3 "
                                      "retained"),
            std::string::npos);
}

TEST(JournalTest, ZeroCapacityDisablesRecording) {
  obs::Journal journal(3, 0);
  EXPECT_FALSE(journal.enabled());
  journal.Emit(0, obs::JournalEventKind::kCrash);
  EXPECT_EQ(journal.events_emitted(), 0u);
  EXPECT_TRUE(journal.Merged().empty());
}

TEST(JournalTest, MergedOrderIsTimeThenRingThenSeq) {
  obs::Journal journal(3, 16);
  journal.Emit(2, obs::JournalEventKind::kStatementBegin, 1);  // t=0 ring 2
  journal.Emit(0, obs::JournalEventKind::kFaultPacketDrop);    // t=0 ring 0
  journal.Advance(1.5);
  journal.Emit(1, obs::JournalEventKind::kWalForce);            // t=1.5
  journal.EmitAt(0, 0.75, obs::JournalEventKind::kPhase, 1);    // backdated
  const auto merged = journal.Merged();
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged[0].ring, 0);  // t=0: ring 0 before ring 2
  EXPECT_EQ(merged[1].ring, 2);
  EXPECT_EQ(merged[2].event->kind, obs::JournalEventKind::kPhase);  // t=0.75
  EXPECT_EQ(merged[3].event->kind, obs::JournalEventKind::kWalForce);

  const std::string text = journal.RenderText();
  EXPECT_NE(text.find("journal: 4 events recorded"), std::string::npos);
  EXPECT_NE(text.find("wal_force"), std::string::npos);
  // The tail rendering keeps only the newest events.
  const std::string tail = journal.RenderText(1);
  EXPECT_EQ(tail.find("fault_packet_drop"), std::string::npos);
  EXPECT_NE(tail.find("wal_force"), std::string::npos);
}

// The one JSON string escaper behind the journal, the Chrome trace, the
// post-mortem dump and the bench reports.
TEST(JournalTest, AppendJsonStringEscapesSpecials) {
  std::string out = "x";
  obs::AppendJsonString("a\"b\\c\nd\te\x01" "f", &out);
  EXPECT_EQ(out, "x\"a\\\"b\\\\c\\nd\\te\\u0001f\"");
}

TEST(JournalTest, GrowInsertsEmptyRingAtDiskBoundary) {
  obs::Journal journal(4, 8);  // 2 disk + scheduler + host, say
  journal.Emit(2, obs::JournalEventKind::kLockWait, 7);
  journal.Grow(2);  // new disk node at index 2; old ring 2 shifts to 3
  EXPECT_EQ(journal.num_rings(), 5);
  EXPECT_TRUE(journal.ring(2).empty());
  ASSERT_EQ(journal.ring(3).size(), 1u);
  EXPECT_EQ(journal.ring(3)[0].a, 7);
}

// --- Flight recorder: end-to-end machine properties ---

size_t CountOccurrences(const std::string& haystack,
                        const std::string& needle) {
  size_t count = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

/// Fresh machine under the current pool width: loaded relation, one
/// mid-query node death with failover, then the journal's canonical JSON.
std::string JournalJsonUnderFaults(const gamma::GammaConfig& config) {
  gamma::GammaMachine machine(config);
  GAMMA_CHECK(machine
                  .CreateRelation("A", wis::WisconsinSchema(),
                                  catalog::PartitionSpec::Hashed(
                                      wis::kUnique1))
                  .ok());
  GAMMA_CHECK(machine.LoadTuples("A", wis::GenerateWisconsin(2000, 7)).ok());
  machine.KillNodeAfterOps(1, 10);
  gamma::SelectQuery query;
  query.relation = "A";
  query.predicate = Predicate::Range(wis::kUnique1, 0, 999);
  query.store_result = true;
  GAMMA_CHECK(machine.RunSelect(query).ok());
  return machine.journal().EventsJson();
}

// The headline determinism contract: the merged journal is byte-identical
// at any GAMMA_HOST_THREADS, even with packet-drop faults and a mid-query
// failover in play.
TEST(JournalPropertyTest, JournalIdenticalAcrossThreadCounts) {
  gamma::GammaConfig config = SmallConfig();
  config.chained_declustering = true;
  config.fault.drop_packet_prob = 0.02;
  const std::string one =
      WithThreads(1, [&] { return JournalJsonUnderFaults(config); });
  const std::string many =
      WithThreads(kManyThreads, [&] { return JournalJsonUnderFaults(config); });
  EXPECT_EQ(one, many);
  // The run actually journaled the interesting events.
  EXPECT_NE(one.find("fault_node_death"), std::string::npos);
  EXPECT_NE(one.find("statement_begin"), std::string::npos);
  EXPECT_NE(one.find("statement_end"), std::string::npos);
}

// Recording costs host memory only: disabling the journal entirely must not
// change any simulated second.
TEST(JournalPropertyTest, JournalChargesZeroSimulatedTime) {
  auto run = [](const char* ring_env) {
    ::setenv("GAMMA_JOURNAL_RING", ring_env, 1);
    gamma::GammaMachine machine(SmallConfig());
    ::unsetenv("GAMMA_JOURNAL_RING");
    GAMMA_CHECK(machine
                    .CreateRelation("A", wis::WisconsinSchema(),
                                    catalog::PartitionSpec::Hashed(
                                        wis::kUnique1))
                    .ok());
    GAMMA_CHECK(
        machine.LoadTuples("A", wis::GenerateWisconsin(2000, 7)).ok());
    gamma::SelectQuery query;
    query.relation = "A";
    query.predicate = Predicate::Range(wis::kUnique2, 100, 299);
    auto result = machine.RunSelect(query);
    GAMMA_CHECK(result.ok());
    return std::make_pair(result->seconds(),
                          machine.journal().events_emitted());
  };
  const auto off = run("0");
  const auto on = run("4096");
  EXPECT_EQ(off.second, 0u);
  EXPECT_GT(on.second, 0u);
  EXPECT_EQ(off.first, on.first);
}

// Crash -> post-mortem dump -> Recover attaches it; the dump's event counts
// agree with the registry's counters for the same window.
TEST(JournalPropertyTest, CrashDumpRoundTripMatchesRegistry) {
  ::setenv("GAMMA_JOURNAL_RING", "100000", 1);  // nothing may evict
  gamma::GammaConfig config = SmallConfig();
  config.fault.drop_packet_prob = 0.05;
  config.enable_logging = true;  // Recover() replays the WAL
  gamma::GammaMachine machine(config);
  ::unsetenv("GAMMA_JOURNAL_RING");
  auto& registry = obs::MetricsRegistry::Instance();
  const uint64_t drops_before =
      registry.CounterValue("fault.packets_dropped");
  GAMMA_CHECK(machine
                  .CreateRelation("A", wis::WisconsinSchema(),
                                  catalog::PartitionSpec::Hashed(
                                      wis::kUnique1))
                  .ok());
  GAMMA_CHECK(machine.LoadTuples("A", wis::GenerateWisconsin(2000, 7)).ok());
  gamma::SelectQuery query;
  query.relation = "A";
  query.predicate = Predicate::Range(wis::kUnique1, 0, 499);
  query.store_result = true;
  ASSERT_TRUE(machine.RunSelect(query).ok());
  const uint64_t drops =
      registry.CounterValue("fault.packets_dropped") - drops_before;

  machine.Crash();
  const auto report = machine.Recover();
  ASSERT_TRUE(report.ok());
  const std::string& dump = report->post_mortem_json;
  ASSERT_FALSE(dump.empty());
  EXPECT_NE(dump.find("\"reason\": \"crash\""), std::string::npos);
  EXPECT_EQ(CountOccurrences(dump, "\"kind\": \"crash\""), 1u);
  EXPECT_EQ(CountOccurrences(dump, "\"kind\": \"statement_begin\""), 1u);
  EXPECT_EQ(CountOccurrences(dump, "\"kind\": \"fault_packet_drop\""),
            static_cast<size_t>(drops));
  // The metrics snapshot rode along.
  EXPECT_NE(dump.find("fault.packets_dropped"), std::string::npos);
  // A second Recover() has no dump to attach.
  EXPECT_EQ(machine.journal().events_emitted(),
            CountOccurrences(machine.journal().EventsJson(), "\"kind\""));

  // DumpJournal exports the same canonical stream to a file.
  const std::string path = ::testing::TempDir() + "/journal_dump_test.json";
  ASSERT_TRUE(machine.DumpJournal(path).ok());
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string contents;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    contents.append(buf, n);
  }
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(CountOccurrences(contents, "\"kind\""),
            machine.journal().events_emitted());
  EXPECT_NE(contents.find("\"kind\": \"recover_end\""), std::string::npos);
}

// --- QUEL surface: explain journal ---

TEST(QuelProfileTest, ExplainJournalAppendsTail) {
  gamma::GammaMachine machine(SmallConfig());
  GAMMA_CHECK(machine
                  .CreateRelation("A", wis::WisconsinSchema(),
                                  catalog::PartitionSpec::Hashed(
                                      wis::kUnique1))
                  .ok());
  GAMMA_CHECK(machine.LoadTuples("A", wis::GenerateWisconsin(1000, 9)).ok());
  quel::Session session(&machine);
  ASSERT_TRUE(session.Execute("range of t is A").ok());

  const auto result = session.Execute(
      "explain journal retrieve (t.all) where t.unique1 >= 0 and "
      "t.unique1 <= 99");
  ASSERT_TRUE(result.ok());
  EXPECT_NE(result->explain.find("journal:"), std::string::npos);
  EXPECT_NE(result->explain.find("statement_end"), std::string::npos);
  EXPECT_NE(result->explain.find("select"), std::string::npos);

  EXPECT_TRUE(session.Execute("explain journal range of t is A")
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace gammadb
