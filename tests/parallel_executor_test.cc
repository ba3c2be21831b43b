// Determinism tests for the host-parallel node executor: the same queries
// run with 1 host thread (the sequential reference schedule) and with
// several host threads must produce byte-identical answers, bit-identical
// simulated times, and field-identical metrics — including recovery-log and
// fault-injection statistics under an injected fault schedule.

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "exec/node_executor.h"
#include "gamma/machine.h"
#include "sim/host_pool.h"
#include "sim/workload.h"
#include "teradata/machine.h"
#include "test_util.h"
#include "wisconsin/wisconsin.h"

namespace gammadb {
namespace {

namespace wis = gammadb::wisconsin;
using exec::Predicate;
using exec::QueryResult;

constexpr int kManyThreads = 4;

gamma::GammaConfig ParallelConfig() {
  gamma::GammaConfig config;
  config.num_disk_nodes = 4;
  config.num_diskless_nodes = 4;
  config.join_memory_total = 4 << 20;
  config.chained_declustering = true;
  return config;
}

/// Runs `body` with the host pool set to `threads`, restoring the previous
/// width afterwards.
template <typename Fn>
auto WithThreads(int threads, Fn&& body) {
  auto& pool = sim::HostPool::Instance();
  const int prev = pool.num_threads();
  pool.set_num_threads(threads);
  auto result = body();
  pool.set_num_threads(prev);
  return result;
}

/// Exact (bitwise for doubles) equality over every NodeUsage field.
void ExpectUsageEq(const sim::NodeUsage& ua, const sim::NodeUsage& ub,
                   const std::string& where) {
  EXPECT_EQ(ua.disk_sec, ub.disk_sec) << where;
  EXPECT_EQ(ua.cpu_sec, ub.cpu_sec) << where;
  EXPECT_EQ(ua.net_sec, ub.net_sec) << where;
  EXPECT_EQ(ua.serial_sec, ub.serial_sec) << where;
  EXPECT_EQ(ua.seq_page_ios, ub.seq_page_ios) << where;
  EXPECT_EQ(ua.rand_page_ios, ub.rand_page_ios) << where;
  EXPECT_EQ(ua.pages_read, ub.pages_read) << where;
  EXPECT_EQ(ua.pages_written, ub.pages_written) << where;
  EXPECT_EQ(ua.buffer_hits, ub.buffer_hits) << where;
  EXPECT_EQ(ua.packets_sent, ub.packets_sent) << where;
  EXPECT_EQ(ua.packets_short_circuited, ub.packets_short_circuited) << where;
  EXPECT_EQ(ua.packets_retransmitted, ub.packets_retransmitted) << where;
  EXPECT_EQ(ua.bytes_sent, ub.bytes_sent) << where;
  EXPECT_EQ(ua.bytes_short_circuited, ub.bytes_short_circuited) << where;
  EXPECT_EQ(ua.control_msgs, ub.control_msgs) << where;
}

/// Exact (bitwise for doubles) equality over every metrics field the cost
/// model reports. The parallel executor merges per-task shards in canonical
/// node order, so even floating-point sums must match the 1-thread run.
void ExpectMetricsEq(const sim::QueryMetrics& a, const sim::QueryMetrics& b) {
  EXPECT_EQ(a.scheduling_sec, b.scheduling_sec);
  EXPECT_EQ(a.scheduling_msgs, b.scheduling_msgs);
  EXPECT_EQ(a.overflow_rounds, b.overflow_rounds);
  EXPECT_EQ(a.log_records, b.log_records);
  EXPECT_EQ(a.log_forced_flushes, b.log_forced_flushes);
  EXPECT_EQ(a.locks_acquired, b.locks_acquired);
  EXPECT_EQ(a.lock_waits, b.lock_waits);
  EXPECT_EQ(a.lock_wait_sec, b.lock_wait_sec);
  EXPECT_EQ(a.deadlocks, b.deadlocks);
  EXPECT_EQ(a.lock_aborts, b.lock_aborts);
  EXPECT_EQ(a.failover_retries, b.failover_retries);
  EXPECT_EQ(a.failover_backoff_sec, b.failover_backoff_sec);
  ASSERT_EQ(a.phases.size(), b.phases.size());
  for (size_t p = 0; p < a.phases.size(); ++p) {
    const sim::PhaseMetrics& pa = a.phases[p];
    const sim::PhaseMetrics& pb = b.phases[p];
    EXPECT_EQ(pa.name, pb.name);
    EXPECT_EQ(pa.kind, pb.kind);
    EXPECT_EQ(pa.elapsed_sec, pb.elapsed_sec) << pa.name;
    EXPECT_EQ(pa.ring_bytes, pb.ring_bytes) << pa.name;
    EXPECT_EQ(pa.ring_limited, pb.ring_limited) << pa.name;
    EXPECT_EQ(pa.bottleneck_node, pb.bottleneck_node) << pa.name;
    EXPECT_EQ(pa.bottleneck_resource, pb.bottleneck_resource) << pa.name;
    ASSERT_EQ(pa.per_node.size(), pb.per_node.size());
    for (size_t i = 0; i < pa.per_node.size(); ++i) {
      ExpectUsageEq(pa.per_node[i], pb.per_node[i],
                    pa.name + " node " + std::to_string(i));
    }
  }
}

struct RunOutput {
  QueryResult result;
  std::vector<std::vector<uint8_t>> stored;  // result relation, if any
  sim::FaultInjector::Stats fault_stats;
};

/// Builds a fresh machine, loads the benchmark relations, and runs `query`,
/// all under one host-pool width — end-to-end, so load and index fan-out are
/// covered by the determinism check too.
RunOutput RunEndToEnd(
    const gamma::GammaConfig& config,
    const std::function<Result<QueryResult>(gamma::GammaMachine&)>& query) {
  gamma::GammaMachine machine(config);
  GAMMA_CHECK(machine
                  .CreateRelation("A", wis::WisconsinSchema(),
                                  catalog::PartitionSpec::Hashed(
                                      wis::kUnique1))
                  .ok());
  GAMMA_CHECK(
      machine.LoadTuples("A", wis::GenerateWisconsin(2000, 7)).ok());
  GAMMA_CHECK(machine
                  .CreateRelation("B", wis::WisconsinSchema(),
                                  catalog::PartitionSpec::Hashed(
                                      wis::kUnique1))
                  .ok());
  GAMMA_CHECK(
      machine.LoadTuples("B", wis::GenerateWisconsin(1000, 8)).ok());

  auto result = query(machine);
  GAMMA_CHECK_MSG(result.ok(), result.status().ToString().c_str());
  RunOutput out{*std::move(result), {}, machine.faults().stats()};
  if (!out.result.result_relation.empty()) {
    out.stored = *machine.ReadRelation(out.result.result_relation);
  }
  return out;
}

/// Runs `query` end to end at 1 and at kManyThreads host threads, expects
/// identical answers, accounting and fault draws, and returns the 1-thread
/// run.
RunOutput ExpectRunsIdentical(
    const gamma::GammaConfig& config,
    const std::function<Result<QueryResult>(gamma::GammaMachine&)>& query) {
  const RunOutput one =
      WithThreads(1, [&] { return RunEndToEnd(config, query); });
  const RunOutput many =
      WithThreads(kManyThreads, [&] { return RunEndToEnd(config, query); });

  // Byte-identical answers, in order — not just as multisets.
  EXPECT_EQ(one.result.returned, many.result.returned);
  EXPECT_EQ(one.stored, many.stored);
  EXPECT_EQ(one.result.result_tuples, many.result.result_tuples);
  EXPECT_EQ(one.result.failover_retries, many.result.failover_retries);
  // Bit-identical simulated time and field-identical accounting.
  EXPECT_EQ(one.result.seconds(), many.result.seconds());
  ExpectMetricsEq(one.result.metrics, many.result.metrics);
  // Identical injected-fault draws.
  EXPECT_EQ(one.fault_stats.transient_read_faults,
            many.fault_stats.transient_read_faults);
  EXPECT_EQ(one.fault_stats.transient_write_faults,
            many.fault_stats.transient_write_faults);
  EXPECT_EQ(one.fault_stats.corrupted_reads, many.fault_stats.corrupted_reads);
  EXPECT_EQ(one.fault_stats.packets_dropped, many.fault_stats.packets_dropped);
  return one;
}

std::vector<std::string> PhaseNames(const QueryResult& result) {
  std::vector<std::string> names;
  for (const sim::PhaseMetrics& phase : result.metrics.phases) {
    names.push_back(phase.name);
  }
  return names;
}

// The executor's one merge rule: every task's shard starts empty and is
// added to the query tracker at the barrier, in task order, on top of what
// the phase charged before, even for a node whose serial charges came
// first. The charges are chosen so that the rule shows in the last bits:
// continuing node 0's running sums inline would round differently.
TEST(ParallelExecutorTest, MergeRuleAddsShardsInTaskOrder) {
  const sim::MachineParams hw = sim::MachineParams::TeradataDefaults();
  constexpr int kNodes = 3;
  std::vector<std::unique_ptr<storage::StorageManager>> nodes;
  for (int i = 0; i < 2; ++i) {
    nodes.push_back(std::make_unique<storage::StorageManager>(4096, 64 << 10));
  }
  // Serial charges to node 0 before the tasks run.
  const auto serial = [](sim::CostTracker& t) {
    t.ChargeCpu(0, 1e6 / 3);
    t.ChargeDiskRead(0, 4096, /*sequential=*/false);
  };
  // Task 0 (owner 0) charges only itself; task 1 (owner 1) charges itself
  // and, remotely, node 0 and (by a packet to it) node 2.
  const auto task0 = [](sim::CostTracker& t) {
    t.ChargeCpu(0, 1e5);
    t.ChargeCpu(0, 11e5 / 7);
  };
  const auto task1 = [](sim::CostTracker& t) {
    t.ChargeCpu(1, 5e5 / 3);
    t.ChargeCpu(0, 13e5 / 11);
    t.ChargeDataPacket(1, 2, 2048);
    t.ChargeDiskWrite(1, 4096, /*sequential=*/true);
  };

  // The rule, written out: (serial + shard 0) + shard 1, node by node.
  sim::CostTracker expected(hw, kNodes);
  expected.BeginPhase("p", sim::PhaseKind::kPipelined);
  serial(expected);
  std::vector<sim::NodeUsage> want;
  for (int node = 0; node < kNodes; ++node) {
    want.push_back(expected.current(node));
  }
  for (const auto& body : {std::function(task0), std::function(task1)}) {
    sim::CostTracker shard(hw, kNodes);
    body(shard);
    for (int node = 0; node < kNodes; ++node) {
      want[static_cast<size_t>(node)].Add(shard.current(node));
    }
  }
  expected.EndPhase();
  // Running the same charges inline on one tracker rounds differently.
  sim::CostTracker inline_sums(hw, kNodes);
  inline_sums.BeginPhase("p", sim::PhaseKind::kPipelined);
  serial(inline_sums);
  task0(inline_sums);
  task1(inline_sums);
  EXPECT_NE(inline_sums.current(0).cpu_sec, want[0].cpu_sec);
  inline_sums.EndPhase();

  for (const int threads : {1, kManyThreads}) {
    const std::vector<sim::NodeUsage> got = WithThreads(threads, [&] {
      sim::CostTracker tracker(hw, kNodes);
      tracker.BeginPhase("p", sim::PhaseKind::kPipelined);
      serial(tracker);
      std::vector<exec::NodeTask> tasks;
      tasks.push_back({0, [&](sim::CostTracker& shard) {
                         task0(shard);
                         return Status::OK();
                       }});
      tasks.push_back({1, [&](sim::CostTracker& shard) {
                         task1(shard);
                         return Status::OK();
                       }});
      GAMMA_CHECK(exec::NodeExecutor(nodes, hw, kNodes)
                      .Run(&tracker, std::move(tasks))
                      .ok());
      std::vector<sim::NodeUsage> usage;
      for (int node = 0; node < kNodes; ++node) {
        usage.push_back(tracker.current(node));
      }
      tracker.EndPhase();
      return usage;
    });
    for (int node = 0; node < kNodes; ++node) {
      ExpectUsageEq(got[static_cast<size_t>(node)],
                    want[static_cast<size_t>(node)],
                    std::to_string(threads) + " threads, node " +
                        std::to_string(node));
    }
  }
}

// Table 1's shape: a 10% range selection returned to the host, and the
// same selection stored declustered across all nodes; then the 10% range
// through a clustered index and a 1% range through a non-clustered index.
// Every access path runs as one "select" phase.
TEST(ParallelExecutorTest, SelectionIdenticalAcrossThreadCounts) {
  for (const bool store : {false, true}) {
    const RunOutput run =
        ExpectRunsIdentical(ParallelConfig(), [store](gamma::GammaMachine& m) {
          gamma::SelectQuery query;
          query.relation = "A";
          query.predicate = Predicate::Range(wis::kUnique2, 100, 299);
          query.store_result = store;
          return m.RunSelect(query);
        });
    EXPECT_EQ(PhaseNames(run.result), std::vector<std::string>{"select"});
  }
  for (const bool clustered : {true, false}) {
    const RunOutput run = ExpectRunsIdentical(
        ParallelConfig(), [clustered](gamma::GammaMachine& m) {
          GAMMA_CHECK(m.BuildIndex("A", wis::kUnique2, clustered).ok());
          gamma::SelectQuery query;
          query.relation = "A";
          query.predicate =
              Predicate::Range(wis::kUnique2, 100, clustered ? 299 : 119);
          query.access = clustered ? gamma::AccessPath::kClusteredIndex
                                   : gamma::AccessPath::kNonClusteredIndex;
          return m.RunSelect(query);
        });
    EXPECT_EQ(run.result.result_tuples, clustered ? 200u : 20u);
    EXPECT_EQ(PhaseNames(run.result), std::vector<std::string>{"select"});
  }
}

// Table 2's shape (joinABprime on the partitioning attribute, and the
// non-partitioning variant that repartitions both inputs) under every join
// algorithm, site choice, routing and result destination, each with its
// exact phase sequence.
TEST(ParallelExecutorTest, JoinIdenticalAcrossThreadCounts) {
  using gamma::JoinAlgorithm;
  using gamma::JoinMode;
  using gamma::SplitRouting;
  struct Variant {
    const char* name;
    int attr;
    JoinMode mode;
    JoinAlgorithm algorithm;
    SplitRouting routing;
    bool bit_filter;
    bool store;
    /// Aggregate join memory; 0 keeps ParallelConfig's.
    uint64_t join_memory;
    std::vector<std::string> phases;
  };
  const std::vector<std::string> hash = {"build", "probe", "finalize"};
  const Variant variants[] = {
      {"simple_key", wis::kUnique1, JoinMode::kAllnodes,
       JoinAlgorithm::kSimpleHash, SplitRouting::kAuto, false, true, 0, hash},
      {"simple_nonkey", wis::kUnique2, JoinMode::kAllnodes,
       JoinAlgorithm::kSimpleHash, SplitRouting::kAuto, false, true, 0, hash},
      {"hybrid", wis::kUnique2, JoinMode::kRemote, JoinAlgorithm::kHybridHash,
       SplitRouting::kAuto, false, true, 0,
       {"build", "probe", "hybrid_buckets", "finalize"}},
      {"sort_merge", wis::kUnique2, JoinMode::kLocal,
       JoinAlgorithm::kSortMerge, SplitRouting::kAuto, false, false, 0,
       {"build", "probe", "sort_merge", "finalize"}},
      {"overflow", wis::kUnique2, JoinMode::kAllnodes,
       JoinAlgorithm::kSimpleHash, SplitRouting::kAuto, false, true, 64 << 10,
       {"build", "probe", "overflow_build_1", "overflow_probe_1",
        "overflow_build_2", "overflow_probe_2", "overflow_build_3",
        "overflow_probe_3", "overflow_build_4", "overflow_probe_4",
        "finalize"}},
      {"bit_filter", wis::kUnique2, JoinMode::kLocal,
       JoinAlgorithm::kSimpleHash, SplitRouting::kAuto, true, false, 0, hash},
      {"bucket_map", wis::kUnique2, JoinMode::kRemote,
       JoinAlgorithm::kSimpleHash, SplitRouting::kBucketMap, false, true, 0,
       {"skew_sample", "build", "probe", "finalize"}},
  };
  for (const Variant& v : variants) {
    SCOPED_TRACE(v.name);
    gamma::GammaConfig config = ParallelConfig();
    if (v.join_memory != 0) config.join_memory_total = v.join_memory;
    const RunOutput run =
        ExpectRunsIdentical(config, [&v](gamma::GammaMachine& m) {
          gamma::JoinQuery join;
          join.outer = "A";
          join.inner = "B";
          join.outer_attr = v.attr;
          join.inner_attr = v.attr;
          join.mode = v.mode;
          join.algorithm = v.algorithm;
          join.routing = v.routing;
          join.use_bit_filter = v.bit_filter;
          join.store_result = v.store;
          return m.RunJoin(join);
        });
    EXPECT_EQ(run.result.result_tuples, 1000u);
    EXPECT_EQ(run.result.result_relation.empty(), !v.store);
    EXPECT_EQ(PhaseNames(run.result), v.phases);
  }
}

// Teradata's sort step runs one task per AMP; its pool flushes run inline,
// AMP by AMP. Key joins (no redistribution or sort) and non-key joins
// (redistribute, multi-run external sort, merge), stored and returned, must
// match the 1-thread run byte for byte and field for field — including a
// second statement on the same machine, which starts from the pools the
// first one left behind.
TEST(ParallelExecutorTest, TeradataJoinIdenticalAcrossThreadCounts) {
  struct TdOutput {
    std::vector<QueryResult> results;
    std::vector<std::vector<std::vector<uint8_t>>> stored;
  };
  for (const int attr : {wis::kUnique1, wis::kUnique2}) {
    for (const bool store : {false, true}) {
      SCOPED_TRACE(std::string(attr == wis::kUnique1 ? "key" : "non-key") +
                   (store ? ", stored" : ", returned"));
      const auto run = [&] {
        teradata::TeradataConfig config;
        config.num_amps = 8;
        config.sort_memory_bytes = 16 << 10;  // several runs per AMP
        teradata::TeradataMachine machine(config);
        for (const auto& [name, n, seed] :
             {std::tuple{"A", 2000u, 7}, std::tuple{"B", 1000u, 8}}) {
          GAMMA_CHECK(machine
                          .CreateRelation(name, wis::WisconsinSchema(),
                                          wis::kUnique1)
                          .ok());
          GAMMA_CHECK(machine
                          .LoadTuples(name, wis::GenerateWisconsin(
                                                n, static_cast<uint64_t>(seed)))
                          .ok());
        }
        TdOutput out;
        for (int repeat = 0; repeat < 2; ++repeat) {
          teradata::TdJoinQuery join;
          join.outer = "A";
          join.inner = "B";
          join.outer_attr = attr;
          join.inner_attr = attr;
          join.store_result = store;
          auto result = machine.RunJoin(join);
          GAMMA_CHECK_MSG(result.ok(), result.status().ToString().c_str());
          if (store) {
            out.stored.push_back(
                *machine.ReadRelation(result->result_relation));
          }
          out.results.push_back(*std::move(result));
        }
        return out;
      };
      const TdOutput one = WithThreads(1, run);
      const TdOutput many = WithThreads(kManyThreads, run);
      ASSERT_EQ(one.results.size(), many.results.size());
      for (size_t i = 0; i < one.results.size(); ++i) {
        EXPECT_EQ(one.results[i].result_tuples, 1000u);
        EXPECT_EQ(one.results[i].returned, many.results[i].returned);
        EXPECT_EQ(one.results[i].seconds(), many.results[i].seconds());
        ExpectMetricsEq(one.results[i].metrics, many.results[i].metrics);
      }
      EXPECT_EQ(one.stored, many.stored);
      const std::vector<std::string> phases =
          attr == wis::kUnique1
              ? std::vector<std::string>{"ifp_dispatch", "merge_store"}
              : std::vector<std::string>{"ifp_dispatch", "redistribute_inner",
                                         "redistribute_outer", "sort",
                                         "merge_store"};
      EXPECT_EQ(PhaseNames(one.results[0]), phases);
    }
  }
}

/// One fragment file as a scan sees it: page count, then (rid, bytes) in
/// scan order.
struct FragmentImage {
  uint32_t num_pages = 0;
  std::vector<std::pair<storage::Rid, std::vector<uint8_t>>> records;
  bool operator==(const FragmentImage&) const = default;
};

FragmentImage ImageOf(storage::StorageManager& sm, uint32_t file) {
  FragmentImage image;
  image.num_pages = sm.file(file).num_pages();
  GAMMA_CHECK(sm.file(file)
                  .Scan([&](storage::Rid rid, std::span<const uint8_t> t) {
                    image.records.emplace_back(
                        rid, std::vector<uint8_t>(t.begin(), t.end()));
                    return true;
                  })
                  .ok());
  return image;
}

/// Every fragment (primary, then backup) of every relation, then each
/// relation's ReadRelation.
struct LoadImage {
  std::vector<FragmentImage> fragments;
  std::vector<std::vector<std::vector<uint8_t>>> relations;
  bool operator==(const LoadImage&) const = default;
};

LoadImage LoadGammaRelations(bool chained) {
  gamma::GammaConfig config = ParallelConfig();
  config.chained_declustering = chained;
  gamma::GammaMachine machine(config);
  const std::vector<std::pair<std::string, catalog::PartitionSpec>> specs = {
      {"hashed", catalog::PartitionSpec::Hashed(wis::kUnique1)},
      {"range", catalog::PartitionSpec::RangeUniform(wis::kUnique2, 0, 2999,
                                                     config.num_disk_nodes)},
      {"round_robin", catalog::PartitionSpec::RoundRobin()}};
  LoadImage image;
  for (const auto& [name, spec] : specs) {
    GAMMA_CHECK(
        machine.CreateRelation(name, wis::WisconsinSchema(), spec).ok());
    GAMMA_CHECK(
        machine.LoadTuples(name, wis::GenerateWisconsin(3000, 5)).ok());
    const catalog::RelationMeta& meta = *machine.catalog().Get(name).value();
    for (int n = 0; n < config.num_disk_nodes; ++n) {
      image.fragments.push_back(ImageOf(
          machine.node(n), meta.per_node_file[static_cast<size_t>(n)]));
    }
    for (size_t f = 0; f < meta.per_node_backup_file.size(); ++f) {
      const int host = static_cast<int>((f + 1) % meta.per_node_file.size());
      image.fragments.push_back(
          ImageOf(machine.node(host), meta.per_node_backup_file[f]));
    }
    image.relations.push_back(*machine.ReadRelation(name));
  }
  return image;
}

TEST(ParallelExecutorTest, GammaLoadIdenticalAcrossThreadCounts) {
  for (const bool chained : {false, true}) {
    SCOPED_TRACE(chained ? "chained declustering" : "no backups");
    const LoadImage one = WithThreads(1, [&] {
      return LoadGammaRelations(chained);
    });
    const LoadImage many = WithThreads(kManyThreads, [&] {
      return LoadGammaRelations(chained);
    });
    EXPECT_EQ(one.fragments.size(), chained ? 24u : 12u);
    EXPECT_EQ(one.relations[0].size(), 3000u);
    EXPECT_TRUE(one == many);
  }
}

TEST(ParallelExecutorTest, TeradataLoadIdenticalAcrossThreadCounts) {
  const auto run = [] {
    teradata::TeradataConfig config;
    config.num_amps = 8;
    teradata::TeradataMachine machine(config);
    GAMMA_CHECK(
        machine.CreateRelation("A", wis::WisconsinSchema(), wis::kUnique1)
            .ok());
    GAMMA_CHECK(machine.LoadTuples("A", wis::GenerateWisconsin(3000, 5)).ok());
    const catalog::RelationMeta& meta = *machine.catalog().Get("A").value();
    LoadImage image;
    for (int amp = 0; amp < config.num_amps; ++amp) {
      image.fragments.push_back(ImageOf(
          machine.amp(amp), meta.per_node_file[static_cast<size_t>(amp)]));
    }
    image.relations.push_back(*machine.ReadRelation("A"));
    return image;
  };
  const LoadImage one = WithThreads(1, run);
  EXPECT_EQ(one.relations[0].size(), 3000u);
  EXPECT_TRUE(one == WithThreads(kManyThreads, run));
}

TEST(ParallelExecutorTest, MalformedTupleInTheLastRouteChunkAllocatesNothing) {
  // At 4 host threads the route's last chunk holds the last quarter of the
  // input; a wrong-size tuple there must reject the load before any node
  // allocates a page.
  std::vector<std::vector<uint8_t>> tuples = wis::GenerateWisconsin(4000, 9);
  tuples.back().pop_back();
  WithThreads(kManyThreads, [&] {
    gamma::GammaMachine gm(ParallelConfig());
    GAMMA_CHECK(gm.CreateRelation("A", wis::WisconsinSchema(),
                                  catalog::PartitionSpec::Hashed(
                                      wis::kUnique1))
                    .ok());
    EXPECT_TRUE(gm.LoadTuples("A", tuples).IsInvalidArgument());
    for (int n = 0; n < ParallelConfig().num_disk_nodes; ++n) {
      EXPECT_EQ(gm.node(n).disk().num_pages(), 0u) << "node " << n;
    }
    teradata::TeradataConfig config;
    config.num_amps = 8;
    teradata::TeradataMachine td(config);
    GAMMA_CHECK(
        td.CreateRelation("A", wis::WisconsinSchema(), wis::kUnique1).ok());
    EXPECT_TRUE(td.LoadTuples("A", tuples).IsInvalidArgument());
    for (int amp = 0; amp < config.num_amps; ++amp) {
      EXPECT_EQ(td.amp(amp).disk().num_pages(), 0u) << "AMP " << amp;
    }
    return 0;
  });
}

TEST(ParallelExecutorTest, AggregateIdenticalAcrossThreadCounts) {
  for (const int group_attr : {-1, static_cast<int>(wis::kTen)}) {
    const RunOutput run = ExpectRunsIdentical(
        ParallelConfig(), [group_attr](gamma::GammaMachine& m) {
          gamma::AggregateQuery query;
          query.relation = "A";
          query.group_attr = group_attr;
          query.value_attr = wis::kUnique1;
          query.func = exec::AggFunc::kSum;
          return m.RunAggregate(query);
        });
    EXPECT_EQ(run.result.result_tuples, group_attr < 0 ? 1u : 10u);
    EXPECT_EQ(PhaseNames(run.result),
              (std::vector<std::string>{"local_agg", "global_agg", "return"}));
  }
}

// Table 3's single-site writes on the durable configuration: each touches
// one primary fragment and its chained backup, so the end-of-statement
// flush writes back two pools and skips the rest. Which pools it visits
// must not depend on the host-pool width.
TEST(ParallelExecutorTest, SingleSiteWriteIdenticalAcrossThreadCounts) {
  gamma::GammaConfig config = ParallelConfig();
  config.enable_logging = true;
  catalog::TupleBuilder builder(&wis::WisconsinSchema());
  builder.SetInt(wis::kUnique1, 5000).SetInt(wis::kUnique2, 5000);
  const gamma::AppendQuery append{
      "A", {builder.bytes().begin(), builder.bytes().end()}};
  const std::vector<
      std::pair<std::string, std::function<Result<QueryResult>(
                                 gamma::GammaMachine&)>>>
      writes = {
          {"append", [&](gamma::GammaMachine& m) { return m.RunAppend(append); }},
          {"delete",
           [](gamma::GammaMachine& m) {
             return m.RunDelete({"A", wis::kUnique1, 77});
           }},
          {"modify",
           [](gamma::GammaMachine& m) {
             return m.RunModify({"A", wis::kUnique1, 77, wis::kTen, 3});
           }},
      };
  for (const auto& [name, write] : writes) {
    SCOPED_TRACE(name);
    const RunOutput run = ExpectRunsIdentical(config, write);
    EXPECT_EQ(run.result.result_tuples, 1u);
    std::vector<bool> wrote(run.result.metrics.phases[0].per_node.size());
    for (const sim::PhaseMetrics& phase : run.result.metrics.phases) {
      for (size_t i = 0; i < phase.per_node.size(); ++i) {
        if (phase.per_node[i].pages_written > 0) wrote[i] = true;
      }
    }
    // Among the disk nodes, the primary's and its backup's (the recovery
    // server writes log pages too).
    EXPECT_EQ(std::count(wrote.begin(), wrote.begin() + config.num_disk_nodes,
                         true),
              2);
  }
}

// Injected transient faults, dropped packets, and recovery logging: the
// deterministic fault schedule and the per-query log statistics must not
// depend on the host-pool width.
TEST(ParallelExecutorTest, FaultScheduleAndLogStatsIdentical) {
  gamma::GammaConfig config = ParallelConfig();
  config.enable_logging = true;
  config.fault.transient_read_prob = 0.02;
  config.fault.drop_packet_prob = 0.05;

  ExpectRunsIdentical(config, [](gamma::GammaMachine& m) {
    gamma::SelectQuery query;
    query.relation = "A";
    query.predicate = Predicate::Range(wis::kUnique1, 0, 999);
    query.store_result = true;
    return m.RunSelect(query);
  });
  ExpectRunsIdentical(config, [](gamma::GammaMachine& m) {
    gamma::JoinQuery join;
    join.outer = "A";
    join.inner = "B";
    join.outer_attr = wis::kUnique1;
    join.inner_attr = wis::kUnique1;
    join.mode = gamma::JoinMode::kLocal;
    return m.RunJoin(join);
  });
}

// A node death mid-join: the abort point, the failover retry, and the
// backup-served answer all replay identically at any thread count.
TEST(ParallelExecutorTest, FailoverIdenticalAcrossThreadCounts) {
  ExpectRunsIdentical(ParallelConfig(), [](gamma::GammaMachine& m) {
    m.KillNodeAfterOps(1, 10);
    gamma::JoinQuery join;
    join.outer = "A";
    join.inner = "B";
    join.outer_attr = wis::kUnique1;
    join.inner_attr = wis::kUnique1;
    join.mode = gamma::JoinMode::kLocal;
    return m.RunJoin(join);
  });
}

// The discrete-event concurrent workload: reads replayed from profiles,
// update transactions executed for real at commit, deadlocks and retries
// included. The whole report — simulated clock, commit order, per-class
// percentiles — and the mutated relation must not depend on the host-pool
// width.
struct MixOutput {
  sim::WorkloadReport report;
  std::vector<std::vector<uint8_t>> final_a;
};

MixOutput RunConcurrentMix() {
  gamma::GammaMachine machine(ParallelConfig());
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

  gamma::SelectQuery select;
  select.relation = "A";
  select.predicate = Predicate::Range(wis::kUnique1, 0, 199);
  const auto select_profile = sim::ProfileStatement(machine, select);
  GAMMA_CHECK(select_profile.ok());
  gamma::JoinQuery join;
  join.outer = "A";
  join.inner = "B";
  join.outer_attr = wis::kUnique2;
  join.inner_attr = wis::kUnique2;
  join.mode = gamma::JoinMode::kRemote;
  const auto join_profile = sim::ProfileStatement(machine, join);
  GAMMA_CHECK(join_profile.ok());

  sim::TxnSpec select_spec;
  select_spec.label = "select";
  select_spec.statements = {select};
  select_spec.profiles = {*select_profile};
  sim::TxnSpec join_spec;
  join_spec.label = "join";
  join_spec.statements = {join};
  join_spec.profiles = {*join_profile};

  auto modify = [](const std::string& rel, int32_t from, int32_t to) {
    gamma::ModifyQuery q;
    q.relation = rel;
    q.locate_attr = wis::kUnique2;  // non-partitioning: X on every fragment
    q.locate_key = from;
    q.target_attr = wis::kUnique2;
    q.new_value = to;
    return q;
  };
  sim::TxnSpec upd_ab;
  upd_ab.label = "upd_ab";
  upd_ab.statements = {modify("A", 10, 2010), modify("B", 10, 2010)};
  upd_ab.execute_real = true;
  sim::TxnSpec upd_ba;
  upd_ba.label = "upd_ba";
  upd_ba.statements = {modify("B", 20, 2020), modify("A", 20, 2020)};
  upd_ba.execute_real = true;

  sim::WorkloadOptions options;
  options.seed = 7;
  sim::WorkloadDriver driver(&machine, options);
  sim::ClientSpec reader;
  reader.script = {select_spec, join_spec};
  reader.loops = 2;
  EXPECT_TRUE(driver.AddClient(reader).ok());
  sim::ClientSpec reader2;
  reader2.script = {join_spec, select_spec};
  reader2.loops = 2;
  EXPECT_TRUE(driver.AddClient(reader2).ok());
  sim::ClientSpec writer_ab;
  writer_ab.script = {upd_ab};
  writer_ab.loops = 3;
  EXPECT_TRUE(driver.AddClient(writer_ab).ok());
  sim::ClientSpec writer_ba;
  writer_ba.script = {upd_ba};
  writer_ba.loops = 3;
  EXPECT_TRUE(driver.AddClient(writer_ba).ok());

  MixOutput out;
  auto report = driver.Run();
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  if (report.ok()) out.report = *report;
  out.final_a = *machine.ReadRelation("A");
  return out;
}

TEST(ParallelExecutorTest, ConcurrentMixIdenticalAcrossThreadCounts) {
  const MixOutput one = WithThreads(1, [] { return RunConcurrentMix(); });
  const MixOutput many =
      WithThreads(kManyThreads, [] { return RunConcurrentMix(); });

  EXPECT_EQ(one.report.end_sec, many.report.end_sec);
  EXPECT_EQ(one.report.committed, many.report.committed);
  EXPECT_EQ(one.report.deadlocks, many.report.deadlocks);
  EXPECT_EQ(one.report.aborted_retries, many.report.aborted_retries);
  EXPECT_EQ(one.report.lock_acquisitions, many.report.lock_acquisitions);
  EXPECT_EQ(one.report.lock_waits, many.report.lock_waits);
  EXPECT_EQ(one.report.lock_wait_sec, many.report.lock_wait_sec);
  EXPECT_EQ(one.report.bottleneck, many.report.bottleneck);
  EXPECT_EQ(one.report.bottleneck_utilization,
            many.report.bottleneck_utilization);
  ASSERT_EQ(one.report.classes.size(), many.report.classes.size());
  for (size_t i = 0; i < one.report.classes.size(); ++i) {
    const sim::ClassReport& ca = one.report.classes[i];
    const sim::ClassReport& cb = many.report.classes[i];
    EXPECT_EQ(ca.label, cb.label);
    EXPECT_EQ(ca.committed, cb.committed);
    EXPECT_EQ(ca.measured, cb.measured);
    EXPECT_EQ(ca.throughput_per_sec, cb.throughput_per_sec);
    EXPECT_EQ(ca.mean_response_sec, cb.mean_response_sec);
    EXPECT_EQ(ca.p50_response_sec, cb.p50_response_sec);
    EXPECT_EQ(ca.p95_response_sec, cb.p95_response_sec);
  }
  ASSERT_EQ(one.report.commit_log.size(), many.report.commit_log.size());
  for (size_t i = 0; i < one.report.commit_log.size(); ++i) {
    EXPECT_EQ(one.report.commit_log[i].client,
              many.report.commit_log[i].client);
    EXPECT_EQ(one.report.commit_log[i].script_pos,
              many.report.commit_log[i].script_pos);
    EXPECT_EQ(one.report.commit_log[i].label, many.report.commit_log[i].label);
  }
  // All four transaction classes ran to completion.
  EXPECT_EQ(one.report.committed, 2u * 2 + 2u * 2 + 3 + 3);
  EXPECT_EQ(one.final_a, many.final_a);
}

}  // namespace
}  // namespace gammadb
