// Tests for skew-aware split-table routing: the SplitTableBuilder's LPT
// bucket assignment and heavy-hitter pinning, the frequency-sketch skew
// predictor and its planner threshold, and the machine-level properties —
// identical answers under every routing policy, bit-identical runs across
// host-pool widths, failover mid-join, and bucket-map aggregate merges.

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "exec/skew.h"
#include "gamma/machine.h"
#include "opt/planner.h"
#include "opt/statistics.h"
#include "sim/host_pool.h"
#include "test_util.h"
#include "wisconsin/wisconsin.h"

namespace gammadb {
namespace {

namespace wis = gammadb::wisconsin;
using exec::SkewAssignment;
using exec::SplitTableBuilder;

std::vector<std::vector<uint8_t>> Sorted(
    std::vector<std::vector<uint8_t>> tuples) {
  std::sort(tuples.begin(), tuples.end());
  return tuples;
}

template <typename Fn>
auto WithThreads(int threads, Fn&& body) {
  auto& pool = sim::HostPool::Instance();
  const int prev = pool.num_threads();
  pool.set_num_threads(threads);
  auto result = body();
  pool.set_num_threads(prev);
  return result;
}

// --- SplitTableBuilder ---

TEST(SplitTableBuilderTest, MapCoversAllBucketsWithinRange) {
  SplitTableBuilder builder(exec::ChooseBucketCount(3), 0x1234);
  for (int32_t key = 0; key < 50; ++key) builder.AddSampleKey(key, 0);
  const SkewAssignment out = builder.Build({0, 1, 2});
  ASSERT_EQ(out.bucket_map.size(), builder.num_buckets());
  for (const int32_t dest : out.bucket_map) {
    EXPECT_GE(dest, 0);
    EXPECT_LT(dest, 3);
  }
  uint64_t assigned = 0;
  for (const uint64_t w : out.dest_weight) assigned += w;
  EXPECT_EQ(assigned, out.total_weight);
  EXPECT_EQ(out.total_weight, 50u);
}

TEST(SplitTableBuilderTest, HeavyHitterPinnedToProducingNode) {
  SplitTableBuilder builder(256, 0x99);
  // Key 7 carries well over half a fair share, mostly produced at node 2
  // (which is a destination): its bucket must stay there.
  for (int i = 0; i < 90; ++i) builder.AddSampleKey(7, 2);
  for (int i = 0; i < 10; ++i) builder.AddSampleKey(7, 1);
  for (int32_t key = 100; key < 200; ++key) builder.AddSampleKey(key, 1);
  const SkewAssignment out = builder.Build({1, 2, 3, 4});
  ASSERT_EQ(out.heavy.size(), 1u);
  EXPECT_EQ(out.heavy[0].key, 7);
  EXPECT_EQ(out.heavy[0].home_node, 2);
  EXPECT_TRUE(out.heavy[0].pinned);
  EXPECT_EQ(out.heavy[0].dest_index, 1);  // dest_nodes[1] == node 2
  EXPECT_EQ(out.bucket_map[out.heavy[0].bucket], 1);
}

TEST(SplitTableBuilderTest, HeavyHitterWithForeignHomeIsNotPinned) {
  SplitTableBuilder builder(256, 0x99);
  for (int i = 0; i < 90; ++i) builder.AddSampleKey(7, 0);  // not a dest
  for (int32_t key = 100; key < 200; ++key) builder.AddSampleKey(key, 1);
  const SkewAssignment out = builder.Build({1, 2, 3, 4});
  ASSERT_EQ(out.heavy.size(), 1u);
  EXPECT_FALSE(out.heavy[0].pinned);
  // Still assigned somewhere by LPT, and the map agrees.
  ASSERT_GE(out.heavy[0].dest_index, 0);
  EXPECT_EQ(out.bucket_map[out.heavy[0].bucket], out.heavy[0].dest_index);
}

TEST(SplitTableBuilderTest, LptBalancesSeparableWeights) {
  // Four equally heavy keys over four destinations: a perfect split exists
  // (each key in its own bucket at 256 buckets), and LPT must find it.
  SplitTableBuilder builder(256, 0x42);
  for (int32_t key : {11, 22, 33, 44}) {
    for (int i = 0; i < 100; ++i) builder.AddSampleKey(key, 0);
  }
  const SkewAssignment out = builder.Build({4, 5, 6, 7});
  for (const uint64_t w : out.dest_weight) EXPECT_EQ(w, 100u);
  EXPECT_LT(out.predicted_imbalance, 1.1);
  // Plain hashing four keys onto four sites collides somewhere or not —
  // either way it cannot beat the explicit assignment.
  EXPECT_GE(out.hash_imbalance, 1.0);
}

TEST(SplitTableBuilderTest, SkewedSampleReadsAsHashImbalanced) {
  // One key with a 40% share: hash routing would land it whole on one of
  // the four sites (imbalance >= 1 + 0.4 * 3 over the sample), while the
  // bucket map isolates it.
  SplitTableBuilder builder(512, 0x7);
  for (int i = 0; i < 400; ++i) builder.AddSampleKey(1000, 3);
  for (int32_t key = 0; key < 600; ++key) builder.AddSampleKey(key, 1);
  const SkewAssignment out = builder.Build({8, 9, 10, 11});
  EXPECT_GT(out.hash_imbalance, 1.5);
  const uint64_t max_w =
      *std::max_element(out.dest_weight.begin(), out.dest_weight.end());
  // The heavy destination holds the heavy bucket and little else.
  EXPECT_LT(static_cast<double>(max_w), 0.45 * 1000.0);
}

TEST(SplitTableBuilderTest, BuildIsDeterministic) {
  auto make = [] {
    SplitTableBuilder builder(exec::ChooseBucketCount(4), 0xABC);
    for (int32_t key = 0; key < 300; ++key) {
      builder.AddSampleKey(key % 37, key % 5);
    }
    return builder.Build({0, 1, 2, 3});
  };
  const SkewAssignment a = make();
  const SkewAssignment b = make();
  EXPECT_EQ(a.bucket_map, b.bucket_map);
  EXPECT_EQ(a.dest_weight, b.dest_weight);
  EXPECT_EQ(a.hash_imbalance, b.hash_imbalance);
}

TEST(SplitTableBuilderTest, EmptySampleSpreadsBucketsEvenly) {
  SplitTableBuilder builder(256, 0x1);
  const SkewAssignment out = builder.Build({0, 1, 2});
  std::vector<int> per_dest(3, 0);
  for (const int32_t dest : out.bucket_map) {
    ASSERT_GE(dest, 0);
    ASSERT_LT(dest, 3);
    ++per_dest[static_cast<size_t>(dest)];
  }
  const auto [lo, hi] = std::minmax_element(per_dest.begin(), per_dest.end());
  EXPECT_LE(*hi - *lo, 1);
}

// --- Frequency sketch and the planner threshold ---

TEST(SkewPredictorTest, UniformAttributeStaysBelowThreshold) {
  opt::AttrStats attr;
  for (int32_t v = 0; v < 4000; ++v) attr.freq.Insert(v);
  attr.has_values = true;
  EXPECT_LT(opt::PredictHashImbalance(attr.freq, 8),
            opt::kSkewImbalanceThreshold);
}

TEST(SkewPredictorTest, HeavyValueCrossesThreshold) {
  opt::AttrStats attr;
  // 25% of the inserts are one value: predicted imbalance approaches
  // 1 + 0.25 * 7 = 2.75 over 8 sites, far past the 1.25 threshold.
  for (int32_t i = 0; i < 8000; ++i) {
    attr.freq.Insert(i % 4 == 0 ? 77 : i);
  }
  attr.has_values = true;
  EXPECT_GT(opt::PredictHashImbalance(attr.freq, 8),
            opt::kSkewImbalanceThreshold);
}

// --- Machine-level properties ---

gamma::GammaConfig SkewConfig() {
  gamma::GammaConfig config;
  config.num_disk_nodes = 4;
  config.num_diskless_nodes = 4;
  config.join_memory_total = 16 << 20;
  return config;
}

/// S: 3000 tuples with unique2 drawn Zipf(theta) over [0, 100); R: 400
/// tuples with unique2 folded uniformly onto the same domain, so the join
/// emits exactly 4 matches per S tuple.
std::unique_ptr<gamma::GammaMachine> MakeSkewLoaded(
    const gamma::GammaConfig& config, double theta) {
  auto machine = std::make_unique<gamma::GammaMachine>(config);
  const auto& schema = wis::WisconsinSchema();
  const auto spec = catalog::PartitionSpec::Hashed(wis::kUnique1);
  GAMMA_CHECK(machine->CreateRelation("S", schema, spec).ok());
  GAMMA_CHECK(machine
                  ->LoadTuples("S", wis::GenerateWisconsinZipf(
                                        3000, 21,
                                        wis::ZipfColumn{wis::kUnique2, theta,
                                                        100}))
                  .ok());
  GAMMA_CHECK(machine->CreateRelation("R", schema, spec).ok());
  // 4 R tuples per join value (unique2 of a 400-tuple Wisconsin relation
  // ranges over [0, 400): fold onto the 100-value domain).
  auto r = wis::GenerateWisconsin(400, 9);
  const uint32_t off = schema.offset(wis::kUnique2);
  for (uint32_t i = 0; i < r.size(); ++i) {
    const int32_t folded =
        catalog::TupleView(&schema, r[i]).GetInt(wis::kUnique2) % 100;
    std::memcpy(r[i].data() + off, &folded, sizeof(folded));
  }
  GAMMA_CHECK(machine->LoadTuples("R", r).ok());
  return machine;
}

gamma::JoinQuery SkewJoin(gamma::SplitRouting routing) {
  gamma::JoinQuery join;
  join.outer = "S";
  join.inner = "R";
  join.outer_attr = wis::kUnique2;
  join.inner_attr = wis::kUnique2;
  join.mode = gamma::JoinMode::kRemote;
  join.algorithm = gamma::JoinAlgorithm::kHybridHash;
  join.routing = routing;
  return join;
}

bool RanSkewSample(const exec::QueryResult& result) {
  for (const auto& phase : result.metrics.phases) {
    if (phase.name == "skew_sample") return true;
  }
  return false;
}

TEST(SkewJoinTest, AnswersIdenticalAcrossRoutingModes) {
  std::vector<std::vector<uint8_t>> reference;
  for (const auto routing :
       {gamma::SplitRouting::kHash, gamma::SplitRouting::kBucketMap,
        gamma::SplitRouting::kAuto}) {
    auto machine = MakeSkewLoaded(SkewConfig(), 1.0);
    const auto result = machine->RunJoin(SkewJoin(routing));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->result_tuples, 3000u * 4u);
    EXPECT_EQ(RanSkewSample(*result),
              routing != gamma::SplitRouting::kHash);  // theta=1 is skewed
    auto stored = Sorted(*machine->ReadRelation(result->result_relation));
    if (reference.empty()) {
      reference = std::move(stored);
    } else {
      EXPECT_EQ(stored, reference);
    }
  }
}

TEST(SkewJoinTest, AutoRoutingStaysOnHashForUniformKeys) {
  auto machine = MakeSkewLoaded(SkewConfig(), 0.0);
  const auto result =
      machine->RunJoin(SkewJoin(gamma::SplitRouting::kAuto));
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(RanSkewSample(*result));
}

// The planner and the executing machine share one skew predictor: the
// routing the planner picks for a kAuto join is the one the machine runs.
TEST(SkewJoinTest, PlannerRoutingMatchesExecutedAutoRouting) {
  for (const double theta : {0.0, 1.0}) {
    SCOPED_TRACE(theta);
    auto machine = MakeSkewLoaded(SkewConfig(), theta);
    const opt::Planner planner(*machine);
    const auto planned = planner.PlanJoin(SkewJoin(gamma::SplitRouting::kAuto));
    ASSERT_TRUE(planned.ok()) << planned.status().ToString();
    gamma::JoinQuery query = planned->query;
    query.routing = gamma::SplitRouting::kAuto;
    const auto result = machine->RunJoin(query);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(planned->query.routing == gamma::SplitRouting::kBucketMap,
              RanSkewSample(*result));
    EXPECT_EQ(RanSkewSample(*result), theta > 0);
  }
}

TEST(SkewJoinTest, BucketMapRunIsBitIdenticalAcrossHostThreads) {
  auto run = [] {
    auto machine = MakeSkewLoaded(SkewConfig(), 1.0);
    const auto result =
        machine->RunJoin(SkewJoin(gamma::SplitRouting::kBucketMap));
    GAMMA_CHECK(result.ok());
    return std::make_pair(
        result->seconds(),
        Sorted(*machine->ReadRelation(result->result_relation)));
  };
  const auto seq = WithThreads(1, run);
  const auto par = WithThreads(4, run);
  EXPECT_EQ(seq.first, par.first);  // bitwise simulated seconds
  EXPECT_EQ(seq.second, par.second);
}

TEST(SkewJoinTest, NodeDeathMidJoinFailsOverWithBucketMap) {
  auto config = SkewConfig();
  config.num_diskless_nodes = 0;
  config.chained_declustering = true;
  auto clean = MakeSkewLoaded(config, 1.0);
  auto dying = MakeSkewLoaded(config, 1.0);
  auto join = SkewJoin(gamma::SplitRouting::kBucketMap);
  join.mode = gamma::JoinMode::kLocal;

  const auto expected = clean->RunJoin(join);
  ASSERT_TRUE(expected.ok());

  dying->KillNodeAfterOps(1, 10);
  const auto survived = dying->RunJoin(join);
  ASSERT_TRUE(survived.ok()) << survived.status().ToString();
  EXPECT_FALSE(dying->NodeAlive(1));
  EXPECT_EQ(survived->failover_retries, 1u);
  EXPECT_EQ(survived->result_tuples, expected->result_tuples);
  EXPECT_EQ(Sorted(*dying->ReadRelation(survived->result_relation)),
            Sorted(*clean->ReadRelation(expected->result_relation)));
}

TEST(SkewJoinTest, SkewedAggregateMergeMatchesBruteForce) {
  // Zipf group keys push the aggregate's merge redistribution over the
  // threshold; the exact-weight bucket map must not change any group count.
  auto machine = std::make_unique<gamma::GammaMachine>(SkewConfig());
  const auto& schema = wis::WisconsinSchema();
  const auto tuples = wis::GenerateWisconsinZipf(
      4000, 33, wis::ZipfColumn{wis::kUnique2, 1.0, 50});
  GAMMA_CHECK(machine
                  ->CreateRelation("S", schema,
                                   catalog::PartitionSpec::Hashed(
                                       wis::kUnique1))
                  .ok());
  GAMMA_CHECK(machine->LoadTuples("S", tuples).ok());

  std::map<int32_t, int64_t> truth;
  for (const auto& tuple : tuples) {
    ++truth[catalog::TupleView(&schema, tuple).GetInt(wis::kUnique2)];
  }

  gamma::AggregateQuery agg;
  agg.relation = "S";
  agg.group_attr = wis::kUnique2;
  agg.value_attr = wis::kUnique1;
  agg.func = exec::AggFunc::kCount;
  const auto result = machine->RunAggregate(agg);
  ASSERT_TRUE(result.ok());
  const catalog::Schema result_schema = exec::GroupedAggregator::ResultSchema();
  ASSERT_EQ(result->returned.size(), truth.size());
  for (const auto& row : result->returned) {
    const catalog::TupleView view(&result_schema, row);
    EXPECT_EQ(view.GetInt(1), truth.at(view.GetInt(0)))
        << "group " << view.GetInt(0);
  }
}

}  // namespace
}  // namespace gammadb
