// Integration tests for the Gamma machine: every query type checked for
// correct answers against reference oracles, plus the cost-model behaviours
// the paper's analysis depends on.

#include <algorithm>
#include <cstring>
#include <iterator>
#include <set>

#include <gtest/gtest.h>

#include "gamma/machine.h"
#include "test_util.h"
#include "wisconsin/wisconsin.h"

namespace gammadb::gamma {
namespace {

using catalog::PartitionSpec;
using exec::Predicate;
using gammadb::testing::MiniSchema;
using gammadb::testing::ReferenceJoinCount;
using gammadb::testing::ValuesOf;
namespace wis = gammadb::wisconsin;

GammaConfig SmallConfig() {
  GammaConfig config;
  config.num_disk_nodes = 4;
  config.num_diskless_nodes = 4;
  config.join_memory_total = 4 << 20;
  return config;
}

class GammaMachineTest : public ::testing::Test {
 protected:
  GammaMachineTest() : machine_(SmallConfig()) {
    tuples_ = wis::GenerateWisconsin(2000, 7);
    EXPECT_TRUE(machine_
                    .CreateRelation("A", wis::WisconsinSchema(),
                                    PartitionSpec::Hashed(wis::kUnique1))
                    .ok());
    EXPECT_TRUE(machine_.LoadTuples("A", tuples_).ok());
  }

  GammaMachine machine_;
  std::vector<std::vector<uint8_t>> tuples_;
};

TEST_F(GammaMachineTest, LoadDistributesAllTuples) {
  EXPECT_EQ(*machine_.CountTuples("A"), 2000u);
  // Hash declustering is roughly balanced.
  for (int node = 0; node < 4; ++node) {
    const auto& meta = **machine_.catalog().Get("A");
    const uint64_t frag =
        machine_.node(node)
            .file(meta.per_node_file[static_cast<size_t>(node)])
            .num_tuples();
    EXPECT_GT(frag, 350u);
    EXPECT_LT(frag, 650u);
  }
}

// A clustered build over a ten-valued attribute: each node's rewritten
// fragment holds its old fragment stably sorted by the key (equal keys in
// their old scan order), and the index finds every tuple of a key.
TEST_F(GammaMachineTest, ClusteredBuildOverDuplicateKeysIsStable) {
  const auto fragments = [&] {
    const auto& meta = **machine_.catalog().Get("A");
    std::vector<std::vector<std::vector<uint8_t>>> out;
    for (int node = 0; node < 4; ++node) {
      auto& rows = out.emplace_back();
      EXPECT_TRUE(machine_.node(node)
                      .file(meta.per_node_file[static_cast<size_t>(node)])
                      .Scan([&](storage::Rid, std::span<const uint8_t> t) {
                        rows.emplace_back(t.begin(), t.end());
                        return true;
                      })
                      .ok());
    }
    return out;
  };
  const auto ten_of = [](const std::vector<uint8_t>& t) {
    return catalog::TupleView(&wis::WisconsinSchema(), t).GetInt(wis::kTen);
  };
  auto expected = fragments();
  for (auto& rows : expected) {
    std::stable_sort(rows.begin(), rows.end(),
                     [&](const auto& a, const auto& b) {
                       return ten_of(a) < ten_of(b);
                     });
  }
  ASSERT_TRUE(machine_.BuildIndex("A", wis::kTen, /*clustered=*/true).ok());
  EXPECT_EQ(fragments(), expected);

  SelectQuery query;
  query.relation = "A";
  query.predicate = Predicate::Eq(wis::kTen, 3);
  query.access = AccessPath::kClusteredIndex;
  query.store_result = false;
  const auto result = machine_.RunSelect(query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->result_tuples, 200u);
}

// Keys that repeat and go below zero, with every byte of the key varying
// across the relation: the clustered build leaves each fragment stably
// sorted by key, and a non-clustered range over the duplicates returns rids
// in (key, rid) order.
TEST(GammaIndexBuildTest, NegativeAndDuplicateKeysKeepScanOrder) {
  const catalog::Schema schema({{"key", catalog::AttrType::kInt32, 4},
                                {"seq", catalog::AttrType::kInt32, 4}});
  const int32_t kKeys[] = {-3,     7,      -3,        INT32_MIN, 0,
                           -70000, 7,      INT32_MAX, -1,        70000,
                           -1,     0,      -16777217, 16777216,  -3};
  std::vector<std::vector<uint8_t>> tuples;
  for (int32_t seq = 0; seq < 600; ++seq) {
    std::vector<uint8_t>& t = tuples.emplace_back(8);
    std::memcpy(t.data(), &kKeys[seq % std::size(kKeys)], 4);
    std::memcpy(t.data() + 4, &seq, 4);
  }
  const auto key_of = [&](std::span<const uint8_t> t) {
    return catalog::TupleView(&schema, t).GetInt(0);
  };
  struct Row {
    storage::Rid rid;
    std::vector<uint8_t> bytes;
  };
  for (const bool clustered : {true, false}) {
    GammaMachine machine(SmallConfig());
    ASSERT_TRUE(
        machine.CreateRelation("R", schema, PartitionSpec::RoundRobin()).ok());
    ASSERT_TRUE(machine.LoadTuples("R", tuples).ok());
    const auto fragment = [&](int node) {
      const auto& meta = **machine.catalog().Get("R");
      std::vector<Row> rows;
      EXPECT_TRUE(machine.node(node)
                      .file(meta.per_node_file[static_cast<size_t>(node)])
                      .Scan([&](storage::Rid rid, std::span<const uint8_t> t) {
                        rows.push_back(Row{rid, {t.begin(), t.end()}});
                        return true;
                      })
                      .ok());
      return rows;
    };
    std::vector<std::vector<Row>> before;
    for (int node = 0; node < 4; ++node) before.push_back(fragment(node));
    ASSERT_TRUE(machine.BuildIndex("R", 0, clustered).ok());
    const auto& meta = **machine.catalog().Get("R");
    for (int node = 0; node < 4; ++node) {
      std::vector<Row> expected = before[static_cast<size_t>(node)];
      if (clustered) {
        std::stable_sort(expected.begin(), expected.end(),
                         [&](const Row& a, const Row& b) {
                           return key_of(a.bytes) < key_of(b.bytes);
                         });
        std::vector<std::vector<uint8_t>> want;
        std::vector<std::vector<uint8_t>> got;
        for (const Row& row : expected) want.push_back(row.bytes);
        for (const Row& row : fragment(node)) got.push_back(row.bytes);
        EXPECT_EQ(got, want) << "node " << node;
        continue;
      }
      // Rids of keys in [-3, 0], in (key, rid) order.
      std::vector<std::pair<int32_t, storage::Rid>> in_range;
      for (const Row& row : expected) {
        const int32_t key = key_of(row.bytes);
        if (key >= -3 && key <= 0) in_range.emplace_back(key, row.rid);
      }
      std::sort(in_range.begin(), in_range.end());
      std::vector<storage::Rid> want;
      for (const auto& entry : in_range) want.push_back(entry.second);
      const auto got =
          machine.node(node)
              .index(meta.indices[0].per_node_index[static_cast<size_t>(node)])
              .RangeLookup(-3, 0);
      ASSERT_TRUE(got.ok());
      EXPECT_GT(want.size(), 50u);
      EXPECT_TRUE(*got == want) << "node " << node;
    }
  }
}

TEST_F(GammaMachineTest, FileScanSelectionCorrect) {
  SelectQuery query;
  query.relation = "A";
  query.predicate = Predicate::Range(wis::kUnique2, 100, 299);
  query.access = AccessPath::kFileScan;
  const auto result = machine_.RunSelect(query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->result_tuples, 200u);
  EXPECT_GT(result->seconds(), 0.0);

  const auto stored = *machine_.ReadRelation(result->result_relation);
  EXPECT_EQ(ValuesOf(stored, wis::WisconsinSchema(), wis::kUnique2),
            gammadb::testing::ReferenceSelect(tuples_, wis::WisconsinSchema(),
                                              wis::kUnique2, 100, 299,
                                              wis::kUnique2));
}

TEST_F(GammaMachineTest, SelectionResultDeclusteredRoundRobin) {
  SelectQuery query;
  query.relation = "A";
  query.predicate = Predicate::Range(wis::kUnique1, 0, 399);
  const auto result = machine_.RunSelect(query);
  ASSERT_TRUE(result.ok());
  const auto& meta = **machine_.catalog().Get(result->result_relation);
  for (int node = 0; node < 4; ++node) {
    const uint64_t frag =
        machine_.node(node)
            .file(meta.per_node_file[static_cast<size_t>(node)])
            .num_tuples();
    EXPECT_NEAR(static_cast<double>(frag), 100.0, 35.0);
  }
}

TEST_F(GammaMachineTest, IndexedSelectionsAgreeWithScan) {
  ASSERT_TRUE(machine_.BuildIndex("A", wis::kUnique1, /*clustered=*/true).ok());
  ASSERT_TRUE(
      machine_.BuildIndex("A", wis::kUnique2, /*clustered=*/false).ok());

  for (const AccessPath path :
       {AccessPath::kFileScan, AccessPath::kClusteredIndex}) {
    SelectQuery query;
    query.relation = "A";
    query.predicate = Predicate::Range(wis::kUnique1, 500, 519);
    query.access = path;
    query.store_result = false;
    const auto result = machine_.RunSelect(query);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->result_tuples, 20u) << static_cast<int>(path);
    EXPECT_EQ(ValuesOf(result->returned, wis::WisconsinSchema(),
                       wis::kUnique1),
              gammadb::testing::ReferenceSelect(
                  tuples_, wis::WisconsinSchema(), wis::kUnique1, 500, 519,
                  wis::kUnique1));
  }

  SelectQuery nc;
  nc.relation = "A";
  nc.predicate = Predicate::Range(wis::kUnique2, 500, 519);
  nc.access = AccessPath::kNonClusteredIndex;
  nc.store_result = false;
  const auto result = machine_.RunSelect(nc);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->result_tuples, 20u);
}

TEST_F(GammaMachineTest, AutoAccessPathMatchesPaperOptimizer) {
  ASSERT_TRUE(machine_.BuildIndex("A", wis::kUnique1, true).ok());
  ASSERT_TRUE(machine_.BuildIndex("A", wis::kUnique2, false).ok());

  // 1% selection on the non-clustered attribute: index is used (few random
  // fetches beat the scan), so far fewer pages are read than a full scan.
  SelectQuery one_pct;
  one_pct.relation = "A";
  one_pct.predicate = Predicate::Range(wis::kUnique2, 0, 19);
  one_pct.store_result = false;
  const auto one = machine_.RunSelect(one_pct);
  ASSERT_TRUE(one.ok());

  SelectQuery ten_pct = one_pct;
  ten_pct.predicate = Predicate::Range(wis::kUnique2, 0, 199);
  const auto ten = machine_.RunSelect(ten_pct);
  ASSERT_TRUE(ten.ok());

  // The 10% query fell back to a scan and reads every data page; the 1%
  // query via the index reads ~20 data pages plus index pages.
  EXPECT_LT(one->metrics.Totals().pages_read,
            ten->metrics.Totals().pages_read / 3);
  EXPECT_EQ(one->result_tuples, 20u);
  EXPECT_EQ(ten->result_tuples, 200u);
}

TEST_F(GammaMachineTest, SingleTupleSelectGoesToOneNode) {
  ASSERT_TRUE(machine_.BuildIndex("A", wis::kUnique1, true).ok());
  SelectQuery query;
  query.relation = "A";
  query.predicate = Predicate::Eq(wis::kUnique1, 777);
  const auto result = machine_.RunSelect(query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->result_tuples, 1u);
  // Exactly one select + one store operator were scheduled (8 msgs).
  EXPECT_EQ(result->metrics.scheduling_msgs, 8u);
  // Cheap: a couple of descent I/Os, not a scan.
  EXPECT_LT(result->metrics.Totals().pages_read, 10u);
}

TEST_F(GammaMachineTest, JoinAllModesCorrect) {
  const auto bprime = wis::GenerateWisconsin(200, 8);
  ASSERT_TRUE(machine_
                  .CreateRelation("Bprime", wis::WisconsinSchema(),
                                  PartitionSpec::Hashed(wis::kUnique1))
                  .ok());
  ASSERT_TRUE(machine_.LoadTuples("Bprime", bprime).ok());
  const uint64_t expected = ReferenceJoinCount(
      bprime, wis::WisconsinSchema(), wis::kUnique2, tuples_,
      wis::WisconsinSchema(), wis::kUnique2);
  ASSERT_EQ(expected, 200u);  // Bprime unique2 values are a subset of A's

  for (const JoinMode mode :
       {JoinMode::kLocal, JoinMode::kRemote, JoinMode::kAllnodes}) {
    JoinQuery query;
    query.outer = "A";
    query.inner = "Bprime";
    query.outer_attr = wis::kUnique2;
    query.inner_attr = wis::kUnique2;
    query.mode = mode;
    const auto result = machine_.RunJoin(query);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->result_tuples, expected) << static_cast<int>(mode);
    EXPECT_EQ(result->metrics.overflow_rounds, 0u);
    // Result relation holds concatenated inner++outer tuples.
    const auto stored = *machine_.ReadRelation(result->result_relation);
    ASSERT_EQ(stored.size(), expected);
    EXPECT_EQ(stored[0].size(), 2 * wis::WisconsinSchema().tuple_size());
  }
}

TEST_F(GammaMachineTest, JoinWithSelectionsPushedDown) {
  const auto b = wis::GenerateWisconsin(2000, 7);  // copy of A
  ASSERT_TRUE(machine_
                  .CreateRelation("B", wis::WisconsinSchema(),
                                  PartitionSpec::Hashed(wis::kUnique1))
                  .ok());
  ASSERT_TRUE(machine_.LoadTuples("B", b).ok());

  // joinAselB shape: restrict both to 10% on unique2, join on unique2.
  JoinQuery query;
  query.outer = "A";
  query.inner = "B";
  query.outer_attr = wis::kUnique2;
  query.inner_attr = wis::kUnique2;
  query.outer_pred = Predicate::Range(wis::kUnique2, 0, 199);
  query.inner_pred = Predicate::Range(wis::kUnique2, 0, 199);
  const auto result = machine_.RunJoin(query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->result_tuples, 200u);  // copies match 1:1
}

TEST_F(GammaMachineTest, JoinOverflowStillCorrect) {
  GammaConfig config = SmallConfig();
  config.join_memory_total = 64 * 1024;  // starves the hash tables
  GammaMachine machine(config);
  ASSERT_TRUE(machine
                  .CreateRelation("A", wis::WisconsinSchema(),
                                  PartitionSpec::Hashed(wis::kUnique1))
                  .ok());
  ASSERT_TRUE(machine.LoadTuples("A", tuples_).ok());
  const auto bprime = wis::GenerateWisconsin(1000, 8);
  ASSERT_TRUE(machine
                  .CreateRelation("Bprime", wis::WisconsinSchema(),
                                  PartitionSpec::Hashed(wis::kUnique1))
                  .ok());
  ASSERT_TRUE(machine.LoadTuples("Bprime", bprime).ok());

  JoinQuery query;
  query.outer = "A";
  query.inner = "Bprime";
  query.outer_attr = wis::kUnique2;
  query.inner_attr = wis::kUnique2;
  const auto result = machine.RunJoin(query);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->metrics.overflow_rounds, 0u);
  EXPECT_EQ(result->result_tuples, 1000u);

  // With ample memory the same join runs with no overflow and faster.
  config.join_memory_total = 16 << 20;
  GammaMachine roomy(config);
  ASSERT_TRUE(roomy
                  .CreateRelation("A", wis::WisconsinSchema(),
                                  PartitionSpec::Hashed(wis::kUnique1))
                  .ok());
  ASSERT_TRUE(roomy.LoadTuples("A", tuples_).ok());
  ASSERT_TRUE(roomy
                  .CreateRelation("Bprime", wis::WisconsinSchema(),
                                  PartitionSpec::Hashed(wis::kUnique1))
                  .ok());
  ASSERT_TRUE(roomy.LoadTuples("Bprime", bprime).ok());
  const auto fast = roomy.RunJoin(query);
  ASSERT_TRUE(fast.ok());
  EXPECT_EQ(fast->metrics.overflow_rounds, 0u);
  EXPECT_EQ(fast->result_tuples, 1000u);
  EXPECT_LT(fast->seconds(), result->seconds());
}

TEST_F(GammaMachineTest, DuplicateSkewJoinConvergesViaForcedRound) {
  // Regression: joining on an attribute with only a handful of distinct
  // values while the hash tables are starved used to ping-pong forever —
  // no residency split can shrink a single key group that exceeds the
  // table. The orchestrator must detect the stalled round and force one.
  GammaConfig config = SmallConfig();
  config.join_memory_total = 16 * 1024;  // far below any 'ten' key group
  GammaMachine machine(config);
  ASSERT_TRUE(machine
                  .CreateRelation("A", wis::WisconsinSchema(),
                                  PartitionSpec::Hashed(wis::kUnique1))
                  .ok());
  ASSERT_TRUE(machine.LoadTuples("A", tuples_).ok());
  const auto small = wis::GenerateWisconsin(400, 8);
  ASSERT_TRUE(machine
                  .CreateRelation("S", wis::WisconsinSchema(),
                                  PartitionSpec::Hashed(wis::kUnique1))
                  .ok());
  ASSERT_TRUE(machine.LoadTuples("S", small).ok());

  JoinQuery query;
  query.outer = "A";
  query.inner = "S";
  query.outer_attr = wis::kTen;  // 10 distinct values
  query.inner_attr = wis::kTen;
  const auto result = machine.RunJoin(query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->result_tuples,
            ReferenceJoinCount(small, wis::WisconsinSchema(), wis::kTen,
                               tuples_, wis::WisconsinSchema(), wis::kTen));
  EXPECT_GT(result->metrics.overflow_rounds, 0u);
}

// Starved hash tables on a non-partitioning join attribute: each round
// spools only slightly fewer tuples than the one before, so the Simple join
// needs far more than 64 overflow rounds. It must still finish with the
// whole answer: the forced-round rule, not a round cap, bounds the loop.
TEST_F(GammaMachineTest, OverflowRoundsEndWithoutACap) {
  GammaConfig config;
  config.join_memory_total = 64 * 1024;
  GammaMachine machine(config);
  const auto a = wis::GenerateWisconsin(20000, 7);
  const auto b = wis::GenerateWisconsin(20000, 8);
  for (const auto& [name, tuples] : {std::pair{"A", &a}, std::pair{"B", &b}}) {
    ASSERT_TRUE(machine
                    .CreateRelation(name, wis::WisconsinSchema(),
                                    PartitionSpec::Hashed(wis::kUnique1))
                    .ok());
    ASSERT_TRUE(machine.LoadTuples(name, *tuples).ok());
  }
  JoinQuery query;
  query.outer = "A";
  query.inner = "B";
  query.outer_attr = wis::kUnique2;
  query.inner_attr = wis::kUnique2;
  query.store_result = false;
  const auto result = machine.RunJoin(query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->result_tuples,
            ReferenceJoinCount(b, wis::WisconsinSchema(), wis::kUnique2, a,
                               wis::WisconsinSchema(), wis::kUnique2));
  EXPECT_GT(result->metrics.overflow_rounds, 64u);
}

TEST_F(GammaMachineTest, HybridJoinMatchesSimple) {
  const auto bprime = wis::GenerateWisconsin(500, 8);
  ASSERT_TRUE(machine_
                  .CreateRelation("Bprime", wis::WisconsinSchema(),
                                  PartitionSpec::Hashed(wis::kUnique1))
                  .ok());
  ASSERT_TRUE(machine_.LoadTuples("Bprime", bprime).ok());
  JoinQuery query;
  query.outer = "A";
  query.inner = "Bprime";
  query.outer_attr = wis::kUnique2;
  query.inner_attr = wis::kUnique2;
  query.algorithm = gamma::JoinAlgorithm::kHybridHash;
  const auto result = machine_.RunJoin(query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->result_tuples, 500u);
}

TEST_F(GammaMachineTest, BitFilterPreservesAnswerAndCutsTraffic) {
  const auto bprime = wis::GenerateWisconsin(100, 8);
  ASSERT_TRUE(machine_
                  .CreateRelation("Bprime", wis::WisconsinSchema(),
                                  PartitionSpec::Hashed(wis::kUnique1))
                  .ok());
  ASSERT_TRUE(machine_.LoadTuples("Bprime", bprime).ok());
  JoinQuery query;
  query.outer = "A";
  query.inner = "Bprime";
  query.outer_attr = wis::kUnique2;
  query.inner_attr = wis::kUnique2;
  const auto plain = machine_.RunJoin(query);
  ASSERT_TRUE(plain.ok());
  query.use_bit_filter = true;
  const auto filtered = machine_.RunJoin(query);
  ASSERT_TRUE(filtered.ok());
  EXPECT_EQ(filtered->result_tuples, plain->result_tuples);
  const auto plain_bytes = plain->metrics.Totals().bytes_sent;
  const auto filtered_bytes = filtered->metrics.Totals().bytes_sent;
  EXPECT_LT(filtered_bytes, plain_bytes / 2);
}

TEST_F(GammaMachineTest, ScalarAndGroupedAggregates) {
  AggregateQuery scalar;
  scalar.relation = "A";
  scalar.value_attr = wis::kUnique1;
  scalar.func = exec::AggFunc::kMax;
  const auto max_result = machine_.RunAggregate(scalar);
  ASSERT_TRUE(max_result.ok());
  ASSERT_EQ(max_result->returned.size(), 1u);
  const catalog::Schema schema = exec::GroupedAggregator::ResultSchema();
  EXPECT_EQ(catalog::TupleView(&schema, max_result->returned[0]).GetInt(1),
            1999);

  AggregateQuery grouped;
  grouped.relation = "A";
  grouped.group_attr = wis::kTen;
  grouped.value_attr = wis::kUnique1;
  grouped.func = exec::AggFunc::kCount;
  const auto count_result = machine_.RunAggregate(grouped);
  ASSERT_TRUE(count_result.ok());
  EXPECT_EQ(count_result->returned.size(), 10u);
  int64_t total = 0;
  for (const auto& row : count_result->returned) {
    total += catalog::TupleView(&schema, row).GetInt(1);
  }
  EXPECT_EQ(total, 2000);
}

TEST_F(GammaMachineTest, AggregateWithPredicate) {
  AggregateQuery query;
  query.relation = "A";
  query.value_attr = wis::kUnique1;
  query.func = exec::AggFunc::kCount;
  query.predicate = Predicate::Range(wis::kUnique1, 0, 99);
  const auto result = machine_.RunAggregate(query);
  ASSERT_TRUE(result.ok());
  const catalog::Schema schema = exec::GroupedAggregator::ResultSchema();
  EXPECT_EQ(catalog::TupleView(&schema, result->returned[0]).GetInt(1), 100);
}

}  // namespace
}  // namespace gammadb::gamma
