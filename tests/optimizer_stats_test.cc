// Tests for the optimizer's attribute statistics and the catalog count
// beside them: bulk-load collection, incremental maintenance by append /
// delete / modify, rebuild after a failover, and stored query results,
// which are counted but carry no statistics.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gamma/machine.h"
#include "common/rng.h"
#include "opt/statistics.h"
#include "sim/host_pool.h"
#include "test_util.h"
#include "wisconsin/wisconsin.h"

namespace gammadb {
namespace {

namespace wis = gammadb::wisconsin;
using exec::Predicate;
using opt::RelationStats;

gamma::GammaConfig SmallConfig() {
  gamma::GammaConfig config;
  config.num_disk_nodes = 4;
  config.num_diskless_nodes = 4;
  return config;
}

class OptimizerStatsTest : public ::testing::Test {
 protected:
  OptimizerStatsTest() : machine_(SmallConfig()) {
    EXPECT_TRUE(machine_
                    .CreateRelation("A", wis::WisconsinSchema(),
                                    catalog::PartitionSpec::Hashed(
                                        wis::kUnique1))
                    .ok());
    EXPECT_TRUE(machine_.LoadTuples("A", wis::GenerateWisconsin(kN, 7)).ok());
  }

  const RelationStats& StatsOf(const std::string& rel) {
    const RelationStats* stats = machine_.stats().Find(rel);
    EXPECT_NE(stats, nullptr);
    return *stats;
  }

  uint64_t NumTuples(const std::string& rel) {
    return machine_.catalog().Get(rel).value()->num_tuples;
  }

  static constexpr uint32_t kN = 2000;
  gamma::GammaMachine machine_;
};

TEST_F(OptimizerStatsTest, BulkLoadCollectsExactCardinalityAndBounds) {
  const RelationStats& stats = StatsOf("A");
  EXPECT_EQ(NumTuples("A"), kN);

  // unique1/unique2 are permutations of 0..n-1: exact min/max.
  for (const int attr : {wis::kUnique1, wis::kUnique2}) {
    const opt::AttrStats* a = stats.Attr(attr);
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a->min, 0);
    EXPECT_EQ(a->max, static_cast<int32_t>(kN) - 1);
    // Linear counting over a well-sized bitmap: within 10% of the truth.
    EXPECT_NEAR(a->DistinctEstimate(kN), kN, kN * 0.10);
  }
}

TEST_F(OptimizerStatsTest, DistinctEstimateSeesLowCardinalityAttrs) {
  // "ten" has 10 distinct values regardless of relation size.
  const opt::AttrStats* ten = StatsOf("A").Attr(wis::kTen);
  ASSERT_NE(ten, nullptr);
  EXPECT_EQ(ten->min, 0);
  EXPECT_EQ(ten->max, 9);
  const double distinct = ten->DistinctEstimate(kN);
  EXPECT_GE(distinct, 8.0);
  EXPECT_LE(distinct, 13.0);
}

TEST_F(OptimizerStatsTest, AppendMaintainsCardinalityAndBounds) {
  catalog::TupleBuilder builder(&machine_.catalog().Get("A").value()->schema);
  builder.SetInt(wis::kUnique1, static_cast<int32_t>(kN) + 500);
  builder.SetInt(wis::kUnique2, -3);
  gamma::AppendQuery append;
  append.relation = "A";
  append.tuple.assign(builder.bytes().begin(), builder.bytes().end());
  ASSERT_TRUE(machine_.RunAppend(append).ok());

  const RelationStats& stats = StatsOf("A");
  EXPECT_EQ(NumTuples("A"), kN + 1);
  EXPECT_EQ(stats.Attr(wis::kUnique1)->max, static_cast<int32_t>(kN) + 500);
  EXPECT_EQ(stats.Attr(wis::kUnique2)->min, -3);
}

TEST_F(OptimizerStatsTest, DeleteDropsTheCount) {
  gamma::DeleteQuery del;
  del.relation = "A";
  del.key_attr = wis::kUnique1;
  del.key = 42;
  ASSERT_TRUE(machine_.RunDelete(del).ok());
  EXPECT_EQ(NumTuples("A"), kN - 1);
}

TEST_F(OptimizerStatsTest, ModifyWidensTheTargetAttribute) {
  gamma::ModifyQuery modify;
  modify.relation = "A";
  modify.locate_attr = wis::kUnique1;
  modify.locate_key = 7;
  modify.target_attr = wis::kUnique2;
  modify.new_value = 1 << 20;
  ASSERT_TRUE(machine_.RunModify(modify).ok());
  EXPECT_EQ(StatsOf("A").Attr(wis::kUnique2)->max, 1 << 20);
  // Count unchanged by an in-place modify.
  EXPECT_EQ(NumTuples("A"), kN);
}

TEST_F(OptimizerStatsTest, RecomputeTightensBoundsAfterDeletes) {
  // Delete the maximum-key tuples; incremental stats keep the loose max.
  for (int32_t key = static_cast<int32_t>(kN) - 1;
       key >= static_cast<int32_t>(kN) - 10; --key) {
    gamma::DeleteQuery del;
    del.relation = "A";
    del.key_attr = wis::kUnique1;
    del.key = key;
    ASSERT_TRUE(machine_.RunDelete(del).ok());
  }
  EXPECT_EQ(StatsOf("A").Attr(wis::kUnique1)->max,
            static_cast<int32_t>(kN) - 1);

  ASSERT_TRUE(machine_.RecomputeStatistics("A").ok());
  EXPECT_EQ(NumTuples("A"), kN - 10);
  EXPECT_EQ(StatsOf("A").Attr(wis::kUnique1)->max,
            static_cast<int32_t>(kN) - 11);
}

TEST_F(OptimizerStatsTest, StoredResultsAreCountedWithoutStatistics) {
  gamma::SelectQuery query;
  query.relation = "A";
  query.predicate = Predicate::Range(wis::kUnique1, 0, 99);
  query.result_name = "R";
  const auto result = machine_.RunSelect(query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(NumTuples("R"), 100u);
  EXPECT_EQ(machine_.stats().Find("R"), nullptr);
}

TEST(OptimizerStatsFailoverTest, RecomputeAfterFailoverMatchesSurvivors) {
  gamma::GammaConfig config;
  config.num_disk_nodes = 4;
  config.num_diskless_nodes = 0;
  config.chained_declustering = true;
  auto machine = std::make_unique<gamma::GammaMachine>(config);
  ASSERT_TRUE(machine
                  ->CreateRelation("A", wis::WisconsinSchema(),
                                   catalog::PartitionSpec::Hashed(
                                       wis::kUnique1))
                  .ok());
  ASSERT_TRUE(machine->LoadTuples("A", wis::GenerateWisconsin(1000, 3)).ok());

  // A node dies; reads fail over to the chained backup, so the relation's
  // contents are unchanged — a statistics rebuild over the serving copies
  // must reproduce the load-time numbers.
  machine->KillNode(1);
  ASSERT_TRUE(machine->RecomputeStatistics("A").ok());
  const opt::RelationStats* stats = machine->stats().Find("A");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ((*machine->catalog().Get("A"))->num_tuples, 1000u);
  EXPECT_EQ(stats->Attr(wis::kUnique1)->min, 0);
  EXPECT_EQ(stats->Attr(wis::kUnique1)->max, 999);
}

// Verbatim copies of the sketches before their O(1) rewrite (64-bit `%`
// for the bit, linear scans for the value and the takeover victim): the
// reference the rewrite must match bit for bit.
namespace reference {

uint64_t MixHash(int32_t value) {
  uint64_t x = static_cast<uint64_t>(static_cast<uint32_t>(value));
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

class DistinctSketch {
 public:
  explicit DistinctSketch(uint64_t expected) {
    uint64_t bits = std::max<uint64_t>(4096, 4 * expected);
    const uint64_t words = (bits + 63) / 64;
    words_.assign(words, 0);
    bit_count_ = words * 64;
  }
  void Insert(int32_t value) {
    const uint64_t bit = MixHash(value) % bit_count_;
    uint64_t& word = words_[bit / 64];
    const uint64_t mask = 1ull << (bit % 64);
    if ((word & mask) == 0) {
      word |= mask;
      ++set_bits_;
    }
  }
  std::vector<uint64_t> words_;
  uint64_t bit_count_ = 0;
  uint64_t set_bits_ = 0;
};

class FrequencySketch {
 public:
  void Insert(int32_t value) {
    if (tick_++ % 4 != 0) return;
    ++sampled_;
    opt::FrequencySketch::Entry* min_entry = nullptr;
    for (opt::FrequencySketch::Entry& e : entries_) {
      if (e.value == value) {
        e.count += 1;
        return;
      }
      if (min_entry == nullptr || e.count < min_entry->count) min_entry = &e;
    }
    if (entries_.size() < 32) {
      entries_.push_back(opt::FrequencySketch::Entry{value, 1, 0});
      return;
    }
    min_entry->value = value;
    min_entry->error = min_entry->count;
    min_entry->count += 1;
  }
  uint64_t tick_ = 0;
  uint64_t sampled_ = 0;
  std::vector<opt::FrequencySketch::Entry> entries_;
};

}  // namespace reference

void ExpectSketchesEqual(const opt::DistinctSketch& d,
                         const reference::DistinctSketch& d_ref,
                         const opt::FrequencySketch& f,
                         const reference::FrequencySketch& f_ref,
                         uint64_t inserted) {
  ASSERT_EQ(d.bit_count(), d_ref.bit_count_) << inserted;
  ASSERT_EQ(d.set_bits(), d_ref.set_bits_) << inserted;
  ASSERT_TRUE(d.words() == d_ref.words_) << inserted;
  ASSERT_EQ(f.sampled(), f_ref.sampled_) << inserted;
  ASSERT_EQ(f.entries().size(), f_ref.entries_.size()) << inserted;
  for (size_t i = 0; i < f.entries().size(); ++i) {
    ASSERT_EQ(f.entries()[i].value, f_ref.entries_[i].value)
        << inserted << " slot " << i;
    ASSERT_EQ(f.entries()[i].count, f_ref.entries_[i].count)
        << inserted << " slot " << i;
    ASSERT_EQ(f.entries()[i].error, f_ref.entries_[i].error)
        << inserted << " slot " << i;
  }
}

void ExpectAttrStatsEqual(const opt::AttrStats& x, const opt::AttrStats& y,
                          const std::string& label) {
  EXPECT_EQ(x.has_values, y.has_values) << label;
  EXPECT_EQ(x.min, y.min) << label;
  EXPECT_EQ(x.max, y.max) << label;
  EXPECT_EQ(x.sketch.bit_count(), y.sketch.bit_count()) << label;
  EXPECT_EQ(x.sketch.set_bits(), y.sketch.set_bits()) << label;
  EXPECT_TRUE(x.sketch.words() == y.sketch.words()) << label;
  EXPECT_EQ(x.freq.sampled(), y.freq.sampled()) << label;
  ASSERT_EQ(x.freq.entries().size(), y.freq.entries().size()) << label;
  for (size_t i = 0; i < x.freq.entries().size(); ++i) {
    EXPECT_EQ(x.freq.entries()[i].value, y.freq.entries()[i].value) << label;
    EXPECT_EQ(x.freq.entries()[i].count, y.freq.entries()[i].count) << label;
    EXPECT_EQ(x.freq.entries()[i].error, y.freq.entries()[i].error) << label;
  }
}

void ExpectStatsEqual(const RelationStats& x, const RelationStats& y,
                      const std::string& label) {
  ASSERT_EQ(x.attrs.size(), y.attrs.size()) << label;
  for (size_t a = 0; a < x.attrs.size(); ++a) {
    ExpectAttrStatsEqual(x.attrs[a], y.attrs[a],
                         label + ", attr " + std::to_string(a));
  }
}

// A recount sweeps the serving pages into columns instead of copying the
// relation out. After Recover() (a loser undone, deletes that leave dead
// slots, a key-modify relocation), while a dead node's fragment is served by
// its backup, and after ReintegrateNode(), the statistics equal a Recompute
// over ReadRelation's tuples bit for bit, and the catalog count equals
// CountTuples, at 1, 2 and 4 host threads. A recount whose sweep fails part
// way (a scheduled node death) keeps the previous count and statistics.
TEST(RecountStatsTest, RecountMatchesRecomputeOverReadRelation) {
  const auto& schema = wis::WisconsinSchema();
  // 20000 tuples: the sweep folds more than one 16k column block.
  const auto all = wis::GenerateWisconsin(20010, 11);
  const std::vector<std::vector<uint8_t>> loaded(all.begin(),
                                                 all.end() - 10);
  const auto scenario = [&](int threads) {
    sim::HostPool& pool = sim::HostPool::Instance();
    const int prev = pool.num_threads();
    pool.set_num_threads(threads);
    const std::string at = std::to_string(threads) + " threads, ";
    gamma::GammaConfig config = SmallConfig();
    config.num_diskless_nodes = 0;
    config.chained_declustering = true;
    config.enable_logging = true;
    gamma::GammaMachine machine(config);
    ASSERT_TRUE(machine
                    .CreateRelation("A", schema,
                                    catalog::PartitionSpec::Hashed(
                                        wis::kUnique1))
                    .ok());
    ASSERT_TRUE(machine.LoadTuples("A", loaded).ok());
    const auto expect_recounted = [&](const std::string& label) {
      opt::StatisticsCatalog reference;
      reference.Recompute("A", schema, *machine.ReadRelation("A"));
      ExpectStatsEqual(*machine.stats().Find("A"), *reference.Find("A"),
                       at + label);
      EXPECT_EQ((*machine.catalog().Get("A"))->num_tuples,
                *machine.CountTuples("A"))
          << at + label;
    };
    const auto del = [&](int32_t key, uint64_t txn) {
      return machine.RunDelete(gamma::DeleteQuery{"A", wis::kUnique1, key},
                               txn);
    };
    const auto modify = [&](int32_t key, int attr, int32_t value,
                            uint64_t txn) {
      return machine.RunModify(
          gamma::ModifyQuery{"A", wis::kUnique1, key, attr, value}, txn);
    };
    gamma::AppendQuery append;
    append.relation = "A";

    const uint64_t winner = machine.BeginTxn();
    for (const int32_t key : {3, 400, 401, 7000, 15000}) {
      ASSERT_TRUE(del(key, winner).ok());
    }
    ASSERT_TRUE(modify(12, wis::kUnique1, 900012, winner).ok());
    ASSERT_TRUE(modify(13, wis::kTen, -5, winner).ok());
    append.tuple = all[20000];
    ASSERT_TRUE(machine.RunAppend(append, winner).ok());
    machine.CommitTxn(winner);
    const uint64_t loser = machine.BeginTxn();
    ASSERT_TRUE(del(21, loser).ok());
    ASSERT_TRUE(modify(22, wis::kUnique2, 777777, loser).ok());
    append.tuple = all[20001];
    ASSERT_TRUE(machine.RunAppend(append, loser).ok());
    machine.Crash();
    const auto recovery = machine.Recover();
    ASSERT_TRUE(recovery.ok()) << recovery.status().ToString();
    ASSERT_EQ(recovery->losers, 1u);
    ASSERT_EQ(*machine.CountTuples("A"), 19996u);
    expect_recounted("after Recover");

    // Node 1 dies: its fragment is served by the backup on node 2.
    machine.KillNode(1);
    ASSERT_TRUE(del(30, 0).ok());
    ASSERT_TRUE(machine.RecomputeStatistics("A").ok());
    expect_recounted("node 1 dead");
    // Writes homed on node 1 are refused while it is down.
    EXPECT_TRUE(del(31, 0).status().IsUnavailable());
    ASSERT_TRUE(del(33, 0).ok());
    ASSERT_TRUE(machine.ReintegrateNode(1).ok());
    expect_recounted("after ReintegrateNode");

    // A sweep cut short by node 2's death leaves the statistics as they
    // were: unique1's minimum stays 0, where a recount makes it 1.
    ASSERT_TRUE(del(0, 0).ok());
    const RelationStats before = *machine.stats().Find("A");
    const uint64_t count_before = (*machine.catalog().Get("A"))->num_tuples;
    ASSERT_EQ(before.attrs[wis::kUnique1].min, 0);
    for (int n = 0; n < config.num_disk_nodes; ++n) {
      ASSERT_TRUE(machine.node(n).pool().Invalidate().ok());
    }
    machine.KillNodeAfterOps(2, 3);
    EXPECT_FALSE(machine.RecomputeStatistics("A").ok());
    EXPECT_FALSE(machine.NodeAlive(2));
    ExpectStatsEqual(*machine.stats().Find("A"), before,
                     at + "failed sweep");
    EXPECT_EQ((*machine.catalog().Get("A"))->num_tuples, count_before) << at;
    ASSERT_TRUE(machine.RecomputeStatistics("A").ok());
    EXPECT_EQ(machine.stats().Find("A")->attrs[wis::kUnique1].min, 1);
    pool.set_num_threads(prev);
  };
  for (const int threads : {1, 2, 4}) scenario(threads);
}

// Bulk statistics gather the int columns a block of tuples at a time and
// fold each attribute on its own host task. Loads that span several gather
// blocks and whose sizes are not a multiple of the 1-in-4 sample, with an
// append and a modify between two loads (so the second load starts mid
// sample cycle), then a Recompute, leave every attribute's state identical
// at 1, 2 and 4 host threads, and identical to inserting value by value.
TEST(StatisticsThreadsTest, BulkFoldIdenticalAcrossThreadCounts) {
  const auto batch1 = wis::GenerateWisconsin(40001, 3);
  const auto batch2 = wis::GenerateWisconsin(5003, 4);
  const auto appended = wis::GenerateWisconsin(1, 5).front();
  const auto& schema = wis::WisconsinSchema();
  constexpr int32_t kModified = 77;
  const auto fold = [&](int threads) {
    sim::HostPool& pool = sim::HostPool::Instance();
    const int prev = pool.num_threads();
    pool.set_num_threads(threads);
    opt::StatisticsCatalog stats;
    stats.OnLoad("A", schema, batch1);
    stats.OnAppend("A", schema, appended);
    stats.OnModify("A", schema, wis::kTen, kModified);
    stats.OnLoad("A", schema, batch2);
    stats.Recompute("B", schema, batch2);
    pool.set_num_threads(prev);
    return std::vector<RelationStats>{*stats.Find("A"), *stats.Find("B")};
  };
  // The reference inserts every value on its own, tuple by tuple.
  const auto insert = [&](std::vector<opt::AttrStats>& attrs,
                          const std::vector<uint8_t>& tuple) {
    const catalog::TupleView view(&schema, tuple);
    for (size_t a = 0; a < schema.num_attrs(); ++a) {
      if (schema.attr(a).type != catalog::AttrType::kInt32) continue;
      const int32_t value = view.GetInt(a);
      attrs[a].min = std::min(attrs[a].min, value);
      attrs[a].max = std::max(attrs[a].max, value);
      attrs[a].sketch.Insert(value);
      attrs[a].freq.Insert(value);
      attrs[a].has_values = true;
    }
  };
  const auto sized = [&](size_t rows) {
    std::vector<opt::AttrStats> attrs(schema.num_attrs());
    for (size_t a = 0; a < schema.num_attrs(); ++a) {
      if (schema.attr(a).type != catalog::AttrType::kInt32) continue;
      attrs[a].sketch = opt::DistinctSketch(rows);
    }
    return attrs;
  };
  std::vector<std::vector<opt::AttrStats>> reference{sized(batch1.size()),
                                                     sized(batch2.size())};
  for (const auto& tuple : batch1) insert(reference[0], tuple);
  insert(reference[0], appended);
  opt::AttrStats& ten = reference[0][wis::kTen];
  ten.min = std::min(ten.min, kModified);
  ten.max = std::max(ten.max, kModified);
  ten.sketch.Insert(kModified);
  ten.freq.Insert(kModified);
  for (const auto& tuple : batch2) insert(reference[0], tuple);
  for (const auto& tuple : batch2) insert(reference[1], tuple);

  for (const int threads : {1, 2, 4}) {
    const auto folded = fold(threads);
    for (size_t r = 0; r < folded.size(); ++r) {
      ASSERT_EQ(folded[r].attrs.size(), schema.num_attrs());
      for (size_t a = 0; a < schema.num_attrs(); ++a) {
        ExpectAttrStatsEqual(folded[r].attrs[a], reference[r][a],
                             std::to_string(threads) + " threads, relation " +
                                 std::to_string(r) + ", attr " +
                                 std::to_string(a));
      }
    }
  }
}

// 1.2M inserts over phases that stress every path of both sketches: pure
// churn over a huge domain (every sample a takeover, the minimum bucket
// emptying every 32), Zipf-like heavy hitters mixed with churn (found-value
// increments at and above the minimum), a narrow domain that fits the 32
// counters, and extreme int32 values.
TEST(SketchEquivalenceTest, MatchesLinearScanReferenceBitForBit) {
  for (const uint64_t expected : {uint64_t{1000}, uint64_t{300007}}) {
    opt::DistinctSketch distinct(expected);
    reference::DistinctSketch distinct_ref(expected);
    opt::FrequencySketch freq;
    reference::FrequencySketch freq_ref;
    Rng rng(expected);
    uint64_t inserted = 0;
    const auto insert = [&](int32_t value) {
      distinct.Insert(value);
      distinct_ref.Insert(value);
      freq.Insert(value);
      freq_ref.Insert(value);
      ++inserted;
    };
    constexpr int kPhase = 100000;
    for (int round = 0; round < 2; ++round) {
      for (int i = 0; i < kPhase; ++i) {  // churn
        insert(static_cast<int32_t>(rng.Next64()));
      }
      ExpectSketchesEqual(distinct, distinct_ref, freq, freq_ref, inserted);
      for (int i = 0; i < 2 * kPhase; ++i) {  // heavy hitters + churn
        const uint64_t r = rng.Uniform(100);
        if (r < 30) {
          insert(7);
        } else if (r < 45) {
          insert(-3);
        } else if (r < 60) {
          insert(static_cast<int32_t>(rng.Uniform(40)));
        } else {
          insert(static_cast<int32_t>(rng.Uniform(1u << 30)));
        }
      }
      ExpectSketchesEqual(distinct, distinct_ref, freq, freq_ref, inserted);
      for (int i = 0; i < kPhase; ++i) {  // narrow domain, then extremes
        insert(static_cast<int32_t>(rng.Uniform(24)) - 12);
      }
      for (int i = 0; i < kPhase; ++i) {
        const int32_t extreme[] = {INT32_MIN, INT32_MAX, 0, -1, 1};
        insert(i % 3 == 0 ? extreme[rng.Uniform(5)]
                          : static_cast<int32_t>(rng.Next64()));
      }
      ExpectSketchesEqual(distinct, distinct_ref, freq, freq_ref, inserted);
      for (int i = 0; i < kPhase; ++i) {  // ascending keys (Wisconsin-like)
        insert(round * kPhase + i);
      }
      ExpectSketchesEqual(distinct, distinct_ref, freq, freq_ref, inserted);
    }
    EXPECT_GE(inserted, 1000000u);
  }
}

}  // namespace
}  // namespace gammadb
