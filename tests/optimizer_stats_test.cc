// Tests for the optimizer's attribute statistics and the catalog count
// beside them: folds on first read from the stored pages, incremental
// maintenance by append / delete / modify, the recount after a failover,
// stored query results, which are counted but carry no statistics, and
// folds the simulated machine cannot see.

#include <algorithm>
#include <cmath>
#include <memory>
#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "gamma/machine.h"
#include "common/rng.h"
#include "obs/journal.h"
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
  // Fold both attributes first: the append then reaches them as it
  // arrives.
  ASSERT_NE(StatsOf("A").Attr(wis::kUnique1), nullptr);
  ASSERT_NE(StatsOf("A").Attr(wis::kUnique2), nullptr);
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
  ASSERT_NE(StatsOf("A").Attr(wis::kUnique2), nullptr);
  ASSERT_TRUE(machine_.RunModify(modify).ok());
  EXPECT_EQ(StatsOf("A").Attr(wis::kUnique2)->max, 1 << 20);
  // Count unchanged by an in-place modify.
  EXPECT_EQ(NumTuples("A"), kN);
}

TEST_F(OptimizerStatsTest, RecomputeTightensBoundsAfterDeletes) {
  // Delete the maximum-key tuples; the folded statistics keep the loose
  // max.
  ASSERT_NE(StatsOf("A").Attr(wis::kUnique1), nullptr);
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

std::vector<int> IntAttrs(const catalog::Schema& schema) {
  std::vector<int> ints;
  for (size_t a = 0; a < schema.num_attrs(); ++a) {
    if (schema.attr(a).type == catalog::AttrType::kInt32) {
      ints.push_back(static_cast<int>(a));
    }
  }
  return ints;
}

/// Inserts one value as a fold, an append or a modify does.
void Absorb(opt::AttrStats& as, int32_t value) {
  as.min = std::min(as.min, value);
  as.max = std::max(as.max, value);
  as.sketch.Insert(value);
  as.freq.Insert(value);
  as.has_values = true;
}

/// The fold's reference: `attr` of every tuple inserted on its own, in
/// order, into a sketch sized from the tuple count.
opt::AttrStats ReferenceFold(const std::vector<std::vector<uint8_t>>& tuples,
                             int attr) {
  opt::AttrStats as;
  as.sketch = opt::DistinctSketch(tuples.size());
  for (const auto& tuple : tuples) {
    Absorb(as, catalog::TupleView(&wis::WisconsinSchema(), tuple)
                   .GetInt(static_cast<size_t>(attr)));
  }
  return as;
}

/// Every int attribute's statistics of `relation`, folding what is not
/// folded yet; indexed by attribute position.
std::vector<opt::AttrStats> ReadAllAttrs(const gamma::GammaMachine& machine,
                                         const std::string& relation) {
  std::vector<opt::AttrStats> attrs(wis::WisconsinSchema().num_attrs());
  const RelationStats* stats = machine.stats().Find(relation);
  EXPECT_NE(stats, nullptr) << relation;
  if (stats == nullptr) return attrs;
  for (const int a : IntAttrs(wis::WisconsinSchema())) {
    const opt::AttrStats* as = stats->Attr(a);
    EXPECT_NE(as, nullptr) << relation << ", attr " << a;
    if (as != nullptr) attrs[static_cast<size_t>(a)] = *as;
  }
  return attrs;
}

void ExpectAllEqual(const std::vector<opt::AttrStats>& x,
                    const std::vector<opt::AttrStats>& y,
                    const std::string& label) {
  ASSERT_EQ(x.size(), y.size()) << label;
  for (const int a : IntAttrs(wis::WisconsinSchema())) {
    ExpectAttrStatsEqual(x[static_cast<size_t>(a)], y[static_cast<size_t>(a)],
                         label + ", attr " + std::to_string(a));
  }
}

/// Every int attribute of "A", folded, against the reference fold over
/// ReadRelation's tuples.
void ExpectFoldedAsReference(gamma::GammaMachine& machine,
                             const std::string& label) {
  const std::vector<opt::AttrStats> folded = ReadAllAttrs(machine, "A");
  const auto tuples = machine.ReadRelation("A");
  ASSERT_TRUE(tuples.ok()) << label;
  std::vector<opt::AttrStats> reference(folded.size());
  for (const int a : IntAttrs(wis::WisconsinSchema())) {
    reference[static_cast<size_t>(a)] = ReferenceFold(*tuples, a);
  }
  ExpectAllEqual(folded, reference, label);
}

// A recount sweeps the serving pages and only counts; it drops the folded
// statistics, so the next read refolds them from the stored pages. After
// Recover() (a loser undone, deletes that leave dead slots, a key-modify
// relocation), while a dead node's fragment is served by its backup, and
// after ReintegrateNode(), every attribute folded on the next read equals a
// reference fold over ReadRelation's tuples bit for bit, and the catalog
// count equals CountTuples, at 1, 2 and 4 host threads. A recount whose
// sweep fails part way keeps the previous count and folded statistics.
TEST(RecountStatsTest, RecountMatchesRecomputeOverReadRelation) {
  const auto& schema = wis::WisconsinSchema();
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
      ExpectFoldedAsReference(machine, at + label);
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

    // A sweep cut short by node 2's death leaves the folded statistics as
    // they were: unique1's minimum stays 0, where a recount's refold makes
    // it 1.
    ASSERT_TRUE(del(0, 0).ok());
    const std::vector<opt::AttrStats> before = ReadAllAttrs(machine, "A");
    const uint64_t folds_before = machine.stats().folds();
    const uint64_t count_before = (*machine.catalog().Get("A"))->num_tuples;
    ASSERT_EQ(before[wis::kUnique1].min, 0);
    for (int n = 0; n < config.num_disk_nodes; ++n) {
      ASSERT_TRUE(machine.node(n).pool().Invalidate().ok());
    }
    machine.KillNodeAfterOps(2, 3);
    EXPECT_FALSE(machine.RecomputeStatistics("A").ok());
    EXPECT_FALSE(machine.NodeAlive(2));
    ExpectAllEqual(ReadAllAttrs(machine, "A"), before, at + "failed sweep");
    EXPECT_EQ(machine.stats().folds(), folds_before) << at;
    EXPECT_EQ((*machine.catalog().Get("A"))->num_tuples, count_before) << at;
    ASSERT_TRUE(machine.RecomputeStatistics("A").ok());
    EXPECT_EQ(machine.stats().Find("A")->Attr(wis::kUnique1)->min, 1);
    pool.set_num_threads(prev);
  };
  for (const int threads : {1, 2, 4}) scenario(threads);
}

// A fold gathers each fragment's values on a host task of its own and folds
// each attribute in stored order, so the pool width cannot show. A load
// whose size is not a multiple of the 1-in-4 sample, folded; an append and
// a modify absorbed by the folded attributes; then a second load, which
// drops every fold, and a refold: each state is identical at 1, 2 and 4
// host threads, and identical to inserting value by value.
TEST(StatisticsThreadsTest, BulkFoldIdenticalAcrossThreadCounts) {
  const auto batch1 = wis::GenerateWisconsin(40001, 3);
  const auto batch2 = wis::GenerateWisconsin(5003, 4);
  const auto appended = wis::GenerateWisconsin(1, 5).front();
  const auto& schema = wis::WisconsinSchema();
  constexpr int32_t kModified = 77;
  // Each state's reference: the loaded tuples, then the appended values
  // and the modified one absorbed, then the tuples of both loads.
  std::vector<std::vector<opt::AttrStats>> reference;
  const auto run = [&](int threads) {
    sim::HostPool& pool = sim::HostPool::Instance();
    const int prev = pool.num_threads();
    pool.set_num_threads(threads);
    gamma::GammaMachine machine(SmallConfig());
    EXPECT_TRUE(machine
                    .CreateRelation("A", schema,
                                    catalog::PartitionSpec::Hashed(
                                        wis::kUnique1))
                    .ok());
    EXPECT_TRUE(machine.LoadTuples("A", batch1).ok());
    std::vector<std::vector<opt::AttrStats>> states;
    states.push_back(ReadAllAttrs(machine, "A"));
    if (reference.empty()) {
      const auto tuples = *machine.ReadRelation("A");
      std::vector<opt::AttrStats> loaded(schema.num_attrs());
      for (const int a : IntAttrs(schema)) {
        loaded[static_cast<size_t>(a)] = ReferenceFold(tuples, a);
      }
      reference.push_back(loaded);
      const catalog::TupleView view(&schema, appended);
      for (const int a : IntAttrs(schema)) {
        Absorb(loaded[static_cast<size_t>(a)],
               view.GetInt(static_cast<size_t>(a)));
      }
      Absorb(loaded[wis::kTen], kModified);
      reference.push_back(loaded);
    }
    gamma::AppendQuery append;
    append.relation = "A";
    append.tuple = appended;
    EXPECT_TRUE(machine.RunAppend(append).ok());
    EXPECT_TRUE(machine
                    .RunModify(gamma::ModifyQuery{"A", wis::kUnique1, 12,
                                                  wis::kTen, kModified})
                    .ok());
    states.push_back(ReadAllAttrs(machine, "A"));
    EXPECT_TRUE(machine.LoadTuples("A", batch2).ok());
    states.push_back(ReadAllAttrs(machine, "A"));
    if (reference.size() == 2) {
      const auto tuples = *machine.ReadRelation("A");
      EXPECT_EQ(tuples.size(), batch1.size() + 1 + batch2.size());
      std::vector<opt::AttrStats> both(schema.num_attrs());
      for (const int a : IntAttrs(schema)) {
        both[static_cast<size_t>(a)] = ReferenceFold(tuples, a);
      }
      reference.push_back(both);
    }
    pool.set_num_threads(prev);
    return states;
  };
  for (const int threads : {1, 2, 4}) {
    const auto states = run(threads);
    ASSERT_EQ(states.size(), reference.size());
    for (size_t i = 0; i < states.size(); ++i) {
      ExpectAllEqual(states[i], reference[i],
                     std::to_string(threads) + " threads, state " +
                         std::to_string(i));
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

// What one statement sequence leaves for anyone to see: each statement's
// status and %.17g seconds, each node's pool counters, the fault-injector
// counts and the journal. With `read_stats`, every int attribute of A is
// read after every statement, so each one folds on its first read.
struct Observed {
  std::string log;
  uint64_t folds = 0;
};

Observed RunObserved(int threads, bool read_stats) {
  sim::HostPool& pool = sim::HostPool::Instance();
  const int prev = pool.num_threads();
  pool.set_num_threads(threads);
  gamma::GammaConfig config = SmallConfig();
  config.chained_declustering = true;
  config.enable_logging = true;
  config.buffer_pool_bytes = 16 * config.page_size;
  config.fault.transient_read_prob = 0.02;
  config.fault.transient_write_prob = 0.02;
  gamma::GammaMachine machine(config);
  Observed out;
  char buf[64];
  const auto note = [&](const std::string& what, const Status& status,
                        double seconds) {
    std::snprintf(buf, sizeof(buf), "%.17g", seconds);
    out.log += what + ": " + (status.ok() ? buf : status.ToString()) + "\n";
    const RelationStats* stats = machine.stats().Find("A");
    if (!read_stats || stats == nullptr) return;
    for (const int a : IntAttrs(wis::WisconsinSchema())) (void)stats->Attr(a);
  };
  const auto run = [&](const std::string& what,
                       const Result<gamma::QueryResult>& result) {
    note(what, result.status(), result.ok() ? result->seconds() : 0);
  };
  const auto all = wis::GenerateWisconsin(2004, 21);
  gamma::AppendQuery append{"A", all[2000]};
  gamma::SelectQuery scan;
  scan.relation = "A";
  scan.predicate = Predicate::Range(wis::kUnique2, 100, 299);
  scan.store_result = false;

  EXPECT_TRUE(machine
                  .CreateRelation("A", wis::WisconsinSchema(),
                                  catalog::PartitionSpec::Hashed(
                                      wis::kUnique1))
                  .ok());
  note("load", machine.LoadTuples("A", {all.begin(), all.begin() + 2000}),
       0);
  run("select", machine.RunSelect(scan));
  run("append", machine.RunAppend(append));
  run("delete", machine.RunDelete({"A", wis::kUnique1, 42}));
  run("modify key",
      machine.RunModify({"A", wis::kUnique1, 7, wis::kUnique1, 900007}));
  run("modify", machine.RunModify({"A", wis::kUnique1, 8, wis::kTen, -5}));
  const uint64_t txn = machine.BeginTxn();
  run("txn delete", machine.RunDelete({"A", wis::kUnique1, 50}, txn));
  append.tuple = all[2001];
  run("txn append", machine.RunAppend(append, txn));
  run("txn modify",
      machine.RunModify({"A", wis::kUnique1, 51, wis::kUnique2, -9}, txn));
  machine.AbortTxn(txn);
  note("abort", Status::OK(), 0);
  append.tuple = all[2002];
  run("append", machine.RunAppend(append));
  append.tuple = all[2003];
  run("loser append", machine.RunAppend(append, machine.BeginTxn()));
  machine.Crash();
  note("crash", Status::OK(), 0);
  const auto recovery = machine.Recover();
  note("recover", recovery.status(),
       recovery.ok() ? recovery->recovery_sec : 0);
  machine.KillNode(1);
  note("kill", Status::OK(), 0);
  run("select on backup", machine.RunSelect(scan));
  run("delete on backup", machine.RunDelete({"A", wis::kUnique1, 60}));
  const auto rebuild = machine.ReintegrateNode(1);
  note("reintegrate", rebuild.status(),
       rebuild.ok() ? rebuild->rebuild_sec : 0);
  run("select", machine.RunSelect(scan));

  for (int n = 0; n < config.total_query_nodes(); ++n) {
    const storage::BufferPool& p = machine.node(n).pool();
    out.log += "node " + std::to_string(n) + ": " +
               std::to_string(p.hits()) + " hits, " +
               std::to_string(p.misses()) + " misses, " +
               std::to_string(p.evictions()) + " evictions, " +
               std::to_string(p.dirty_frames()) + " dirty\n";
  }
  const sim::FaultInjector::Stats faults = machine.faults().stats();
  out.log += "faults: " + std::to_string(faults.transient_read_faults) + " " +
             std::to_string(faults.transient_write_faults) + " " +
             std::to_string(faults.corrupted_reads) + " " +
             std::to_string(faults.packets_dropped) + "\n";
  out.log += machine.journal().EventsJson();
  out.folds = machine.stats().folds();
  pool.set_num_threads(prev);
  return out;
}

// A fold pins, counts, charges and draws nothing: a machine that reads every
// attribute's statistics between statements (load, append, delete, key and
// non-key modify, an aborted transaction, Crash()/Recover(), a dead node's
// fragment served by its backup, ReintegrateNode()) shows exactly what a
// machine that never reads them shows, at 1 and 4 host threads.
TEST(LazyStatisticsTest, FoldsLeaveTheSimulatedMachineAlone) {
  for (const int threads : {1, 4}) {
    const Observed quiet = RunObserved(threads, /*read_stats=*/false);
    const Observed reader = RunObserved(threads, /*read_stats=*/true);
    EXPECT_EQ(quiet.folds, 0u);
    // The load and the recounts after the abort, Recover() and
    // ReintegrateNode() each drop the folds; the next read refolds all 13
    // attributes.
    EXPECT_GE(reader.folds, 4u * 13u);
    EXPECT_EQ(quiet.log, reader.log) << threads << " threads";
    EXPECT_NE(quiet.log.find("faults: "), std::string::npos);
  }
}

// A fold reads a page's current bytes: a tuple appended straight into a
// fragment file, whose page is still a dirty frame, is folded; so is a
// fragment served by its chained backup. Either way each attribute equals
// the reference fold over ReadRelation's tuples, and the dirty frame stays
// dirty.
TEST(LazyStatisticsTest, FoldReadsDirtyFramesAndBackups) {
  gamma::GammaConfig config = SmallConfig();
  config.num_diskless_nodes = 0;
  config.chained_declustering = true;
  gamma::GammaMachine machine(config);
  ASSERT_TRUE(machine
                  .CreateRelation("A", wis::WisconsinSchema(),
                                  catalog::PartitionSpec::Hashed(
                                      wis::kUnique1))
                  .ok());
  const auto all = wis::GenerateWisconsin(3001, 17);
  ASSERT_TRUE(
      machine.LoadTuples("A", {all.begin(), all.begin() + 3000}).ok());
  const uint32_t fid = (*machine.catalog().Get("A"))->per_node_file[0];
  ASSERT_TRUE(machine.node(0).file(fid).Append(all[3000]).ok());
  ASSERT_GT(machine.node(0).pool().dirty_frames(), 0u);
  const uint64_t misses = machine.node(0).pool().misses();
  const std::vector<opt::AttrStats> folded = ReadAllAttrs(machine, "A");
  EXPECT_EQ(folded[wis::kUnique1].max, 3000);
  EXPECT_EQ(machine.node(0).pool().misses(), misses);
  EXPECT_GT(machine.node(0).pool().dirty_frames(), 0u);
  ExpectFoldedAsReference(machine, "dirty frame");

  // Node 1 dies; after a recount its fragment folds from node 2's backup.
  machine.KillNode(1);
  ASSERT_TRUE(machine.RecomputeStatistics("A").ok());
  EXPECT_EQ((*machine.catalog().Get("A"))->num_tuples, 3001u);
  ExpectFoldedAsReference(machine, "backup");
}

// A stored page that fails its checksum fails the fold: the attribute reads
// as having no statistics, nothing is counted as folded, and once the page
// is rewritten the next read folds it.
TEST(LazyStatisticsTest, RottedPageFoldsNothingUntilRewritten) {
  gamma::GammaMachine machine(SmallConfig());
  ASSERT_TRUE(machine
                  .CreateRelation("A", wis::WisconsinSchema(),
                                  catalog::PartitionSpec::Hashed(
                                      wis::kUnique1))
                  .ok());
  ASSERT_TRUE(machine.LoadTuples("A", wis::GenerateWisconsin(2000, 5)).ok());
  // Rot every stored page of node 2, keeping the good bytes.
  storage::SimulatedDisk& disk = machine.node(2).disk();
  std::vector<std::vector<uint8_t>> good(disk.num_pages());
  for (uint32_t p = 0; p < disk.num_pages(); ++p) {
    good[p].resize(disk.page_size());
    ASSERT_TRUE(disk.Read(p, good[p].data()).ok());
    disk.CorruptStoredPage(p);
  }
  const RelationStats* stats = machine.stats().Find("A");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->Attr(wis::kUnique1), nullptr);
  EXPECT_EQ(machine.stats().folds(), 0u);
  for (uint32_t p = 0; p < disk.num_pages(); ++p) {
    ASSERT_TRUE(disk.Write(p, good[p].data()).ok());
  }
  ASSERT_NE(stats->Attr(wis::kUnique1), nullptr);
  EXPECT_EQ(machine.stats().folds(), 1u);
}

// Only the planner and kAuto join routing read statistics. A load, the
// select_1m shapes (scan, clustered and non-clustered index ranges, point
// selects), updates in committed and aborted transactions, and a Recover()
// fold nothing; a hash-routed join folds nothing either, and a kAuto join
// folds the frequency sketches of its two join attributes.
TEST(LazyStatisticsTest, LoadSelectsUpdatesAndRecoverFoldNothing) {
  gamma::GammaConfig config = SmallConfig();
  config.chained_declustering = true;
  config.enable_logging = true;
  gamma::GammaMachine machine(config);
  ASSERT_TRUE(machine
                  .CreateRelation("A", wis::WisconsinSchema(),
                                  catalog::PartitionSpec::Hashed(
                                      wis::kUnique1))
                  .ok());
  const auto all = wis::GenerateWisconsin(2002, 8);
  ASSERT_TRUE(
      machine.LoadTuples("A", {all.begin(), all.begin() + 2000}).ok());
  ASSERT_TRUE(machine.BuildIndex("A", wis::kUnique1, /*clustered=*/true).ok());
  ASSERT_TRUE(
      machine.BuildIndex("A", wis::kUnique2, /*clustered=*/false).ok());
  for (const auto& [attr, lo, hi] :
       {std::tuple{wis::kUnique2, 0, 199}, std::tuple{wis::kUnique1, 0, 19},
        std::tuple{wis::kUnique2, 0, 19}, std::tuple{wis::kUnique1, 5, 5}}) {
    gamma::SelectQuery select;
    select.relation = "A";
    select.predicate = Predicate::Range(attr, lo, hi);
    select.store_result = false;
    ASSERT_TRUE(machine.RunSelect(select).ok());
  }
  const uint64_t winner = machine.BeginTxn();
  ASSERT_TRUE(
      machine.RunAppend(gamma::AppendQuery{"A", all[2000]}, winner).ok());
  ASSERT_TRUE(machine.RunDelete({"A", wis::kUnique1, 9}, winner).ok());
  ASSERT_TRUE(
      machine.RunModify({"A", wis::kUnique1, 10, wis::kUnique2, -1}, winner)
          .ok());
  ASSERT_TRUE(machine.CommitTxn(winner).ok());
  const uint64_t loser = machine.BeginTxn();
  ASSERT_TRUE(
      machine.RunAppend(gamma::AppendQuery{"A", all[2001]}, loser).ok());
  machine.AbortTxn(loser);
  machine.Crash();
  ASSERT_TRUE(machine.Recover().ok());
  EXPECT_NE(machine.stats().Find("A"), nullptr);
  EXPECT_EQ(machine.stats().folds(), 0u);

  gamma::JoinQuery join;
  join.outer = "A";
  join.inner = "A";
  join.outer_attr = wis::kUnique1;
  join.inner_attr = wis::kUnique2;
  join.store_result = false;
  join.routing = gamma::SplitRouting::kHash;
  ASSERT_TRUE(machine.RunJoin(join).ok());
  EXPECT_EQ(machine.stats().folds(), 0u);
  join.routing = gamma::SplitRouting::kAuto;
  ASSERT_TRUE(machine.RunJoin(join).ok());
  EXPECT_EQ(machine.stats().folds(), 2u);
  ASSERT_TRUE(machine.RunJoin(join).ok());
  EXPECT_EQ(machine.stats().folds(), 2u);

  // The join folded only the two frequency sketches; the first full read
  // folds the rest, and both equal the reference fold.
  const opt::AttrStats reference =
      ReferenceFold(*machine.ReadRelation("A"), wis::kUnique1);
  const RelationStats* stats = machine.stats().Find("A");
  const opt::FrequencySketch* freq = stats->Frequency(wis::kUnique1);
  ASSERT_NE(freq, nullptr);
  EXPECT_EQ(freq->sampled(), reference.freq.sampled());
  EXPECT_EQ(freq->TopShare(), reference.freq.TopShare());
  EXPECT_EQ(machine.stats().folds(), 2u);
  ASSERT_NE(stats->Attr(wis::kUnique1), nullptr);
  EXPECT_EQ(machine.stats().folds(), 3u);
  ExpectAttrStatsEqual(*stats->Attr(wis::kUnique1), reference, "unique1");
}

}  // namespace
}  // namespace gammadb
