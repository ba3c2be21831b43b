// Unit tests for the join-site algorithms: the Simple hash-partitioned join
// with overflow escalation, the Hybrid hash join and the sort-merge join,
// each alone and all three through the shared JoinSite interface.

#include <memory>
#include <set>

#include <gtest/gtest.h>

#include "exec/aggregate.h"
#include "exec/hash_join.h"
#include "exec/hybrid_join.h"
#include "exec/merge_join.h"
#include "sim/fault_injector.h"
#include "storage/storage_manager.h"
#include "test_util.h"

namespace gammadb::exec {
namespace {

using gammadb::testing::MiniSchema;
using gammadb::testing::MiniTuple;

uint64_t TupleCost() {
  return MiniSchema().tuple_size() + JoinHashTable::kPerEntryOverhead;
}

class HashJoinSiteTest : public ::testing::Test {
 protected:
  HashJoinSiteTest() : sm_(4096, 256 * 1024) {}
  storage::StorageManager sm_;
};

TEST_F(HashJoinSiteTest, NoOverflowJoinsCompletely) {
  HashJoinSite site(0, &sm_, &MiniSchema(), &MiniSchema(), 0, 0,
                    TupleCost() * 1000);
  site.BeginRound(1);
  for (int32_t i = 0; i < 100; ++i) site.AddBuildTuple(MiniTuple(i, i));
  uint64_t matches = 0;
  for (int32_t i = 0; i < 200; ++i) {
    site.AddProbeTuple(MiniTuple(i, -i),
                       [&](std::span<const uint8_t>) { ++matches; });
  }
  EXPECT_EQ(matches, 100u);
  EXPECT_FALSE(site.HasOverflow());
  EXPECT_EQ(site.stats().escalations, 0u);
}

TEST_F(HashJoinSiteTest, OverflowSpoolsConsistently) {
  // Capacity for ~50 tuples, 200 build tuples: must overflow.
  HashJoinSite site(0, &sm_, &MiniSchema(), &MiniSchema(), 0, 0,
                    TupleCost() * 50);
  site.BeginRound(1);
  for (int32_t i = 0; i < 200; ++i) site.AddBuildTuple(MiniTuple(i, i));
  EXPECT_GT(site.stats().escalations, 0u);
  EXPECT_GT(site.stats().build_spooled, 0u);
  EXPECT_TRUE(site.HasOverflow());

  uint64_t matches = 0;
  for (int32_t i = 0; i < 200; ++i) {
    site.AddProbeTuple(MiniTuple(i, -i),
                       [&](std::span<const uint8_t>) { ++matches; });
  }
  // Key invariant: online matches + spooled pairs account for every key.
  // A probe tuple either matched now or was spooled for the next round
  // alongside its build partner.
  EXPECT_EQ(matches + site.probe_spool().num_tuples(), 200u);
  EXPECT_EQ(site.build_spool().num_tuples() + site.table().size(), 200u);

  // Round 2 on the spooled pair resolves the rest (single site, so feed
  // the spools straight back).
  std::vector<std::vector<uint8_t>> build_spilled, probe_spilled;
  site.prev_build_spool();  // (not yet retired)
  site.build_spool().Scan([&](storage::Rid, std::span<const uint8_t> t) {
    build_spilled.emplace_back(t.begin(), t.end());
    return true;
  });
  site.probe_spool().Scan([&](storage::Rid, std::span<const uint8_t> t) {
    probe_spilled.emplace_back(t.begin(), t.end());
    return true;
  });
  int round = 2;
  while (!build_spilled.empty() || !probe_spilled.empty()) {
    ASSERT_LT(round, 32);
    site.BeginRound(static_cast<uint64_t>(round));
    for (const auto& t : build_spilled) site.AddBuildTuple(t);
    for (const auto& t : probe_spilled) {
      site.AddProbeTuple(t, [&](std::span<const uint8_t>) { ++matches; });
    }
    build_spilled.clear();
    probe_spilled.clear();
    site.build_spool().Scan([&](storage::Rid, std::span<const uint8_t> t) {
      build_spilled.emplace_back(t.begin(), t.end());
      return true;
    });
    site.probe_spool().Scan([&](storage::Rid, std::span<const uint8_t> t) {
      probe_spilled.emplace_back(t.begin(), t.end());
      return true;
    });
    ++round;
  }
  EXPECT_EQ(matches, 200u);
}

TEST_F(HashJoinSiteTest, EmitsConcatenatedTuple) {
  HashJoinSite site(0, &sm_, &MiniSchema(), &MiniSchema(), 0, 0,
                    TupleCost() * 10);
  site.BeginRound(1);
  site.AddBuildTuple(MiniTuple(7, 100));
  std::vector<uint8_t> joined;
  site.AddProbeTuple(MiniTuple(7, 200), [&](std::span<const uint8_t> t) {
    joined.assign(t.begin(), t.end());
  });
  ASSERT_EQ(joined.size(), 2 * MiniSchema().tuple_size());
  const catalog::Schema schema =
      catalog::Schema::Concat(MiniSchema(), MiniSchema());
  const catalog::TupleView view(&schema, joined);
  EXPECT_EQ(view.GetInt(0), 7);
  EXPECT_EQ(view.GetInt(1), 100);  // build side first
  EXPECT_EQ(view.GetInt(4), 200);  // then probe side
}

TEST_F(HashJoinSiteTest, SkewSafetyValveForcesInserts) {
  // All build tuples share one key: no residency split can help; the site
  // must fall back to over-committing rather than loop forever.
  HashJoinSite site(0, &sm_, &MiniSchema(), &MiniSchema(), 0, 0,
                    TupleCost() * 10);
  site.BeginRound(1);
  for (int32_t i = 0; i < 100; ++i) site.AddBuildTuple(MiniTuple(42, i));
  // Every tuple is either resident (possibly via forced over-commit) or
  // spooled; none vanished.
  EXPECT_EQ(site.table().size() + site.build_spool().num_tuples(), 100u);
  uint64_t matches = 0;
  site.AddProbeTuple(MiniTuple(42, 0),
                     [&](std::span<const uint8_t>) { ++matches; });
  if (site.stats().probe_spooled == 0) {
    // Key 42 stayed resident: everything must be in the table (forced), and
    // the probe saw all 100 partners.
    EXPECT_EQ(matches, 100u);
    EXPECT_GT(site.stats().forced_inserts, 0u);
  } else {
    // Key 42 went non-resident: build partners are all in the spool.
    EXPECT_EQ(matches, 0u);
    EXPECT_EQ(site.build_spool().num_tuples(), 100u);
  }
}

TEST(HybridJoinTest, NoSpillWhenEstimateFits) {
  storage::StorageManager sm(4096, 256 * 1024);
  HybridHashJoinSite site(0, &sm, &MiniSchema(), &MiniSchema(), 0, 0,
                          /*capacity=*/TupleCost() * 1000,
                          /*expected=*/TupleCost() * 100, /*seed=*/5);
  EXPECT_EQ(site.stats().num_buckets, 1u);
  for (int32_t i = 0; i < 100; ++i) site.AddBuildTuple(MiniTuple(i, i));
  uint64_t matches = 0;
  for (int32_t i = 0; i < 100; ++i) {
    site.AddProbeTuple(MiniTuple(i, -i),
                       [&](std::span<const uint8_t>) { ++matches; });
  }
  site.Finish([&](std::span<const uint8_t>) { ++matches; });
  EXPECT_EQ(matches, 100u);
  EXPECT_EQ(site.stats().build_spooled, 0u);
}

TEST(HybridJoinTest, SpooledBucketsJoinOnce) {
  storage::StorageManager sm(4096, 1 << 20);
  const uint64_t capacity = TupleCost() * 60;
  HybridHashJoinSite site(0, &sm, &MiniSchema(), &MiniSchema(), 0, 0,
                          capacity,
                          /*expected=*/TupleCost() * 200, /*seed=*/5);
  EXPECT_GE(site.stats().num_buckets, 4u);
  for (int32_t i = 0; i < 200; ++i) site.AddBuildTuple(MiniTuple(i, i));
  uint64_t matches = 0;
  for (int32_t i = 0; i < 200; ++i) {
    site.AddProbeTuple(MiniTuple(i, -i),
                       [&](std::span<const uint8_t>) { ++matches; });
  }
  EXPECT_LT(matches, 200u);  // only bucket 0 matched online
  site.Finish([&](std::span<const uint8_t>) { ++matches; });
  EXPECT_EQ(matches, 200u);
  // Hybrid writes each spooled tuple exactly once.
  EXPECT_LE(site.stats().build_spooled, 200u);
}

TEST(HybridJoinTest, UnderestimateStillCorrect) {
  storage::StorageManager sm(4096, 1 << 20);
  // The "optimizer" claims 10 tuples; 300 arrive. Bucket 0 spills.
  HybridHashJoinSite site(0, &sm, &MiniSchema(), &MiniSchema(), 0, 0,
                          /*capacity=*/TupleCost() * 50,
                          /*expected=*/TupleCost() * 10, /*seed=*/5);
  for (int32_t i = 0; i < 300; ++i) site.AddBuildTuple(MiniTuple(i, i));
  uint64_t matches = 0;
  for (int32_t i = 0; i < 300; ++i) {
    site.AddProbeTuple(MiniTuple(i, -i),
                       [&](std::span<const uint8_t>) { ++matches; });
  }
  site.Finish([&](std::span<const uint8_t>) { ++matches; });
  EXPECT_EQ(matches, 300u);
}

// --- Every site kind through the JoinSite interface ---

enum class SiteKind { kSimple, kHybrid, kSortMerge };

using Tuples = std::vector<std::vector<uint8_t>>;
using TupleBag = std::multiset<std::vector<uint8_t>>;

/// A site with room for `capacity_tuples` build tuples; Hybrid is told the
/// true build size, so it splits into several buckets.
std::unique_ptr<JoinSite> MakeSite(SiteKind kind, storage::StorageManager* sm,
                                   uint64_t capacity_tuples,
                                   uint64_t build_tuples) {
  const catalog::Schema* schema = &MiniSchema();
  const uint64_t capacity = TupleCost() * capacity_tuples;
  switch (kind) {
    case SiteKind::kSimple: {
      auto site = std::make_unique<HashJoinSite>(0, sm, schema, schema, 0, 0,
                                                 capacity);
      site->BeginRound(1);
      return site;
    }
    case SiteKind::kHybrid:
      return std::make_unique<HybridHashJoinSite>(
          0, sm, schema, schema, 0, 0, capacity, TupleCost() * build_tuples,
          /*seed=*/5);
    case SiteKind::kSortMerge:
      return std::make_unique<MergeJoinSite>(0, sm, schema, schema, 0, 0,
                                             capacity);
  }
  return nullptr;
}

Tuples ReadAll(const storage::HeapFile& file) {
  Tuples out;
  EXPECT_TRUE(file.Scan([&](storage::Rid, std::span<const uint8_t> t) {
                    out.emplace_back(t.begin(), t.end());
                    return true;
                  })
                  .ok());
  return out;
}

/// Joins `build` with `probe` through one site: build, probe, Finish, and
/// for Simple its overflow rounds on this one site (each round feeds the
/// previous round's spools back, forced once a round stops shrinking them,
/// as the machine's rounds do across sites).
TupleBag JoinThroughSite(SiteKind kind, JoinSite& site, const Tuples& build,
                         const Tuples& probe) {
  TupleBag out;
  const TupleSink emit = [&](std::span<const uint8_t> t) {
    out.emplace(t.begin(), t.end());
  };
  for (const auto& t : build) site.AddBuildTuple(t);
  for (const auto& t : probe) site.AddProbeTuple(t, emit);
  EXPECT_TRUE(site.Finish(emit).ok());
  if (kind != SiteKind::kSimple) return out;
  auto& simple = static_cast<HashJoinSite&>(site);
  uint64_t prev_spooled = UINT64_MAX;
  for (uint64_t round = 2; simple.HasOverflow(); ++round) {
    const uint64_t spooled = simple.build_spool().num_tuples() +
                             simple.probe_spool().num_tuples();
    simple.BeginRound(round, /*forced=*/spooled >= prev_spooled);
    prev_spooled = spooled;
    for (const auto& t : ReadAll(simple.prev_build_spool())) {
      simple.AddBuildTuple(t);
    }
    for (const auto& t : ReadAll(simple.prev_probe_spool())) {
      simple.AddProbeTuple(t, emit);
    }
  }
  return out;
}

/// Oracle: build ++ probe for every pair with equal join keys.
TupleBag NestedLoopJoin(const Tuples& build, const Tuples& probe) {
  TupleBag out;
  std::vector<uint8_t> joined;
  for (const auto& b : build) {
    for (const auto& p : probe) {
      if (catalog::TupleView(&MiniSchema(), b).GetInt(0) ==
          catalog::TupleView(&MiniSchema(), p).GetInt(0)) {
        catalog::ConcatInto(joined, b, p);
        out.insert(joined);
      }
    }
  }
  return out;
}

class JoinSiteKindTest : public ::testing::TestWithParam<SiteKind> {};

// 300 build tuples over 40 keys (7 or 8 per key) into room for 50, and 200
// probe tuples over 50 keys (10 of them unmatched): every kind spills, and
// every kind must still produce exactly the nested-loop multiset.
TEST_P(JoinSiteKindTest, DuplicateKeysPastMemoryMatchNestedLoop) {
  Tuples build, probe;
  for (int32_t i = 0; i < 300; ++i) build.push_back(MiniTuple(i % 40, i));
  for (int32_t i = 0; i < 200; ++i) probe.push_back(MiniTuple(i % 50, -i));
  storage::StorageManager sm(4096, 1 << 20);
  const auto site = MakeSite(GetParam(), &sm, /*capacity_tuples=*/50,
                             build.size());
  const TupleBag joined = JoinThroughSite(GetParam(), *site, build, probe);
  EXPECT_TRUE(site->status().ok()) << site->status().ToString();
  EXPECT_EQ(joined.size(), 1200u);
  EXPECT_EQ(joined, NestedLoopJoin(build, probe));
}

// Tuples held by every file of `sm` (the site's spools are all it has).
uint64_t StoredTuples(const storage::StorageManager& sm) {
  uint64_t total = 0;
  for (storage::FileId id = 1; id < 64; ++id) {
    if (sm.HasFile(id)) total += sm.file(id).num_tuples();
  }
  return total;
}

// The site's node dies at the buffer pool's second write-back of a spool
// page, and the append that needed it latches status(). The node is then
// revived, so only the latch keeps later tuples out: nothing more is
// spooled, later tuples are dropped without an abort, and the latched
// error is the one Finish reports.
TEST_P(JoinSiteKindTest, FailedSpoolLatchesAndDropsLaterTuples) {
  sim::FaultInjector faults(sim::FaultConfig{}, /*num_disk_nodes=*/1);
  storage::StorageManager sm(4096, 8 * 4096, &faults, /*fault_node=*/0);
  const auto site =
      MakeSite(GetParam(), &sm, /*capacity_tuples=*/20, /*build_tuples=*/2000);
  faults.KillNodeAfterOps(0, 2);
  uint64_t stored_at_failure = 0;
  const auto note_failure = [&] {
    if (!site->status().ok() && stored_at_failure == 0) {
      stored_at_failure = StoredTuples(sm);
      faults.ReviveNode(0);
    }
  };
  const TupleSink emit = [](std::span<const uint8_t>) {};
  for (int32_t i = 0; i < 2000; ++i) {
    site->AddBuildTuple(MiniTuple(i, i));
    note_failure();
  }
  for (int32_t i = 0; i < 2000; ++i) {
    site->AddProbeTuple(MiniTuple(i, -i), emit);
    note_failure();
  }
  ASSERT_FALSE(site->status().ok());
  EXPECT_TRUE(site->status().IsUnavailable()) << site->status().ToString();
  EXPECT_GT(stored_at_failure, 0u);
  EXPECT_EQ(StoredTuples(sm), stored_at_failure);
  const Status first = site->status();
  if (GetParam() != SiteKind::kSimple) {
    EXPECT_EQ(site->Finish(emit).ToString(), first.ToString());
  }
  EXPECT_EQ(site->status().ToString(), first.ToString());
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, JoinSiteKindTest,
    ::testing::Values(SiteKind::kSimple, SiteKind::kHybrid,
                      SiteKind::kSortMerge),
    [](const ::testing::TestParamInfo<SiteKind>& info) {
      switch (info.param) {
        case SiteKind::kSimple:
          return "Simple";
        case SiteKind::kHybrid:
          return "Hybrid";
        case SiteKind::kSortMerge:
          return "SortMerge";
      }
      return "Unknown";
    });

TEST(AggregateTest, ScalarFunctions) {
  storage::StorageManager sm(4096, 64 * 1024);
  GroupedAggregator agg(-1, /*value_attr=*/1, AggFunc::kAvg, &MiniSchema(),
                        &sm.charge());
  for (int32_t v : {10, 20, 30, 40}) agg.Consume(MiniTuple(0, v));
  ASSERT_EQ(agg.num_groups(), 1u);
  const AggState& state = agg.groups().at(0);
  EXPECT_EQ(state.count, 4u);
  EXPECT_EQ(state.sum, 100);
  EXPECT_EQ(state.min, 10);
  EXPECT_EQ(state.max, 40);
  EXPECT_DOUBLE_EQ(state.Final(AggFunc::kAvg), 25.0);
  EXPECT_DOUBLE_EQ(state.Final(AggFunc::kCount), 4.0);
  EXPECT_DOUBLE_EQ(state.Final(AggFunc::kSum), 100.0);
  EXPECT_DOUBLE_EQ(state.Final(AggFunc::kMin), 10.0);
  EXPECT_DOUBLE_EQ(state.Final(AggFunc::kMax), 40.0);
}

TEST(AggregateTest, GroupedAndMerged) {
  storage::StorageManager sm(4096, 64 * 1024);
  GroupedAggregator left(0, 1, AggFunc::kSum, &MiniSchema(), &sm.charge());
  GroupedAggregator right(0, 1, AggFunc::kSum, &MiniSchema(), &sm.charge());
  for (int32_t i = 0; i < 100; ++i) {
    (i % 2 == 0 ? left : right).Consume(MiniTuple(i % 5, i));
  }
  // The global step: each of `right`'s partials arrives as one group.
  for (const auto& [group, state] : right.groups()) {
    left.MergeGroup(group, state);
  }
  EXPECT_EQ(left.num_groups(), 5u);
  int64_t total = 0;
  for (const auto& [group, state] : left.groups()) total += state.sum;
  EXPECT_EQ(total, 99 * 100 / 2);
}

TEST(AggregateTest, EmitResultsShape) {
  storage::StorageManager sm(4096, 64 * 1024);
  GroupedAggregator agg(0, 1, AggFunc::kMax, &MiniSchema(), &sm.charge());
  agg.Consume(MiniTuple(1, 10));
  agg.Consume(MiniTuple(1, 30));
  agg.Consume(MiniTuple(2, 20));
  std::vector<std::pair<int32_t, int32_t>> rows;
  const catalog::Schema schema = GroupedAggregator::ResultSchema();
  agg.EmitResults([&](std::span<const uint8_t> t) {
    const catalog::TupleView view(&schema, t);
    rows.emplace_back(view.GetInt(0), view.GetInt(1));
  });
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], std::make_pair(1, 30));
  EXPECT_EQ(rows[1], std::make_pair(2, 20));
}

}  // namespace
}  // namespace gammadb::exec
