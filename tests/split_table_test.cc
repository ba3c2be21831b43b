// Unit tests for split tables, packet accounting, bit-vector filters and
// the join hash table.

#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "exec/bit_vector_filter.h"
#include "exec/hash_table.h"
#include "exec/split_table.h"
#include "test_util.h"

namespace gammadb::exec {
namespace {

using gammadb::testing::MiniSchema;
using gammadb::testing::MiniTuple;

class SplitTableTest : public ::testing::Test {
 protected:
  SplitTableTest() : tracker_(sim::MachineParams::GammaDefaults(), 4) {
    tracker_.BeginPhase("p", sim::PhaseKind::kPipelined);
  }
  std::vector<SplitTable::Destination> Dests(int n) {
    received_.assign(static_cast<size_t>(n), {});
    std::vector<SplitTable::Destination> dests;
    for (int i = 0; i < n; ++i) {
      dests.push_back(SplitTable::Destination{
          i, [this, i](std::span<const uint8_t> t) {
            received_[static_cast<size_t>(i)].emplace_back(t.begin(),
                                                           t.end());
          }});
    }
    return dests;
  }
  sim::QueryMetrics Finish() {
    tracker_.EndPhase();
    return tracker_.Finish();
  }

  sim::CostTracker tracker_;
  std::vector<std::vector<std::vector<uint8_t>>> received_;
};

TEST_F(SplitTableTest, HashRoutingIsDeterministicByKey) {
  SplitTable split(0, &MiniSchema(), RouteSpec::HashAttr(0, 42), Dests(4),
                   &tracker_);
  for (int rep = 0; rep < 3; ++rep) {
    for (int32_t id = 0; id < 100; ++id) split.Send(MiniTuple(id, 0));
  }
  split.Close();
  // Every copy of the same key landed at the same destination.
  std::map<int32_t, int> homes;
  uint64_t total = 0;
  for (int d = 0; d < 4; ++d) {
    for (const auto& tuple : received_[static_cast<size_t>(d)]) {
      const catalog::TupleView view(&MiniSchema(), tuple);
      const int32_t id = view.GetInt(0);
      auto [it, inserted] = homes.emplace(id, d);
      if (!inserted) {
        EXPECT_EQ(it->second, d);
      }
      ++total;
    }
  }
  EXPECT_EQ(total, 300u);
  EXPECT_EQ(homes.size(), 100u);
}

TEST_F(SplitTableTest, RoundRobinBalancesExactly) {
  SplitTable split(0, &MiniSchema(), RouteSpec::RoundRobin(), Dests(4),
                   &tracker_);
  for (int32_t i = 0; i < 100; ++i) split.Send(MiniTuple(i, 0));
  split.Close();
  EXPECT_EQ(received_[0].size(), 25u);
  EXPECT_EQ(received_[3].size(), 25u);
}

TEST_F(SplitTableTest, RangeRouting) {
  SplitTable split(0, &MiniSchema(), RouteSpec::RangeAttr(0, {10, 20, 30}),
                   Dests(4), &tracker_);
  split.Send(MiniTuple(5, 0));
  split.Send(MiniTuple(10, 0));
  split.Send(MiniTuple(25, 0));
  split.Send(MiniTuple(1000, 0));
  split.Close();
  EXPECT_EQ(received_[0].size(), 1u);
  EXPECT_EQ(received_[1].size(), 1u);
  EXPECT_EQ(received_[2].size(), 1u);
  EXPECT_EQ(received_[3].size(), 1u);
}

TEST_F(SplitTableTest, RangeRoutingEmptyBoundaries) {
  // No boundaries = one range; everything lands on destination 0 instead
  // of tripping over an empty upper_bound.
  SplitTable split(0, &MiniSchema(), RouteSpec::RangeAttr(0, {}), Dests(4),
                   &tracker_);
  for (int32_t i = -5; i < 5; ++i) split.Send(MiniTuple(i, 0));
  split.Close();
  EXPECT_EQ(received_[0].size(), 10u);
  EXPECT_EQ(received_[1].size(), 0u);
  EXPECT_EQ(received_[3].size(), 0u);
}

TEST_F(SplitTableTest, RangeRoutingCollapsesDuplicateBoundaries) {
  // {10, 10, 20} describes the same three ranges as {10, 20}: a key equal
  // to the duplicated boundary must go one destination forward (not two),
  // and keys past it must not shift a destination too far.
  SplitTable split(0, &MiniSchema(), RouteSpec::RangeAttr(0, {10, 10, 20}),
                   Dests(3), &tracker_);
  split.Send(MiniTuple(5, 0));    // first range (< 10)
  split.Send(MiniTuple(10, 0));   // second range [10, 20)
  split.Send(MiniTuple(99, 0));   // last range (>= 20)
  split.Close();
  EXPECT_EQ(received_[0].size(), 1u);
  EXPECT_EQ(received_[1].size(), 1u);
  EXPECT_EQ(received_[2].size(), 1u);
}

TEST_F(SplitTableTest, BucketMapRoutingHonorsMap) {
  // 8 virtual buckets folded onto 2 of 3 destinations: destination 1 is
  // named by no bucket and must stay empty, and every copy of a key lands
  // where its bucket points.
  const std::vector<int32_t> map = {0, 2, 0, 2, 0, 2, 0, 2};
  SplitTable split(0, &MiniSchema(), RouteSpec::BucketMap(0, 0x5A17, map),
                   Dests(3), &tracker_);
  for (int rep = 0; rep < 2; ++rep) {
    for (int32_t id = 0; id < 64; ++id) split.Send(MiniTuple(id, 0));
  }
  split.Close();
  EXPECT_EQ(received_[1].size(), 0u);
  EXPECT_EQ(received_[0].size() + received_[2].size(), 128u);
  std::map<int32_t, size_t> homes;
  for (const size_t d : {size_t{0}, size_t{2}}) {
    for (const auto& tuple : received_[d]) {
      const catalog::TupleView view(&MiniSchema(), tuple);
      auto [it, inserted] = homes.emplace(view.GetInt(0), d);
      if (!inserted) {
        EXPECT_EQ(it->second, d);
      }
    }
  }
  EXPECT_EQ(homes.size(), 64u);
}

TEST_F(SplitTableTest, BucketMapSingleEntryDegeneratesToSingle) {
  SplitTable split(0, &MiniSchema(), RouteSpec::BucketMap(0, 7, {1}),
                   Dests(2), &tracker_);
  for (int32_t id = 0; id < 10; ++id) split.Send(MiniTuple(id, 0));
  split.Close();
  EXPECT_EQ(received_[1].size(), 10u);
}

TEST_F(SplitTableTest, PacketAccountingMatchesBytes) {
  // 24-byte tuples into a 2048-byte payload: 100 tuples to one remote
  // destination = 2400 bytes = 1 full packet + 1 partial at Close.
  SplitTable split(0, &MiniSchema(), RouteSpec::Single(1), Dests(2),
                   &tracker_);
  for (int32_t i = 0; i < 100; ++i) split.Send(MiniTuple(i, 0));
  split.Close();
  const auto metrics = Finish();
  const auto total = metrics.Totals();
  EXPECT_EQ(total.packets_sent, 2u);
  EXPECT_EQ(total.bytes_sent, 100u * MiniSchema().tuple_size());
  EXPECT_EQ(total.control_msgs, 2u);  // one EOS per destination
}

TEST_F(SplitTableTest, SameNodePacketsShortCircuit) {
  SplitTable split(0, &MiniSchema(), RouteSpec::Single(0), Dests(2),
                   &tracker_);
  for (int32_t i = 0; i < 200; ++i) split.Send(MiniTuple(i, 0));
  split.Close();
  const auto metrics = Finish();
  EXPECT_NEAR(metrics.ShortCircuitFraction(), 1.0, 1e-9);
  EXPECT_EQ(metrics.Totals().packets_sent, 0u);
}

TEST_F(SplitTableTest, ShortCircuitFractionIsOneOverN) {
  // §5.2.1: with n consumers aligned with n producers, 1/n of a producer's
  // round-robin traffic stays local.
  SplitTable split(2, &MiniSchema(), RouteSpec::RoundRobin(), Dests(4),
                   &tracker_);
  for (int32_t i = 0; i < 4000; ++i) split.Send(MiniTuple(i, 0));
  split.Close();
  const auto metrics = Finish();
  const auto total = metrics.Totals();
  const double fraction =
      static_cast<double>(total.bytes_short_circuited) /
      static_cast<double>(total.bytes_short_circuited + total.bytes_sent);
  EXPECT_NEAR(fraction, 0.25, 0.01);
}

TEST_F(SplitTableTest, BitFilterDropsNonMatching) {
  BitVectorFilter filter(1 << 16, 77);
  for (int32_t key = 0; key < 50; ++key) filter.Insert(key);
  SplitTable split(0, &MiniSchema(), RouteSpec::HashAttr(0, 42), Dests(2),
                   &tracker_, &filter, /*filter_attr=*/0);
  for (int32_t id = 0; id < 1000; ++id) split.Send(MiniTuple(id, 0));
  split.Close();
  // All 50 building keys pass; nearly all of the rest are dropped.
  EXPECT_GE(split.sent(), 50u);
  EXPECT_LT(split.sent(), 100u);
  EXPECT_EQ(split.sent() + split.filtered(), 1000u);
}

TEST(BitVectorFilterTest, NoFalseNegatives) {
  BitVectorFilter filter(4096, 3);
  for (int32_t key = 0; key < 300; ++key) filter.Insert(key * 7);
  for (int32_t key = 0; key < 300; ++key) {
    EXPECT_TRUE(filter.MayContain(key * 7));
  }
  EXPECT_GT(filter.FillFactor(), 0.0);
  EXPECT_LT(filter.FillFactor(), 0.2);
}

TEST(JoinHashTableTest, InsertProbeRoundTrip) {
  JoinHashTable table(1 << 20);
  const auto t1 = MiniTuple(1, 10);
  const auto t2 = MiniTuple(1, 20);
  EXPECT_TRUE(table.Insert(1, t1));
  EXPECT_TRUE(table.Insert(1, t2));
  EXPECT_TRUE(table.Insert(2, MiniTuple(2, 30)));
  int matches = 0;
  table.Probe(1, [&](std::span<const uint8_t>) { ++matches; });
  EXPECT_EQ(matches, 2);
  table.Probe(99, [&](std::span<const uint8_t>) { ++matches; });
  EXPECT_EQ(matches, 2);
}

TEST(JoinHashTableTest, CapacityEnforced) {
  const uint64_t tuple_cost =
      MiniSchema().tuple_size() + JoinHashTable::kPerEntryOverhead;
  JoinHashTable table(tuple_cost * 10);
  int inserted = 0;
  for (int32_t i = 0; i < 100; ++i) {
    if (table.Insert(i, MiniTuple(i, 0))) ++inserted;
  }
  EXPECT_EQ(inserted, 10);
  EXPECT_EQ(table.size(), 10u);
  table.InsertUnchecked(999, MiniTuple(999, 0));
  EXPECT_EQ(table.size(), 11u);
  EXPECT_GT(table.bytes_used(), table.capacity_bytes());
}

TEST(JoinHashTableTest, ExtractIfRemovesMatching) {
  JoinHashTable table(1 << 20);
  for (int32_t i = 0; i < 100; ++i) table.Insert(i, MiniTuple(i, 0));
  std::set<int32_t> extracted;
  const uint64_t removed = table.ExtractIf(
      [](int32_t key) { return key % 2 == 0; },
      [&](int32_t key, std::span<const uint8_t>) { extracted.insert(key); });
  EXPECT_EQ(removed, 50u);
  EXPECT_EQ(table.size(), 50u);
  EXPECT_TRUE(extracted.contains(42));
  int matches = 0;
  table.Probe(42, [&](std::span<const uint8_t>) { ++matches; });
  EXPECT_EQ(matches, 0);
  table.Probe(43, [&](std::span<const uint8_t>) { ++matches; });
  EXPECT_EQ(matches, 1);
}

TEST(JoinHashTableTest, ClearResetsAccounting) {
  JoinHashTable table(1 << 20);
  for (int32_t i = 0; i < 10; ++i) table.Insert(i, MiniTuple(i, 0));
  table.Clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.bytes_used(), 0u);
}

}  // namespace
}  // namespace gammadb::exec
