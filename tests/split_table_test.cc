// Unit tests for split tables, packet accounting, bit-vector filters, the
// join hash table and its tuple arena.

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "exec/bit_vector_filter.h"
#include "exec/hash_table.h"
#include "exec/split_table.h"
#include "exec/tuple_arena.h"
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


/// Probes `key` and returns the `val` attribute of every match, sorted.
std::vector<int32_t> ProbeVals(const JoinHashTable& table, int32_t key) {
  std::vector<int32_t> vals;
  table.Probe(key, [&](std::span<const uint8_t> t) {
    vals.push_back(catalog::TupleView(&MiniSchema(), t).GetInt(1));
  });
  std::sort(vals.begin(), vals.end());
  return vals;
}

TEST(JoinHashTableTest, DuplicateKeysReturnEveryMatch) {
  JoinHashTable table(1 << 22);
  // 40 copies of key 7, interleaved with 40 other keys.
  std::vector<int32_t> expected;
  for (int32_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(table.Insert(7, MiniTuple(7, i)));
    expected.push_back(i);
    ASSERT_TRUE(table.Insert(7 + (i + 1) * 4096, MiniTuple(0, -1)));
  }
  EXPECT_EQ(ProbeVals(table, 7), expected);
  EXPECT_EQ(ProbeVals(table, 7 + 4096), std::vector<int32_t>{-1});
  EXPECT_TRUE(ProbeVals(table, 8).empty());
}

TEST(JoinHashTableTest, GrowsPastSeveralRehashes) {
  // 50000 distinct keys drawn from the whole int32 range (so chains hold
  // several distinct keys), every key twice plus a third copy of every
  // tenth: 105000 entries, seven doublings of the head array. Insertion
  // order is neither sorted nor grouped by key.
  Rng rng(23);
  std::vector<int32_t> keys;
  std::set<int32_t> seen;
  while (keys.size() < 50000) {
    const auto key = static_cast<int32_t>(rng.Next64());
    if (seen.insert(key).second) keys.push_back(key);
  }
  JoinHashTable table(1ull << 30);
  uint64_t inserted = 0;
  for (int32_t copy = 0; copy < 3; ++copy) {
    for (size_t i = 0; i < keys.size(); ++i) {
      if (copy == 2 && i % 10 != 0) continue;
      ASSERT_TRUE(table.Insert(keys[i], MiniTuple(keys[i], copy)));
      ++inserted;
    }
  }
  ASSERT_EQ(inserted, 105000u);
  EXPECT_EQ(table.size(), inserted);
  EXPECT_EQ(table.bytes_used(),
            inserted * (MiniSchema().tuple_size() +
                        JoinHashTable::kPerEntryOverhead));
  for (size_t i = 0; i < keys.size(); ++i) {
    const std::vector<int32_t> expected =
        i % 10 == 0 ? std::vector<int32_t>{0, 1, 2}
                    : std::vector<int32_t>{0, 1};
    ASSERT_EQ(ProbeVals(table, keys[i]), expected) << "key " << keys[i];
    int id_mismatches = 0;
    table.Probe(keys[i], [&](std::span<const uint8_t> t) {
      id_mismatches +=
          catalog::TupleView(&MiniSchema(), t).GetInt(0) != keys[i];
    });
    ASSERT_EQ(id_mismatches, 0);
  }
  int32_t absent = 0;
  while (seen.contains(absent)) ++absent;
  EXPECT_TRUE(ProbeVals(table, absent).empty());
}

TEST(JoinHashTableTest, ExtractIfThenInsertAndProbe) {
  JoinHashTable table(1 << 22);
  for (int32_t i = 0; i < 3000; ++i) {
    ASSERT_TRUE(table.Insert(i % 1000, MiniTuple(i % 1000, i)));
  }
  const uint64_t per_tuple =
      MiniSchema().tuple_size() + JoinHashTable::kPerEntryOverhead;
  std::vector<int32_t> sunk_vals;
  const uint64_t removed = table.ExtractIf(
      [](int32_t key) { return key % 3 == 0; },
      [&](int32_t key, std::span<const uint8_t> t) {
        const catalog::TupleView view(&MiniSchema(), t);
        EXPECT_EQ(view.GetInt(0), key);
        sunk_vals.push_back(view.GetInt(1));
      });
  // 334 keys of 1000 are multiples of 3, three tuples each, handed over in
  // insertion order.
  EXPECT_EQ(removed, 1002u);
  ASSERT_EQ(sunk_vals.size(), 1002u);
  EXPECT_TRUE(std::is_sorted(sunk_vals.begin(), sunk_vals.end()));
  EXPECT_EQ(table.size(), 1998u);
  EXPECT_EQ(table.bytes_used(), 1998 * per_tuple);

  // New tuples after the purge, including keys that were just extracted.
  for (int32_t key = 0; key < 1200; key += 2) {
    ASSERT_TRUE(table.Insert(key, MiniTuple(key, 5000 + key)));
  }
  for (int32_t key = 0; key < 1200; ++key) {
    std::vector<int32_t> expected;
    if (key < 1000 && key % 3 != 0) {
      expected = {key, key + 1000, key + 2000};
    }
    if (key % 2 == 0) expected.push_back(5000 + key);
    ASSERT_EQ(ProbeVals(table, key), expected) << "key " << key;
  }
  EXPECT_EQ(table.size(), 1998u + 600u);
}

TEST(JoinHashTableTest, ClearThenReuse) {
  JoinHashTable table(1 << 22);
  for (int32_t i = 0; i < 5000; ++i) table.Insert(i, MiniTuple(i, i));
  table.Clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_TRUE(ProbeVals(table, 42).empty());
  for (int32_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(table.Insert(i * 2, MiniTuple(i * 2, -i)));
  }
  EXPECT_EQ(table.size(), 100u);
  for (int32_t key = 0; key < 5000; ++key) {
    const std::vector<int32_t> expected =
        key % 2 == 0 && key < 200 ? std::vector<int32_t>{-key / 2}
                                  : std::vector<int32_t>{};
    ASSERT_EQ(ProbeVals(table, key), expected) << "key " << key;
  }
}

TEST(JoinHashTableTest, InsertUncheckedPastCapacityKeepsAccounting) {
  const uint64_t per_tuple =
      MiniSchema().tuple_size() + JoinHashTable::kPerEntryOverhead;
  JoinHashTable table(per_tuple * 10);
  for (int32_t i = 0; i < 10; ++i) ASSERT_TRUE(table.Insert(i, MiniTuple(i, i)));
  EXPECT_FALSE(table.Insert(10, MiniTuple(10, 10)));
  for (int32_t i = 10; i < 2000; ++i) {
    table.InsertUnchecked(i % 20, MiniTuple(i % 20, i));
  }
  EXPECT_EQ(table.size(), 2000u);
  EXPECT_EQ(table.bytes_used(), 2000 * per_tuple);
  EXPECT_EQ(ProbeVals(table, 3).size(), 100u);
  const uint64_t removed = table.ExtractIf(
      [](int32_t key) { return key < 10; },
      [](int32_t, std::span<const uint8_t>) {});
  EXPECT_EQ(removed, 1000u);
  EXPECT_EQ(table.bytes_used(), 1000 * per_tuple);
  EXPECT_FALSE(table.Insert(1, MiniTuple(1, 1)));
  EXPECT_EQ(ProbeVals(table, 15).size(), 100u);
}

/// A tuple of `size` bytes whose content depends on `seed` at every byte.
std::vector<uint8_t> PatternTuple(size_t size, uint32_t seed) {
  std::vector<uint8_t> tuple(size);
  for (size_t i = 0; i < size; ++i) {
    tuple[i] = static_cast<uint8_t>((seed * 131 + i * 7 + (seed >> 8)) & 0xFF);
  }
  return tuple;
}

TEST(TupleArenaTest, RoundTripsSizeThatDoesNotDivideAChunk) {
  for (const size_t size : {size_t{208}, size_t{100}, size_t{3}}) {
    ASSERT_NE(TupleArena::kChunkBytes % size, 0u);
    TupleArena arena;
    // Enough tuples to fill several chunks.
    const auto n = static_cast<uint32_t>(4 * TupleArena::kChunkBytes / size);
    for (uint32_t i = 0; i < n; ++i) {
      ASSERT_EQ(arena.Append(PatternTuple(size, i)), i);
    }
    ASSERT_EQ(arena.size(), n);
    for (uint32_t i = 0; i < n; ++i) {
      const auto got = arena.Get(i);
      const auto want = PatternTuple(size, i);
      ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
          << "size " << size << " tuple " << i;
    }
  }
}

TEST(TupleArenaTest, TupleLargerThanAChunk) {
  const size_t size = TupleArena::kChunkBytes + 4099;
  TupleArena arena;
  for (uint32_t i = 0; i < 5; ++i) arena.Append(PatternTuple(size, i));
  for (uint32_t i = 0; i < 5; ++i) {
    const auto got = arena.Get(i);
    const auto want = PatternTuple(size, i);
    ASSERT_EQ(got.size(), size);
    ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
        << "tuple " << i;
  }
}

TEST(TupleArenaTest, MoveTruncateAndClearReuse) {
  TupleArena arena;
  for (uint32_t i = 0; i < 1000; ++i) arena.Append(PatternTuple(24, i));
  arena.Move(3, 999);
  arena.Truncate(500);
  EXPECT_EQ(arena.size(), 500u);
  const auto moved = arena.Get(3);
  const auto want = PatternTuple(24, 999);
  EXPECT_TRUE(std::equal(moved.begin(), moved.end(), want.begin(), want.end()));
  EXPECT_EQ(arena.Append(PatternTuple(24, 7)), 500u);

  // After Clear the next tuple may have a different (here larger) size;
  // the chunks are recut for it.
  arena.Clear();
  EXPECT_TRUE(arena.empty());
  for (uint32_t i = 0; i < 3000; ++i) arena.Append(PatternTuple(208, i));
  EXPECT_EQ(arena.tuple_size(), 208u);
  for (uint32_t i = 0; i < 3000; ++i) {
    const auto got = arena.Get(i);
    const auto want_i = PatternTuple(208, i);
    ASSERT_TRUE(std::equal(got.begin(), got.end(), want_i.begin(), want_i.end()))
        << "tuple " << i;
  }
}

}  // namespace
}  // namespace gammadb::exec
