// Unit tests for selection operators (scan, clustered / non-clustered index
// select), predicates, the store consumer, external sort and merge join.

#include <algorithm>
#include <queue>
#include <set>

#include <gtest/gtest.h>

#include "exec/merge_join.h"
#include "exec/predicate.h"
#include "exec/select.h"
#include "exec/sort.h"
#include "exec/store.h"
#include "storage/storage_manager.h"
#include "test_util.h"

namespace gammadb::exec {
namespace {

using gammadb::testing::MiniSchema;
using gammadb::testing::MiniTuple;

TEST(PredicateTest, Forms) {
  const auto tuple = MiniTuple(5, 10);
  EXPECT_TRUE(Predicate::True().Eval(tuple, MiniSchema()));
  EXPECT_TRUE(Predicate::Eq(0, 5).Eval(tuple, MiniSchema()));
  EXPECT_FALSE(Predicate::Eq(0, 6).Eval(tuple, MiniSchema()));
  EXPECT_TRUE(Predicate::Range(1, 10, 20).Eval(tuple, MiniSchema()));
  EXPECT_FALSE(Predicate::Range(1, 11, 20).Eval(tuple, MiniSchema()));
  EXPECT_EQ(Predicate::True().compare_count(), 0);
  EXPECT_EQ(Predicate::Eq(0, 1).compare_count(), 1);
  EXPECT_EQ(Predicate::Range(0, 1, 2).compare_count(), 2);
}

class SelectTest : public ::testing::Test {
 protected:
  SelectTest() : sm_(4096, 64 * 1024) {
    file_id_ = sm_.CreateFile();
    // Load in key order so a clustered index is legitimate.
    for (int32_t id = 0; id < 2000; ++id) {
      rids_.push_back(sm_.file(file_id_).Append(MiniTuple(id, id * 2)).value());
    }
    clustered_id_ = sm_.CreateIndex();
    std::vector<storage::BTree::Entry> entries;
    for (int32_t id = 0; id < 2000; ++id) {
      entries.push_back({id, rids_[static_cast<size_t>(id)]});
    }
    sm_.index(clustered_id_).BulkLoad(entries);

    // Non-clustered index on val (== id*2): same rids keyed differently.
    nc_id_ = sm_.CreateIndex();
    std::vector<storage::BTree::Entry> nc_entries;
    for (int32_t id = 0; id < 2000; ++id) {
      nc_entries.push_back({id * 2, rids_[static_cast<size_t>(id)]});
    }
    sm_.index(nc_id_).BulkLoad(nc_entries);
  }

  std::multiset<int32_t> Collect(const ScanStats& stats,
                                 std::vector<std::vector<uint8_t>>* out) {
    (void)stats;
    std::multiset<int32_t> ids;
    for (const auto& tuple : *out) {
      ids.insert(catalog::TupleView(&MiniSchema(), tuple).GetInt(0));
    }
    return ids;
  }

  storage::StorageManager sm_;
  storage::FileId file_id_;
  storage::IndexId clustered_id_;
  storage::IndexId nc_id_;
  std::vector<storage::Rid> rids_;
};

TEST_F(SelectTest, FileScanMatchesPredicate) {
  std::vector<std::vector<uint8_t>> out;
  const auto stats = SelectScan(
      sm_.file(file_id_), MiniSchema(), Predicate::Range(0, 100, 119),
      sm_.charge(),
      [&](std::span<const uint8_t> t) { out.emplace_back(t.begin(), t.end()); }).value();
  EXPECT_EQ(stats.examined, 2000u);
  EXPECT_EQ(stats.emitted, 20u);
  EXPECT_EQ(out.size(), 20u);
}

TEST_F(SelectTest, ClusteredIndexSelectReadsOnlyRange) {
  std::vector<std::vector<uint8_t>> out;
  const auto stats = ClusteredIndexSelect(
      sm_.file(file_id_), sm_.index(clustered_id_), /*key_attr=*/0,
      MiniSchema(), Predicate::Range(0, 100, 119), sm_.charge(),
      [&](std::span<const uint8_t> t) { out.emplace_back(t.begin(), t.end()); }).value();
  EXPECT_EQ(stats.emitted, 20u);
  // Only the page range holding keys 100..119 is examined, far fewer than
  // a full scan.
  EXPECT_LT(stats.examined, 400u);
  const auto ids = Collect(stats, &out);
  EXPECT_EQ(*ids.begin(), 100);
  EXPECT_EQ(*ids.rbegin(), 119);
}

TEST_F(SelectTest, ClusteredIndexEmptyRange) {
  std::vector<std::vector<uint8_t>> out;
  const auto stats = ClusteredIndexSelect(
      sm_.file(file_id_), sm_.index(clustered_id_), /*key_attr=*/0,
      MiniSchema(), Predicate::Range(0, 5000, 6000), sm_.charge(),
      [&](std::span<const uint8_t> t) { out.emplace_back(t.begin(), t.end()); }).value();
  EXPECT_EQ(stats.examined, 0u);
  EXPECT_EQ(stats.emitted, 0u);
}

TEST_F(SelectTest, NonClusteredIndexSelect) {
  std::vector<std::vector<uint8_t>> out;
  const auto stats = NonClusteredIndexSelect(
      sm_.file(file_id_), sm_.index(nc_id_), /*key_attr=*/1,
      MiniSchema(), Predicate::Range(1, 200, 238),  // val in [200,238] -> ids 100..119
      sm_.charge(),
      [&](std::span<const uint8_t> t) { out.emplace_back(t.begin(), t.end()); }).value();
  EXPECT_EQ(stats.emitted, 20u);
  EXPECT_EQ(stats.examined, 20u);  // exactly the qualifying tuples fetched
  const auto ids = Collect(stats, &out);
  EXPECT_EQ(*ids.begin(), 100);
  EXPECT_EQ(*ids.rbegin(), 119);
}

// A B-tree entry whose record was deleted behind the index's back is a
// Corruption status, not a process abort; the records before it were
// already emitted.
TEST_F(SelectTest, DanglingIndexEntryIsCorruption) {
  ASSERT_TRUE(sm_.file(file_id_).Delete(rids_[110]).ok());
  std::vector<std::vector<uint8_t>> out;
  const auto stats = NonClusteredIndexSelect(
      sm_.file(file_id_), sm_.index(nc_id_), /*key_attr=*/1, MiniSchema(),
      Predicate::Range(1, 200, 238), sm_.charge(),
      [&](std::span<const uint8_t> t) { out.emplace_back(t.begin(), t.end()); });
  ASSERT_FALSE(stats.ok());
  EXPECT_TRUE(stats.status().IsCorruption()) << stats.status().ToString();
  EXPECT_EQ(out.size(), 10u);
}

TEST_F(SelectTest, ExactMatchThroughIndex) {
  std::vector<std::vector<uint8_t>> out;
  ClusteredIndexSelect(
      sm_.file(file_id_), sm_.index(clustered_id_), /*key_attr=*/0,
      MiniSchema(), Predicate::Eq(0, 777), sm_.charge(),
      [&](std::span<const uint8_t> t) { out.emplace_back(t.begin(), t.end()); });
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(catalog::TupleView(&MiniSchema(), out[0]).GetInt(1), 1554);
}

TEST(StoreTest, AppendsAndCounts) {
  storage::StorageManager sm(4096, 64 * 1024);
  const storage::FileId file_id = sm.CreateFile();
  StoreConsumer store(&sm.file(file_id), &sm.charge());
  for (int32_t i = 0; i < 50; ++i) store.Consume(MiniTuple(i, i));
  EXPECT_EQ(store.stored(), 50u);
  EXPECT_EQ(sm.file(file_id).num_tuples(), 50u);
}

TEST(SortTest, SortsAcrossRuns) {
  storage::StorageManager sm(4096, 256 * 1024);
  const storage::FileId input_id = sm.CreateFile();
  const auto tuples = gammadb::testing::MiniRelation(5000, 3);
  for (const auto& tuple : tuples) sm.file(input_id).Append(tuple);

  // Tiny sort memory forces a real merge: 5000 tuples at 500 per run is 10
  // runs.
  const uint64_t memory = 500 * MiniSchema().tuple_size();
  const storage::FileId sorted_id =
      ExternalSort(sm, input_id, MiniSchema(), /*attr=*/0, memory);

  int32_t expected = 0;
  sm.file(sorted_id).Scan([&](storage::Rid, std::span<const uint8_t> t) {
    EXPECT_EQ(catalog::TupleView(&MiniSchema(), t).GetInt(0), expected++);
    return true;
  });
  EXPECT_EQ(expected, 5000);
  // Input untouched.
  EXPECT_EQ(sm.file(input_id).num_tuples(), 5000u);
}

/// The ExternalSort algorithm as it was before runs were sorted through a
/// tuple arena: each run's whole tuples sorted by std::sort on the key
/// alone, then a k-way merge through a min-heap of (key, run). Sorting is
/// not stable, so the order among equal keys is whatever these exact steps
/// produce; the arena version must reproduce it tuple for tuple.
std::vector<std::vector<uint8_t>> ReferenceSortOrder(
    const std::vector<std::vector<uint8_t>>& scan_order, int attr,
    size_t tuples_per_run) {
  struct SortTuple {
    int32_t key;
    std::vector<uint8_t> bytes;
  };
  std::vector<std::vector<SortTuple>> runs;
  for (size_t begin = 0; begin < scan_order.size(); begin += tuples_per_run) {
    std::vector<SortTuple> run;
    for (size_t i = begin;
         i < std::min(scan_order.size(), begin + tuples_per_run); ++i) {
      run.push_back(SortTuple{
          catalog::TupleView(&MiniSchema(), scan_order[i])
              .GetInt(static_cast<size_t>(attr)),
          scan_order[i]});
    }
    std::sort(run.begin(), run.end(),
              [](const SortTuple& a, const SortTuple& b) {
                return a.key < b.key;
              });
    runs.push_back(std::move(run));
  }
  std::vector<std::vector<uint8_t>> out;
  if (runs.size() == 1) {
    for (const SortTuple& t : runs[0]) out.push_back(t.bytes);
    return out;
  }
  using HeapItem = std::pair<int32_t, size_t>;
  auto greater = [](const HeapItem& a, const HeapItem& b) {
    return a.first > b.first;
  };
  std::priority_queue<HeapItem, std::vector<HeapItem>, decltype(greater)>
      heap(greater);
  std::vector<size_t> next(runs.size(), 0);
  for (size_t i = 0; i < runs.size(); ++i) {
    if (!runs[i].empty()) heap.emplace(runs[i][0].key, i);
  }
  while (!heap.empty()) {
    const size_t idx = heap.top().second;
    heap.pop();
    out.push_back(runs[idx][next[idx]].bytes);
    if (++next[idx] < runs[idx].size()) {
      heap.emplace(runs[idx][next[idx]].key, idx);
    }
  }
  return out;
}

TEST(SortTest, DuplicateKeyOrderMatchesReferenceAlgorithm) {
  // 6000 tuples over 13 distinct keys: every run is mostly ties, so any
  // change in how ties are permuted (a stable sort, a different merge
  // tie-break) changes the output sequence.
  storage::StorageManager sm(4096, 256 * 1024);
  const storage::FileId input_id = sm.CreateFile();
  Rng rng(17);
  for (int32_t i = 0; i < 6000; ++i) {
    ASSERT_TRUE(sm.file(input_id)
                    .Append(MiniTuple(static_cast<int32_t>(rng.Uniform(13)), i))
                    .ok());
  }
  std::vector<std::vector<uint8_t>> scan_order;
  ASSERT_TRUE(sm.file(input_id)
                  .Scan([&](storage::Rid, std::span<const uint8_t> t) {
                    scan_order.emplace_back(t.begin(), t.end());
                    return true;
                  })
                  .ok());

  for (const size_t tuples_per_run : {size_t{700}, size_t{10000}}) {
    const uint64_t memory = tuples_per_run * MiniSchema().tuple_size();
    Status error;
    const storage::FileId sorted_id =
        ExternalSort(sm, input_id, MiniSchema(), 0, memory, &error);
    ASSERT_TRUE(error.ok()) << error.ToString();
    std::vector<std::vector<uint8_t>> got;
    ASSERT_TRUE(sm.file(sorted_id)
                    .Scan([&](storage::Rid, std::span<const uint8_t> t) {
                      got.emplace_back(t.begin(), t.end());
                      return true;
                    })
                    .ok());
    const auto want = ReferenceSortOrder(scan_order, 0, tuples_per_run);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], want[i])
          << "position " << i << " with " << tuples_per_run
          << " tuples per run";
    }
    sm.DropFile(sorted_id);
  }
}

/// A file of `n` mini tuples whose pages mostly live on disk only (a pool
/// of eight frames), with stored page `corrupt_page` rotted.
storage::FileId CorruptedFile(storage::StorageManager& sm, int32_t n,
                              uint32_t corrupt_page) {
  const storage::FileId id = sm.CreateFile();
  for (int32_t i = 0; i < n; ++i) {
    GAMMA_CHECK(sm.file(id).Append(MiniTuple(i, i)).ok());
  }
  GAMMA_CHECK(sm.pool().FlushAll().ok());
  sm.disk().CorruptStoredPage(corrupt_page);
  return id;
}

TEST(SortTest, StorageErrorAbandonsSortAndReportsIt) {
  storage::StorageManager sm(4096, 8 * 4096);
  const storage::FileId input_id = CorruptedFile(sm, 5000, 3);
  for (const uint64_t memory : {uint64_t{1} << 20, uint64_t{24 * 500}}) {
    Status error;
    const storage::FileId sorted_id =
        ExternalSort(sm, input_id, MiniSchema(), 0, memory, &error);
    EXPECT_TRUE(error.IsCorruption()) << error.ToString();
    EXPECT_EQ(sm.file(sorted_id).num_tuples(), 0u);
  }
}

TEST(MergeJoinTest, ReadErrorIsReturnedNotShortAnswer) {
  storage::StorageManager sm(4096, 8 * 4096);
  const storage::FileId left_id = CorruptedFile(sm, 5000, 3);
  const storage::FileId right_id = sm.CreateFile();
  for (int32_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(sm.file(right_id).Append(MiniTuple(i, -i)).ok());
  }
  uint64_t emitted = 0;
  for (const bool corrupt_left : {true, false}) {
    const auto stats = SortMergeJoin(
        sm.file(corrupt_left ? left_id : right_id), MiniSchema(), 0,
        sm.file(corrupt_left ? right_id : left_id), MiniSchema(), 0,
        sm.charge(), [&](std::span<const uint8_t>) { ++emitted; });
    EXPECT_TRUE(stats.status.IsCorruption()) << stats.status.ToString();
    EXPECT_EQ(stats.output, 0u);
  }
  EXPECT_EQ(emitted, 0u);
}

TEST(SortTest, EmptyInput) {
  storage::StorageManager sm(4096, 64 * 1024);
  const storage::FileId input_id = sm.CreateFile();
  const storage::FileId sorted_id =
      ExternalSort(sm, input_id, MiniSchema(), 0, 1 << 20);
  EXPECT_EQ(sm.file(sorted_id).num_tuples(), 0u);
}

TEST(MergeJoinTest, JoinsSortedInputsWithDuplicates) {
  storage::StorageManager sm(4096, 256 * 1024);
  const storage::FileId left_id = sm.CreateFile();
  const storage::FileId right_id = sm.CreateFile();
  // left keys: 0,1,1,2,3 ; right keys: 1,1,2,4
  for (int32_t k : {0, 1, 1, 2, 3}) sm.file(left_id).Append(MiniTuple(k, k));
  for (int32_t k : {1, 1, 2, 4}) sm.file(right_id).Append(MiniTuple(k, -k));

  std::vector<std::vector<uint8_t>> out;
  const auto stats = SortMergeJoin(
      sm.file(left_id), MiniSchema(), 0, sm.file(right_id), MiniSchema(), 0,
      sm.charge(),
      [&](std::span<const uint8_t> t) { out.emplace_back(t.begin(), t.end()); });
  // key 1: 2x2 = 4 matches; key 2: 1. Total 5.
  EXPECT_EQ(stats.output, 5u);
  ASSERT_EQ(out.size(), 5u);
  const catalog::Schema joined =
      catalog::Schema::Concat(MiniSchema(), MiniSchema());
  for (const auto& tuple : out) {
    const catalog::TupleView view(&joined, tuple);
    EXPECT_EQ(view.GetInt(0), view.GetInt(3));  // equijoin keys agree
  }
}

TEST(MergeJoinTest, LargeRandomAgainstOracle) {
  storage::StorageManager sm(4096, 1 << 20);
  const storage::FileId left_id = sm.CreateFile();
  const storage::FileId right_id = sm.CreateFile();
  Rng rng(9);
  std::vector<std::vector<uint8_t>> left, right;
  for (int i = 0; i < 2000; ++i) {
    left.push_back(MiniTuple(static_cast<int32_t>(rng.Uniform(500)), i));
    right.push_back(MiniTuple(static_cast<int32_t>(rng.Uniform(500)), -i));
  }
  auto by_key = [](const std::vector<uint8_t>& a,
                   const std::vector<uint8_t>& b) {
    return catalog::TupleView(&MiniSchema(), a).GetInt(0) <
           catalog::TupleView(&MiniSchema(), b).GetInt(0);
  };
  std::sort(left.begin(), left.end(), by_key);
  std::sort(right.begin(), right.end(), by_key);
  for (const auto& t : left) sm.file(left_id).Append(t);
  for (const auto& t : right) sm.file(right_id).Append(t);

  uint64_t matches = 0;
  const auto stats = SortMergeJoin(
      sm.file(left_id), MiniSchema(), 0, sm.file(right_id), MiniSchema(), 0,
      sm.charge(), [&](std::span<const uint8_t>) { ++matches; });
  EXPECT_EQ(stats.output, matches);
  EXPECT_EQ(matches, gammadb::testing::ReferenceJoinCount(
                         left, MiniSchema(), 0, right, MiniSchema(), 0));
}

}  // namespace
}  // namespace gammadb::exec
