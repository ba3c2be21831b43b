// Remaining-corner tests: storage-manager lifecycle, builder reuse, split
// routing conservation across every routing kind, sorter duplicate keys,
// and buffer-pool edge behaviour.

#include <map>
#include <set>

#include <gtest/gtest.h>

#include "catalog/schema.h"
#include "common/rng.h"
#include "exec/sort.h"
#include "exec/split_table.h"
#include "storage/storage_manager.h"
#include "test_util.h"

namespace gammadb {
namespace {

using gammadb::testing::MiniSchema;
using gammadb::testing::MiniTuple;

TEST(StorageManagerTest, FileAndIndexLifecycle) {
  storage::StorageManager sm(4096, 64 * 1024);
  const storage::FileId file_a = sm.CreateFile();
  const storage::FileId file_b = sm.CreateFile();
  EXPECT_NE(file_a, file_b);
  EXPECT_TRUE(sm.HasFile(file_a));
  sm.file(file_a).Append(MiniTuple(1, 2));
  sm.DropFile(file_a);
  EXPECT_FALSE(sm.HasFile(file_a));
  EXPECT_TRUE(sm.HasFile(file_b));

  const storage::IndexId index = sm.CreateIndex();
  sm.index(index).Insert(1, storage::Rid{0, 0});
  EXPECT_EQ(sm.index(index).num_entries(), 1u);
  sm.DropIndex(index);
}

TEST(StorageManagerTest, TrackerBindingIsOptional) {
  storage::StorageManager sm(4096, 64 * 1024);
  // Everything works uncharged with no tracker bound.
  const storage::FileId file = sm.CreateFile();
  for (int i = 0; i < 100; ++i) sm.file(file).Append(MiniTuple(i, i));
  EXPECT_EQ(sm.file(file).num_tuples(), 100u);
  EXPECT_EQ(sm.charge().tracker, nullptr);

  sim::CostTracker tracker(sim::MachineParams::GammaDefaults(), 1);
  sm.BindTracker(&tracker, 0);
  tracker.BeginPhase("p", sim::PhaseKind::kPipelined);
  sm.pool().Invalidate();
  sm.file(file).Scan([](storage::Rid, std::span<const uint8_t>) {
    return true;
  });
  tracker.EndPhase();
  sm.BindTracker(nullptr, -1);
  EXPECT_GT(tracker.Finish().Totals().pages_read, 0u);
}

TEST(TupleBuilderTest, ResetClearsAllFields) {
  catalog::TupleBuilder builder(&MiniSchema());
  builder.SetInt(0, 42).SetInt(1, 43).SetChar(2, "abc");
  builder.Reset();
  const catalog::TupleView view(&MiniSchema(), builder.bytes());
  EXPECT_EQ(view.GetInt(0), 0);
  EXPECT_EQ(view.GetInt(1), 0);
  EXPECT_EQ(view.GetChar(2)[0], '\0');
}

// Routing conservation: every sent tuple arrives at exactly one
// destination, for every routing kind and destination count.
class RoutingConservation
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RoutingConservation, EveryTupleDeliveredOnce) {
  const auto [kind_index, num_dests] = GetParam();
  exec::RouteSpec spec;
  switch (kind_index) {
    case 0:
      spec = exec::RouteSpec::HashAttr(0, 77);
      break;
    case 1:
      spec = exec::RouteSpec::RoundRobin();
      break;
    case 3:
      spec = exec::RouteSpec::Single(num_dests - 1);
      break;
    default:
      FAIL();
  }

  std::multiset<int32_t> received;
  std::vector<exec::SplitTable::Destination> dests;
  for (int i = 0; i < num_dests; ++i) {
    dests.push_back(exec::SplitTable::Destination{
        i, [&received](std::span<const uint8_t> t) {
          received.insert(catalog::TupleView(&MiniSchema(), t).GetInt(0));
        }});
  }
  exec::SplitTable split(0, &MiniSchema(), spec, std::move(dests), nullptr);

  std::multiset<int32_t> sent;
  Rng rng(static_cast<uint64_t>(kind_index * 100 + num_dests));
  for (int i = 0; i < 1000; ++i) {
    const int32_t id = static_cast<int32_t>(rng.Uniform(1000));
    sent.insert(id);
    split.Send(MiniTuple(id, 0));
  }
  split.Close();
  EXPECT_EQ(received, sent);
  EXPECT_EQ(split.sent(), 1000u);
}

INSTANTIATE_TEST_SUITE_P(KindsAndFanouts, RoutingConservation,
                         ::testing::Combine(::testing::Values(0, 1, 3),
                                            ::testing::Values(1, 3, 8)));

TEST(SorterEdgeTest, DuplicateKeysSurviveMultiRunMerge) {
  storage::StorageManager sm(4096, 1 << 20);
  const storage::FileId input = sm.CreateFile();
  Rng rng(5);
  std::map<int32_t, int> expected_counts;
  for (int i = 0; i < 3000; ++i) {
    const int32_t key = static_cast<int32_t>(rng.Uniform(20));  // heavy dups
    expected_counts[key] += 1;
    sm.file(input).Append(MiniTuple(key, i));
  }
  const storage::FileId sorted = exec::ExternalSort(
      sm, input, MiniSchema(), 0, /*memory=*/200 * MiniSchema().tuple_size());
  std::map<int32_t, int> counts;
  int32_t previous = INT32_MIN;
  sm.file(sorted).Scan([&](storage::Rid, std::span<const uint8_t> t) {
    const int32_t key = catalog::TupleView(&MiniSchema(), t).GetInt(0);
    EXPECT_GE(key, previous);
    previous = key;
    counts[key] += 1;
    return true;
  });
  EXPECT_EQ(counts, expected_counts);
}

TEST(BufferPoolEdgeTest, InvalidateKeepsPinnedFrames) {
  storage::StorageManager sm(4096, 64 * 1024);
  storage::BufferPool& pool = sm.pool();
  uint8_t* frame = nullptr;
  const uint32_t pinned = pool.NewPage(&frame).value();
  frame[0] = 0x77;
  pool.MarkDirty(pinned, storage::AccessIntent::kSequential);
  uint8_t* other_frame = nullptr;
  const uint32_t unpinned = pool.NewPage(&other_frame).value();
  pool.Unpin(unpinned);

  pool.Invalidate();
  // The pinned frame must survive with its contents; the unpinned one may go.
  EXPECT_EQ(frame[0], 0x77);
  pool.Unpin(pinned);
  EXPECT_GE(pool.frames_in_use(), 1u);
}

TEST(ScheduledCostsTest, AllnodesSchedulingCostMatchesPaperArithmetic) {
  // §6.2.3: 64 extra messages at ~7 ms each is about half a second.
  sim::CostTracker tracker(sim::MachineParams::GammaDefaults(), 16);
  tracker.ChargeScheduling(2, 16);  // build+join on 16 Allnodes processors
  const auto all = tracker.Finish();
  sim::CostTracker tracker_local(sim::MachineParams::GammaDefaults(), 16);
  tracker_local.ChargeScheduling(2, 8);  // Local: 8 processors
  const auto local = tracker_local.Finish();
  EXPECT_EQ(all.scheduling_msgs - local.scheduling_msgs, 64u);
  EXPECT_NEAR(all.scheduling_sec - local.scheduling_sec, 64 * 0.007, 1e-9);
}

}  // namespace
}  // namespace gammadb
