// Unit tests for the WiSS-style heap file.

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "sim/cost_tracker.h"
#include "sim/fault_injector.h"
#include "storage/heap_file.h"
#include "storage/storage_manager.h"
#include "test_util.h"

namespace gammadb::storage {
namespace {

class HeapFileTest : public ::testing::Test {
 protected:
  HeapFileTest() : sm_(4096, 64 * 1024) { file_id_ = sm_.CreateFile(); }

  HeapFile& file() { return sm_.file(file_id_); }

  StorageManager sm_;
  FileId file_id_;
};

TEST_F(HeapFileTest, AppendScanRoundTrip) {
  const auto tuples = gammadb::testing::MiniRelation(100, 1);
  for (const auto& tuple : tuples) file().Append(tuple);
  EXPECT_EQ(file().num_tuples(), 100u);

  std::vector<std::vector<uint8_t>> scanned;
  file().Scan([&](Rid, std::span<const uint8_t> record) {
    scanned.emplace_back(record.begin(), record.end());
    return true;
  });
  ASSERT_EQ(scanned.size(), 100u);
  // Heap file preserves append order.
  for (size_t i = 0; i < 100; ++i) EXPECT_EQ(scanned[i], tuples[i]);
}

TEST_F(HeapFileTest, TuplesPerPageMatchesPaperArithmetic) {
  // §5.1: 17 Wisconsin tuples per 4 KB page, 589 pages for 10,000 tuples.
  const auto tuples = wisconsin::GenerateWisconsin(10000, 42);
  for (const auto& tuple : tuples) file().Append(tuple);
  EXPECT_EQ((4096u - 8) / (208 + 4), 19u);  // raw arithmetic bound
  const uint32_t per_page =
      static_cast<uint32_t>(10000 / file().num_pages());
  EXPECT_GE(per_page, 17u);
  EXPECT_LE(per_page, 19u);
  EXPECT_NEAR(static_cast<double>(file().num_pages()), 589.0, 70.0);
}

TEST_F(HeapFileTest, FetchByRid) {
  const auto t0 = gammadb::testing::MiniTuple(7, 14);
  const auto t1 = gammadb::testing::MiniTuple(8, 16);
  const Rid rid0 = file().Append(t0).value();
  const Rid rid1 = file().Append(t1).value();
  EXPECT_EQ(*file().Fetch(rid0), t0);
  EXPECT_EQ(*file().Fetch(rid1), t1);
}

TEST_F(HeapFileTest, FetchMissingRidFails) {
  EXPECT_TRUE(file().Fetch(Rid{5, 0}).status().IsNotFound());
  file().Append(gammadb::testing::MiniTuple(1, 2));
  EXPECT_TRUE(file().Fetch(Rid{0, 9}).status().IsNotFound());
}

TEST_F(HeapFileTest, DeleteRemovesFromScan) {
  const Rid rid0 = file().Append(gammadb::testing::MiniTuple(1, 2)).value();
  file().Append(gammadb::testing::MiniTuple(3, 6));
  ASSERT_TRUE(file().Delete(rid0).ok());
  EXPECT_EQ(file().num_tuples(), 1u);
  int seen = 0;
  file().Scan([&](Rid, std::span<const uint8_t> record) {
    const catalog::TupleView view(&gammadb::testing::MiniSchema(), record);
    EXPECT_EQ(view.GetInt(0), 3);
    ++seen;
    return true;
  });
  EXPECT_EQ(seen, 1);
  EXPECT_TRUE(file().Delete(rid0).IsNotFound());
}

TEST_F(HeapFileTest, UpdateInPlace) {
  const Rid rid = file().Append(gammadb::testing::MiniTuple(1, 2)).value();
  ASSERT_TRUE(file().Update(rid, gammadb::testing::MiniTuple(1, 99)).ok());
  const auto fetched = file().Fetch(rid);
  ASSERT_TRUE(fetched.ok());
  const catalog::TupleView view(&gammadb::testing::MiniSchema(), *fetched);
  EXPECT_EQ(view.GetInt(1), 99);
}

TEST_F(HeapFileTest, ScanEarlyStop) {
  for (int i = 0; i < 50; ++i) {
    file().Append(gammadb::testing::MiniTuple(i, i));
  }
  int seen = 0;
  file().Scan([&](Rid, std::span<const uint8_t>) {
    return ++seen < 10;
  });
  EXPECT_EQ(seen, 10);
}

TEST_F(HeapFileTest, ScanPagesSubrange) {
  for (int i = 0; i < 2000; ++i) {
    file().Append(gammadb::testing::MiniTuple(i, i));
  }
  ASSERT_GT(file().num_pages(), 3u);
  uint64_t subrange = 0;
  file().ScanPages(1, 2, [&](Rid rid, std::span<const uint8_t>) {
    EXPECT_GE(rid.page_index, 1u);
    EXPECT_LE(rid.page_index, 2u);
    ++subrange;
    return true;
  });
  EXPECT_GT(subrange, 0u);
  EXPECT_LT(subrange, 2000u);
}

TEST_F(HeapFileTest, ClearForgetsEverything) {
  for (int i = 0; i < 100; ++i) {
    file().Append(gammadb::testing::MiniTuple(i, i));
  }
  file().Clear();
  EXPECT_EQ(file().num_tuples(), 0u);
  EXPECT_EQ(file().num_pages(), 0u);
  // Reusable after Clear.
  file().Append(gammadb::testing::MiniTuple(1, 1));
  EXPECT_EQ(file().num_tuples(), 1u);
}

// --- AppendBatch against the per-record append it replaced ---------------

/// Everything a run of appends leaves that the simulation can see.
struct AppendOutcome {
  std::string status;
  std::vector<Rid> rids;
  uint32_t num_pages = 0;
  uint64_t num_tuples = 0;
  uint64_t hits = 0, misses = 0, evictions = 0, io_retries = 0;
  uint32_t dirty_frames = 0;
  /// The node's usage, seconds at %.17g.
  std::string charges;
  /// Every disk page's read status and bytes, after a final flush.
  std::vector<std::string> pages;
};

/// Variable-length records (40 to 339 bytes), so pages fill unevenly.
std::vector<uint8_t> Record(size_t i) {
  std::vector<uint8_t> record(40 + (i * 37) % 300);
  for (size_t b = 0; b < record.size(); ++b) {
    record[b] = static_cast<uint8_t>(i * 131 + b);
  }
  return record;
}

/// The reference AppendBatch must match: a file appended one record at a
/// time, as HeapFile::Append did before it became a batch of one (each
/// record pins the tail, inserts, marks it dirty and unpins; a record that
/// does not fit unpins the full page and takes a NewPage). Delete is
/// HeapFile's.
struct ReferenceFile {
  BufferPool* pool;
  std::vector<uint32_t> pages;
  uint64_t num_tuples = 0;

  Result<Rid> Append(std::span<const uint8_t> record) {
    if (!pages.empty()) {
      const uint32_t page_no = pages.back();
      uint8_t* frame = nullptr;
      GAMMA_ASSIGN_OR_RETURN(frame,
                             pool->Pin(page_no, AccessIntent::kSequential));
      SlottedPage page(frame, pool->page_size());
      if (auto slot = page.Insert(record)) {
        pool->MarkDirty(page_no, AccessIntent::kSequential);
        pool->Unpin(page_no);
        ++num_tuples;
        return Rid{static_cast<uint32_t>(pages.size() - 1), *slot};
      }
      pool->Unpin(page_no);
    }
    uint8_t* frame = nullptr;
    uint32_t page_no = 0;
    GAMMA_ASSIGN_OR_RETURN(page_no, pool->NewPage(&frame));
    SlottedPage::Initialize(frame, pool->page_size());
    SlottedPage page(frame, pool->page_size());
    const auto slot = page.Insert(record);
    pool->Unpin(page_no);
    pages.push_back(page_no);
    ++num_tuples;
    return Rid{static_cast<uint32_t>(pages.size() - 1), *slot};
  }

  Status Delete(Rid rid) {
    const uint32_t page_no = pages[rid.page_index];
    uint8_t* frame = nullptr;
    GAMMA_ASSIGN_OR_RETURN(frame, pool->Pin(page_no, AccessIntent::kRandom));
    SlottedPage page(frame, pool->page_size());
    EXPECT_TRUE(page.Delete(rid.slot));
    pool->MarkDirty(page_no, AccessIntent::kRandom);
    --num_tuples;
    pool->Unpin(page_no);
    return Status::OK();
  }
};

/// Appends 600 records to a file whose tail page holds a dead slot (the
/// first insert compacts it) and was evicted (the first pin misses), on an
/// 8-frame pool that evicts throughout, charging `instr_per_tuple_store`
/// per record before each append, as BuildFragment does. `batch` picks a
/// HeapFile and one AppendBatch, or the ReferenceFile and a per-record
/// loop.
AppendOutcome RunAppends(bool batch, const sim::FaultConfig& config,
                         uint64_t kill_after_ops) {
  sim::FaultInjector faults(config, /*num_disk_nodes=*/1);
  StorageManager sm(4096, 8 * 4096, &faults, /*fault_node=*/0);
  sim::CostTracker tracker(sim::MachineParams::GammaDefaults(), 1);
  tracker.BeginPhase("append", sim::PhaseKind::kPipelined);
  sm.BindTracker(&tracker, 0);
  HeapFile& file = sm.file(sm.CreateFile());
  ReferenceFile reference{&sm.pool(), {}, 0};
  HeapFile& other = sm.file(sm.CreateFile());
  Rid last;
  for (size_t i = 0; i < 30; ++i) {
    last = (batch ? file.Append(Record(i)) : reference.Append(Record(i)))
               .value();
  }
  EXPECT_TRUE((batch ? file.Delete(last) : reference.Delete(last)).ok());
  for (size_t i = 0; i < 200; ++i) EXPECT_TRUE(other.Append(Record(i)).ok());
  if (kill_after_ops > 0) faults.KillNodeAfterOps(0, kill_after_ops);

  constexpr size_t kRecords = 600;
  std::vector<std::vector<uint8_t>> records;
  for (size_t i = 0; i < kRecords; ++i) records.push_back(Record(1000 + i));
  const double store = tracker.hw().cost.instr_per_tuple_store;
  AppendOutcome out;
  Status status;
  if (batch) {
    status = file.AppendBatch(
        kRecords,
        [&](size_t i) {
          sm.charge().Cpu(store);
          return std::span<const uint8_t>(records[i]);
        },
        [&](size_t, Rid rid) { out.rids.push_back(rid); });
  } else {
    for (const std::vector<uint8_t>& record : records) {
      sm.charge().Cpu(store);
      Result<Rid> rid = reference.Append(record);
      if (!rid.ok()) {
        status = rid.status();
        break;
      }
      out.rids.push_back(*rid);
    }
  }
  out.status = status.ToString();
  out.num_pages =
      batch ? file.num_pages() : static_cast<uint32_t>(reference.pages.size());
  out.num_tuples = batch ? file.num_tuples() : reference.num_tuples;
  out.hits = sm.pool().hits();
  out.misses = sm.pool().misses();
  out.evictions = sm.pool().evictions();
  out.io_retries = sm.pool().io_retries();
  out.dirty_frames = sm.pool().dirty_frames();
  const sim::NodeUsage& usage = tracker.current(0);
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "disk %.17g cpu %.17g serial %.17g io %llu/%llu r%llu w%llu "
                "hits %llu",
                usage.disk_sec, usage.cpu_sec, usage.serial_sec,
                static_cast<unsigned long long>(usage.seq_page_ios),
                static_cast<unsigned long long>(usage.rand_page_ios),
                static_cast<unsigned long long>(usage.pages_read),
                static_cast<unsigned long long>(usage.pages_written),
                static_cast<unsigned long long>(usage.buffer_hits));
  out.charges = buf;

  faults.ReviveNode(0);
  EXPECT_TRUE(sm.pool().FlushAll().ok());
  std::vector<uint8_t> bytes(4096);
  for (uint32_t page = 0; page < sm.disk().num_pages(); ++page) {
    const Status read = sm.disk().Read(page, bytes.data());
    out.pages.push_back(read.ToString() +
                        std::string(bytes.begin(), bytes.end()));
  }
  sm.BindTracker(nullptr, 0);
  tracker.EndPhase();
  return out;
}

void ExpectSameOutcome(const AppendOutcome& batch,
                       const AppendOutcome& loop) {
  EXPECT_EQ(batch.status, loop.status);
  EXPECT_EQ(batch.rids, loop.rids);
  EXPECT_EQ(batch.num_pages, loop.num_pages);
  EXPECT_EQ(batch.num_tuples, loop.num_tuples);
  EXPECT_EQ(batch.hits, loop.hits);
  EXPECT_EQ(batch.misses, loop.misses);
  EXPECT_EQ(batch.evictions, loop.evictions);
  EXPECT_EQ(batch.io_retries, loop.io_retries);
  EXPECT_EQ(batch.dirty_frames, loop.dirty_frames);
  EXPECT_EQ(batch.charges, loop.charges);
  ASSERT_EQ(batch.pages.size(), loop.pages.size());
  for (size_t page = 0; page < batch.pages.size(); ++page) {
    EXPECT_EQ(batch.pages[page], loop.pages[page]) << "page " << page;
  }
}

TEST(AppendBatchTest, MatchesThePerRecordLoop) {
  const AppendOutcome loop = RunAppends(false, sim::FaultConfig{}, 0);
  ASSERT_EQ(loop.status, "OK");
  ASSERT_EQ(loop.rids.size(), 600u);
  EXPECT_GT(loop.evictions, 20u);
  EXPECT_GT(loop.misses, 0u);
  ExpectSameOutcome(RunAppends(true, sim::FaultConfig{}, 0), loop);
}

TEST(AppendBatchTest, MatchesThePerRecordLoopUnderWriteRetries) {
  sim::FaultConfig config;
  config.transient_write_prob = 0.3;
  const AppendOutcome loop = RunAppends(false, config, 0);
  ASSERT_EQ(loop.status, "OK");
  EXPECT_GT(loop.io_retries, 0u);
  ExpectSameOutcome(RunAppends(true, config, 0), loop);
}

TEST(AppendBatchTest, FailedWriteBackMidBatchLeavesTheLoopsState) {
  // The node dies on the 20th disk operation of the batch: an eviction's
  // write-back in some NewPage fails, after part of the records landed.
  const AppendOutcome loop = RunAppends(false, sim::FaultConfig{}, 20);
  ASSERT_NE(loop.status, "OK");
  EXPECT_GT(loop.rids.size(), 0u);
  EXPECT_LT(loop.rids.size(), 600u);
  ExpectSameOutcome(RunAppends(true, sim::FaultConfig{}, 20), loop);
}

TEST(AppendBatchTest, EmptyBatchTouchesNothing) {
  StorageManager sm(4096, 8 * 4096);
  HeapFile& file = sm.file(sm.CreateFile());
  ASSERT_TRUE(file.Append(Record(1)).ok());
  const uint64_t hits = sm.pool().hits();
  EXPECT_TRUE(file
                  .AppendBatch(
                      0, [](size_t) { return std::span<const uint8_t>(); },
                      [](size_t, Rid) { FAIL(); })
                  .ok());
  EXPECT_EQ(sm.pool().hits(), hits);
  EXPECT_EQ(file.num_tuples(), 1u);
}

}  // namespace
}  // namespace gammadb::storage
