// Unit tests for the simulated disk and the LRU buffer pool, including the
// cost accounting they produce.

#include <algorithm>
#include <cstring>
#include <iterator>
#include <list>
#include <map>
#include <set>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "sim/cost_tracker.h"
#include "sim/fault_injector.h"
#include "storage/buffer_pool.h"
#include "storage/disk.h"
#include "storage/storage_manager.h"

namespace gammadb::storage {
namespace {

class BufferPoolTest : public ::testing::Test {
 protected:
  BufferPoolTest()
      : tracker_(sim::MachineParams::GammaDefaults(), 2),
        disk_(4096),
        pool_(&disk_, &charge_, 16 * 4096) {
    charge_.tracker = &tracker_;
    charge_.node = 0;
    tracker_.BeginPhase("test", sim::PhaseKind::kPipelined);
  }

  sim::CostTracker tracker_;
  ChargeContext charge_;
  SimulatedDisk disk_;
  BufferPool pool_;
};

TEST_F(BufferPoolTest, NewPageIsZeroed) {
  uint8_t* frame = nullptr;
  const uint32_t page_no = pool_.NewPage(&frame).value();
  ASSERT_NE(frame, nullptr);
  for (int i = 0; i < 4096; ++i) EXPECT_EQ(frame[i], 0);
  pool_.Unpin(page_no);
}

TEST_F(BufferPoolTest, WriteBackAndReload) {
  uint8_t* frame = nullptr;
  const uint32_t page_no = pool_.NewPage(&frame).value();
  std::memset(frame, 0x5A, 4096);
  pool_.MarkDirty(page_no, AccessIntent::kSequential);
  pool_.Unpin(page_no);
  pool_.FlushAll();
  pool_.Invalidate();

  frame = pool_.Pin(page_no, AccessIntent::kRandom).value();
  EXPECT_EQ(frame[0], 0x5A);
  EXPECT_EQ(frame[4095], 0x5A);
  pool_.Unpin(page_no);
}

TEST_F(BufferPoolTest, HitAvoidsDiskCharge) {
  uint8_t* frame = nullptr;
  const uint32_t page_no = pool_.NewPage(&frame).value();
  pool_.Unpin(page_no);
  pool_.FlushAll();
  pool_.Invalidate();

  pool_.Pin(page_no, AccessIntent::kRandom).value();
  pool_.Unpin(page_no);
  const uint64_t reads_after_miss = tracker_.current(0).pages_read;
  pool_.Pin(page_no, AccessIntent::kRandom).value();
  pool_.Unpin(page_no);
  EXPECT_EQ(tracker_.current(0).pages_read, reads_after_miss);
  EXPECT_GE(tracker_.current(0).buffer_hits, 1u);
}

TEST_F(BufferPoolTest, EvictsLeastRecentlyUsed) {
  // Fill past capacity; the earliest unpinned page must be evicted.
  std::vector<uint32_t> pages;
  for (int i = 0; i < 20; ++i) {
    uint8_t* frame = nullptr;
    const uint32_t page_no = pool_.NewPage(&frame).value();
    frame[0] = static_cast<uint8_t>(i);
    pool_.MarkDirty(page_no, AccessIntent::kSequential);
    pool_.Unpin(page_no);
    pages.push_back(page_no);
  }
  EXPECT_GT(pool_.evictions(), 0u);
  EXPECT_LE(pool_.frames_in_use(), pool_.capacity_frames());
  // Evicted dirty pages were written back; reloading sees the data.
  uint8_t* frame = pool_.Pin(pages[0], AccessIntent::kRandom).value();
  EXPECT_EQ(frame[0], 0);
  pool_.Unpin(frame != nullptr ? pages[0] : pages[0]);
}

TEST_F(BufferPoolTest, SequentialVersusRandomCharging) {
  uint8_t* frame = nullptr;
  const uint32_t a = pool_.NewPage(&frame).value();
  pool_.Unpin(a);
  const uint32_t b = pool_.NewPage(&frame).value();
  pool_.Unpin(b);
  pool_.FlushAll();
  pool_.Invalidate();

  const double disk_before_seq = tracker_.current(0).disk_sec;
  pool_.Pin(a, AccessIntent::kSequential).value();
  pool_.Unpin(a);
  const double seq_cost = tracker_.current(0).disk_sec - disk_before_seq;
  pool_.Pin(b, AccessIntent::kRandom).value();
  pool_.Unpin(b);
  const double random_cost =
      tracker_.current(0).disk_sec - disk_before_seq - seq_cost;
  // A random access (positioning ~13 ms) costs more than a sequential one
  // (missed-rotation overhead ~12 ms).
  EXPECT_GT(random_cost, seq_cost);
}

TEST_F(BufferPoolTest, CapacityInBytesScalesWithPageSize) {
  SimulatedDisk small_disk(2048);
  BufferPool small_pool(&small_disk, &charge_, 16 * 4096);
  EXPECT_EQ(small_pool.capacity_frames(), 2 * pool_.capacity_frames());
}

TEST_F(BufferPoolTest, RecycledBufferIsZeroedForNewPage) {
  // Evictions put 0xAB-filled buffers on the spare list; a NewPage that
  // reuses one must still hand out a zeroed page, and write zeros back.
  for (uint32_t i = 0; i < 3 * pool_.capacity_frames(); ++i) {
    uint8_t* frame = nullptr;
    const uint32_t page_no = pool_.NewPage(&frame).value();
    std::memset(frame, 0xAB, 4096);
    pool_.MarkDirty(page_no, AccessIntent::kSequential);
    pool_.Unpin(page_no);
  }
  ASSERT_GT(pool_.evictions(), 0u);
  uint8_t* frame = nullptr;
  const uint32_t fresh = pool_.NewPage(&frame).value();
  for (int i = 0; i < 4096; ++i) ASSERT_EQ(frame[i], 0) << "byte " << i;
  pool_.Unpin(fresh);
  ASSERT_TRUE(pool_.Invalidate().ok());
  std::vector<uint8_t> stored(4096, 0xFF);
  ASSERT_TRUE(disk_.Read(fresh, stored.data()).ok());
  EXPECT_EQ(stored, std::vector<uint8_t>(4096, 0));
}

TEST_F(BufferPoolTest, EvictsInUnpinOrderAndSparesPinnedFrames) {
  const uint32_t capacity = pool_.capacity_frames();
  std::vector<uint32_t> pages;
  for (uint32_t i = 0; i < capacity; ++i) {
    uint8_t* frame = nullptr;
    pages.push_back(pool_.NewPage(&frame).value());
    frame[0] = static_cast<uint8_t>(i);
    pool_.Unpin(pages.back());
  }
  // Re-touch page 0 (now most recent) and keep page 2 pinned throughout.
  pool_.Pin(pages[0], AccessIntent::kRandom).value();
  pool_.Unpin(pages[0]);
  uint8_t* held = pool_.Pin(pages[2], AccessIntent::kRandom).value();

  // Two new pages evict the two least-recent unpinned frames: 1, then 3.
  for (int i = 0; i < 2; ++i) {
    uint8_t* frame = nullptr;
    pool_.Unpin(pool_.NewPage(&frame).value());
  }
  EXPECT_EQ(pool_.evictions(), 2u);
  const uint64_t misses = pool_.misses();
  for (const uint32_t resident : {pages[0], pages[4], pages[capacity - 1]}) {
    pool_.Pin(resident, AccessIntent::kRandom).value();
    pool_.Unpin(resident);
  }
  EXPECT_EQ(pool_.misses(), misses);
  EXPECT_EQ(held[0], 2);
  pool_.Unpin(pages[2]);
  for (const uint32_t evicted : {pages[1], pages[3]}) {
    uint8_t* frame = pool_.Pin(evicted, AccessIntent::kRandom).value();
    EXPECT_EQ(frame[0], evicted == pages[1] ? 1 : 3);
    pool_.Unpin(evicted);
  }
  EXPECT_EQ(pool_.misses(), misses + 2);
}

TEST(DiskTest, ReadWriteRoundTrip) {
  SimulatedDisk disk(1024);
  const uint32_t page_no = disk.Allocate().value();
  std::vector<uint8_t> out(1024, 0xCC);
  disk.Write(page_no, out.data());
  std::vector<uint8_t> in(1024, 0);
  disk.Read(page_no, in.data());
  EXPECT_EQ(in, out);
  EXPECT_EQ(disk.num_pages(), 1u);
}

TEST(DiskTest, PagesKeepTheirBytesAcrossSlabs) {
  // 4 KB pages: 64 per 256 KB slab, so 600 pages span ten slabs. A page
  // twice the slab size gets one slab to itself.
  for (const uint32_t page_size : {4096u, 2 * BlockArena::kSlabBytes}) {
    SimulatedDisk disk(page_size);
    const uint32_t pages = page_size == 4096 ? 600 : 3;
    const std::vector<uint8_t> zeros(page_size, 0);
    for (uint32_t i = 0; i < pages; ++i) {
      ASSERT_EQ(disk.Allocate().value(), i);
      EXPECT_EQ(disk.StoredChecksum(i),
                SimulatedDisk::ComputeChecksum(zeros.data(), page_size));
    }
    std::vector<uint8_t> page(page_size);
    for (uint32_t i = 0; i < pages; ++i) {
      std::memset(page.data(), static_cast<int>(i * 7 + 1), page_size);
      ASSERT_TRUE(disk.Write(i, page.data()).ok());
    }
    for (uint32_t i = 0; i < pages; ++i) {
      ASSERT_TRUE(disk.Read(i, page.data()).ok());
      EXPECT_EQ(page.front(), static_cast<uint8_t>(i * 7 + 1)) << "page " << i;
      EXPECT_EQ(page.back(), static_cast<uint8_t>(i * 7 + 1)) << "page " << i;
      EXPECT_EQ(disk.StoredChecksum(i),
                SimulatedDisk::ComputeChecksum(page.data(), page_size));
    }
  }
}

/// `len` seeded random bytes.
std::vector<uint8_t> RandomBytes(size_t len, uint64_t seed) {
  std::vector<uint8_t> bytes(len);
  uint64_t state = seed;
  for (auto& byte : bytes) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    byte = static_cast<uint8_t>(state >> 56);
  }
  return bytes;
}

TEST(DiskTest, ChecksumCatchesEverySingleByteChange) {
  std::vector<uint8_t> page = RandomBytes(32768, 7);
  // Every length from one byte to past the first 256-byte vector block and
  // its ragged tail, then pages either side of 4 KB and the largest page:
  // each byte position, three flip patterns.
  std::vector<size_t> lengths;
  for (size_t len = 1; len <= 300; ++len) lengths.push_back(len);
  for (const size_t len : {4095, 4096, 32768}) lengths.push_back(len);
  for (const size_t len : lengths) {
    const uint32_t clean = SimulatedDisk::ComputeChecksum(page.data(), len);
    ASSERT_NE(clean, SimulatedDisk::ComputeChecksum(page.data(), len - 1))
        << "length " << len;
    for (size_t pos = 0; pos < len; ++pos) {
      for (const uint8_t flip : {0x01, 0x80, 0xFF}) {
        page[pos] ^= flip;
        ASSERT_NE(SimulatedDisk::ComputeChecksum(page.data(), len), clean)
            << "length " << len << ", byte " << pos << ", flip " << int{flip};
        page[pos] ^= flip;
      }
    }
  }
  // Trailing zero bytes still count.
  const std::vector<uint8_t> zeros(301, 0);
  for (size_t len = 0; len < 300; ++len) {
    EXPECT_NE(SimulatedDisk::ComputeChecksum(zeros.data(), len),
              SimulatedDisk::ComputeChecksum(zeros.data(), len + 1))
        << "length " << len;
  }
}

/// ComputeChecksum written out one lane at a time: 64 lanes of 32 bits over
/// 256-byte blocks (the last one zero-padded), each step (lane ^ word) *
/// odd; lane l of every eighth folds by Horner into vector lane l, the
/// eight folds into a 64-bit state, then the length and the avalanche.
uint32_t ReferenceChecksum(const uint8_t* data, size_t len) {
  constexpr size_t kBlock = 256;
  std::vector<uint8_t> padded((len + kBlock - 1) / kBlock * kBlock, 0);
  if (len > 0) std::memcpy(padded.data(), data, len);
  uint32_t lanes[64];
  for (uint32_t j = 0; j < 64; ++j) {
    lanes[j] = (0x811C9DC5u ^ 0xC4ECu) + j * 0x9E3779B9u;
  }
  for (size_t block = 0; block < padded.size(); block += kBlock) {
    for (size_t j = 0; j < 64; ++j) {
      uint32_t word = 0;
      std::memcpy(&word, padded.data() + block + 4 * j, sizeof(word));
      lanes[j] = (lanes[j] ^ word) * 0x9E3779B1u;
    }
  }
  uint64_t state = 0;
  for (size_t l = 0; l < 8; ++l) {
    uint32_t folded = lanes[l];
    for (size_t k = 1; k < 8; ++k) {
      folded = folded * 0x85EBCA77u + lanes[8 * k + l];
    }
    state = (state ^ folded) * 0x100000001b3ULL;
  }
  uint64_t h = state ^ len;
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return static_cast<uint32_t>(h ^ (h >> 32));
}

// Whichever clone the host dispatches to (AVX2 or the default one) computes
// the one function the scalar reference spells out.
TEST(DiskTest, ChecksumMatchesScalarReference) {
  std::vector<size_t> lengths;
  for (size_t len = 0; len <= 600; ++len) lengths.push_back(len);
  for (const size_t len : {1023, 4095, 4096, 4097, 32768}) {
    lengths.push_back(len);
  }
  for (const size_t len : lengths) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      const std::vector<uint8_t> page = RandomBytes(len, seed * 1000 + len);
      ASSERT_EQ(SimulatedDisk::ComputeChecksum(page.data(), len),
                ReferenceChecksum(page.data(), len))
          << "length " << len << ", seed " << seed;
    }
  }
}

TEST(DiskTest, FreedPageReadsFailAndWritesAreDropped) {
  SimulatedDisk disk(1024);
  const uint32_t page_no = disk.Allocate().value();
  disk.Free(page_no);
  EXPECT_EQ(disk.live_pages(), 0u);
  EXPECT_EQ(disk.num_pages(), 1u);  // the number stays in bounds
  std::vector<uint8_t> buf(1024, 0x11);
  EXPECT_TRUE(disk.Read(page_no, buf.data()).IsNotFound());
  EXPECT_TRUE(disk.Write(page_no, buf.data()).ok());
  EXPECT_TRUE(disk.Read(page_no, buf.data()).IsNotFound());
  // Page numbers are never reused; the slot is.
  EXPECT_EQ(disk.Allocate().value(), 1u);
  EXPECT_EQ(disk.num_slots(), 1u);
}

/// A page's bytes, all `value`.
std::vector<uint8_t> Filled(uint8_t value) {
  return std::vector<uint8_t>(4096, value);
}

// A dropped file's slots back the next file, which must see zeroed pages
// (on disk and through the pool) before its first write.
TEST(PageRecyclingTest, NewFileOnRecycledSlotsReadsZeros) {
  StorageManager sm(4096, 16 * 4096);
  const FileId old_id = sm.CreateFile();
  const std::vector<uint8_t> record(200, 0xAB);
  for (int i = 0; i < 19 * 40; ++i) {
    ASSERT_TRUE(sm.file(old_id).Append(record).ok());
  }
  ASSERT_TRUE(sm.pool().Invalidate().ok());
  const uint32_t old_pages = sm.file(old_id).num_pages();
  ASSERT_GT(old_pages, 16u);  // more pages than pool frames
  const uint32_t slots = sm.disk().num_slots();
  sm.DropFile(old_id);
  EXPECT_EQ(sm.disk().live_pages(), 0u);

  // Raw allocations on the recycled slots: zero bytes, zero checksum.
  const std::vector<uint8_t> zeros = Filled(0);
  std::vector<uint8_t> buf(4096);
  std::vector<uint32_t> fresh;
  for (uint32_t i = 0; i < old_pages; ++i) {
    fresh.push_back(sm.disk().Allocate().value());
    ASSERT_TRUE(sm.disk().Read(fresh.back(), buf.data()).ok());
    EXPECT_EQ(buf, zeros) << "page " << fresh.back();
    EXPECT_EQ(sm.disk().StoredChecksum(fresh.back()),
              SimulatedDisk::ComputeChecksum(zeros.data(), zeros.size()));
  }
  EXPECT_EQ(sm.disk().num_slots(), slots);  // no new host memory
  for (const uint32_t page_no : fresh) {
    uint8_t* frame = sm.pool().Pin(page_no, AccessIntent::kRandom).value();
    EXPECT_TRUE(
        std::all_of(frame, frame + 4096, [](uint8_t b) { return b == 0; }));
    sm.pool().Unpin(page_no);
  }

  // A heap file on the recycled slots holds only its own records.
  for (const uint32_t page_no : fresh) sm.pool().FreePage(page_no);
  const FileId new_id = sm.CreateFile();
  const std::vector<uint8_t> mine(200, 0x5C);
  for (int i = 0; i < 19 * 5; ++i) {
    ASSERT_TRUE(sm.file(new_id).Append(mine).ok());
  }
  ASSERT_TRUE(sm.pool().Invalidate().ok());
  uint64_t seen = 0;
  ASSERT_TRUE(sm.file(new_id)
                  .Scan([&](Rid, std::span<const uint8_t> r) {
                    EXPECT_TRUE(std::equal(r.begin(), r.end(), mine.begin()));
                    ++seen;
                    return true;
                  })
                  .ok());
  EXPECT_EQ(seen, 19u * 5);
  EXPECT_EQ(sm.disk().num_slots(), slots);
}

// A stale dirty frame of a freed page is still written back and charged
// (the simulated cost of dropping a file does not move), but its bytes must
// not land in the slot's new owner.
TEST_F(BufferPoolTest, StaleDirtyFrameKeepsItsChargeButNotItsBytes) {
  uint8_t* frame = nullptr;
  const uint32_t stale = pool_.NewPage(&frame).value();
  std::memset(frame, 0xAA, 4096);
  pool_.Unpin(stale);
  pool_.FreePage(stale);

  const uint32_t owner = pool_.NewPage(&frame).value();
  EXPECT_EQ(disk_.num_slots(), 1u);  // the stale page's slot, recycled
  std::memset(frame, 0xBB, 4096);
  pool_.Unpin(owner);
  ASSERT_TRUE(pool_.FlushAll().ok());  // writes both frames
  // Dirty the stale frame again so its write-back lands after the owner's.
  pool_.Pin(stale, AccessIntent::kRandom).value();
  pool_.MarkDirty(stale);
  pool_.Unpin(stale);
  ASSERT_TRUE(pool_.FlushAll().ok());

  EXPECT_EQ(tracker_.current(0).pages_written, 3u);
  EXPECT_EQ(tracker_.current(0).rand_page_ios, 1u);
  EXPECT_GT(tracker_.current(0).disk_sec, 0);
  std::vector<uint8_t> buf(4096);
  ASSERT_TRUE(disk_.Read(owner, buf.data()).ok());
  EXPECT_EQ(buf, Filled(0xBB));
  pool_.Discard();
  frame = pool_.Pin(owner, AccessIntent::kRandom).value();  // checksum OK
  EXPECT_EQ(frame[0], 0xBB);
  pool_.Unpin(owner);
  // The freed page itself is gone once its frame is.
  EXPECT_TRUE(pool_.Pin(stale, AccessIntent::kRandom).status().IsNotFound());
}

TEST_F(BufferPoolTest, CorruptionOnRecycledPageIsCaught) {
  uint8_t* frame = nullptr;
  const uint32_t first = pool_.NewPage(&frame).value();
  pool_.Unpin(first);
  ASSERT_TRUE(pool_.Invalidate().ok());
  pool_.FreePage(first);

  const uint32_t recycled = pool_.NewPage(&frame).value();
  std::memset(frame, 0x3C, 4096);
  pool_.Unpin(recycled);
  ASSERT_TRUE(pool_.Invalidate().ok());
  ASSERT_EQ(disk_.num_slots(), 1u);
  disk_.CorruptStoredPage(recycled);
  const auto pinned = pool_.Pin(recycled, AccessIntent::kRandom);
  ASSERT_FALSE(pinned.ok());
  EXPECT_TRUE(pinned.status().IsCorruption()) << pinned.status().ToString();
}

// Injected rot lasts until the page is written again: corrupting a page a
// second time must not flip the byte back and let the page verify.
TEST_F(BufferPoolTest, SecondCorruptionDoesNotHealThePage) {
  uint8_t* frame = nullptr;
  const uint32_t page = pool_.NewPage(&frame).value();
  std::memset(frame, 0x5A, 4096);
  pool_.Unpin(page);
  ASSERT_TRUE(pool_.Invalidate().ok());

  std::vector<uint8_t> once(4096);
  disk_.CorruptStoredPage(page);
  ASSERT_TRUE(disk_.Read(page, once.data()).ok());
  EXPECT_EQ(once[page % 4096], 0x5A ^ 0xFF);  // the first flip is unchanged
  disk_.CorruptStoredPage(page);
  std::vector<uint8_t> twice(4096);
  ASSERT_TRUE(disk_.Read(page, twice.data()).ok());
  EXPECT_EQ(twice, once);
  const auto pinned = pool_.PinRead(page, AccessIntent::kRandom);
  ASSERT_FALSE(pinned.ok());
  EXPECT_TRUE(pinned.status().IsCorruption()) << pinned.status().ToString();

  // A write replaces the rotted bytes and their checksum.
  ASSERT_TRUE(disk_.Write(page, Filled(0x11).data()).ok());
  disk_.CorruptStoredPage(page);
  EXPECT_TRUE(pool_.Pin(page, AccessIntent::kRandom).status().IsCorruption());
}

// The dirty-frame count the end-of-statement flush trusts to skip a clean
// pool must match a walk of every frame after any operation sequence:
// fresh pages, repeated MarkDirty, eviction write-backs, write-backs that
// fail on a dead disk (the frame stays dirty), Discard (which keeps pinned
// frames) and Invalidate. Pages stay pinned across steps too, so a count
// that only tracked pinned or only unpinned frames would drift.
TEST(DirtyFrameCountTest, MatchesRecountAfterEverySeededStep) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    sim::FaultInjector faults(sim::FaultConfig{}, /*num_disk_nodes=*/1);
    SimulatedDisk disk(4096, &faults, /*node=*/0);
    ChargeContext charge;  // uncharged
    BufferPool pool(&disk, &charge, 8 * 4096);
    Rng rng(seed);
    std::vector<uint32_t> pages;
    std::vector<uint32_t> held;  // pinned across steps, at most 3
    struct Seen {
      int new_pages = 0, double_marks = 0, evictions = 0, failed_writes = 0,
          discards = 0, invalidates = 0;
    } seen;
    for (int step = 0; step < 400; ++step) {
      SCOPED_TRACE(step);
      const uint64_t evictions = pool.evictions();
      switch (rng.Uniform(9)) {
        case 0:
        case 1: {  // append a page, sometimes keeping it pinned
          uint8_t* frame = nullptr;
          auto page = pool.NewPage(&frame);
          if (!page.ok()) {
            ++seen.failed_writes;  // the dirty victim could not be written
            break;
          }
          ++seen.new_pages;
          pages.push_back(*page);
          if (held.size() < 3 && rng.Uniform(2) == 0) {
            held.push_back(*page);
          } else {
            pool.Unpin(*page);
          }
          break;
        }
        case 2:
        case 3: {  // pin an existing page and dirty it zero to two times
          if (pages.empty()) break;
          const uint32_t page = pages[rng.Uniform(pages.size())];
          if (std::count(held.begin(), held.end(), page) != 0) break;
          auto frame = pool.Pin(page, AccessIntent::kRandom);
          if (!frame.ok()) {
            ++seen.failed_writes;  // dead disk: read or victim write failed
            break;
          }
          const uint64_t marks = rng.Uniform(3);
          for (uint64_t i = 0; i < marks; ++i) pool.MarkDirty(page);
          if (marks == 2) ++seen.double_marks;
          if (held.size() < 3 && rng.Uniform(3) == 0) {
            held.push_back(page);
          } else {
            pool.Unpin(page);
          }
          break;
        }
        case 4:  // dirty a held page while it stays pinned
          if (!held.empty()) pool.MarkDirty(held[rng.Uniform(held.size())]);
          break;
        case 5:  // release a held page
          if (!held.empty()) {
            pool.Unpin(held.back());
            held.pop_back();
          }
          break;
        case 6: {  // flush, which fails and leaves frames dirty when dead
          const uint32_t before = pool.dirty_frames();
          if (!pool.FlushAll().ok()) {
            ++seen.failed_writes;
            EXPECT_GT(pool.dirty_frames(), 0u);
            EXPECT_LE(pool.dirty_frames(), before);
          } else {
            EXPECT_EQ(pool.dirty_frames(), 0u);
          }
          break;
        }
        case 7:
          if (rng.Uniform(2) == 0) {
            pool.Discard();
            ++seen.discards;
          } else if (pool.Invalidate().ok()) {
            ++seen.invalidates;
          } else {
            ++seen.failed_writes;
          }
          break;
        case 8:  // the disk dies, or comes back
          if (faults.IsDead(0)) {
            faults.ReviveNode(0);
          } else {
            faults.KillNode(0);
          }
          break;
      }
      if (pool.evictions() > evictions) ++seen.evictions;
      ASSERT_EQ(pool.dirty_frames(), pool.CountDirtyFrames());
    }
    EXPECT_GT(seen.new_pages, 0);
    EXPECT_GT(seen.double_marks, 0);
    EXPECT_GT(seen.evictions, 0);
    EXPECT_GT(seen.failed_writes, 0);
    EXPECT_GT(seen.discards, 0);
    EXPECT_GT(seen.invalidates, 0);
    for (const uint32_t page : held) pool.Unpin(page);
  }
}

// Who owns a page's bytes (disk slot, shared clean frame, private dirty
// frame) must never show: a seeded random sequence of read pins, writable
// pins, new pages with appends, dirty evictions, frees with slot reuse,
// stored-page corruption, Discard, Invalidate and FlushAll is replayed
// against a plain model of the disk (page -> bytes) and of the LRU pool.
// After every step: each held pin reads the model frame's bytes, frame,
// eviction and dirty counts match, and every live page's stored bytes and
// checksum are the model's (a handed-over page reads back identically). A
// corrupted page fails its next miss as Corruption and is never seen
// through a cached frame.
class PageModel {
 public:
  static constexpr uint32_t kPageSize = 512;
  static constexpr uint32_t kFrames = 8;

  explicit PageModel(uint64_t seed)
      : pool_(&disk_, &charge_, kFrames * kPageSize), rng_(seed) {}

  struct Seen {
    int read_pins = 0, unshares = 0, dirty_evictions = 0, reused_slots = 0,
        corruption_misses = 0, corrupt_hits = 0, discarded_dirty = 0,
        invalidates = 0, flushes = 0, stale_write_backs = 0;
  };

  void Step() {
    switch (rng_.Uniform(12)) {
      case 0:
      case 1:
        PinLive(/*writable=*/false);
        break;
      case 2:
      case 3:
        PinLive(/*writable=*/true);
        break;
      case 4:
      case 5:
        NewPage();
        break;
      case 6:
        if (!held_.empty()) {
          const size_t i = rng_.Uniform(held_.size());
          if (held_[i].writable) Scribble(held_[i].page, held_[i].bytes);
        }
        break;
      case 7:
        Release();
        break;
      case 8:
        Free();
        break;
      case 9:
        Corrupt();
        break;
      case 10:
        Flush(/*drop=*/rng_.Uniform(2) == 0);
        break;
      case 11:
        Discard();
        break;
    }
  }

  void Check() {
    ASSERT_EQ(pool_.frames_in_use(), frames_.size());
    ASSERT_EQ(pool_.evictions(), evictions_);
    uint32_t dirty = 0;
    for (const auto& [page, frame] : frames_) dirty += frame.dirty ? 1 : 0;
    ASSERT_EQ(pool_.dirty_frames(), dirty);
    ASSERT_EQ(pool_.CountDirtyFrames(), dirty);
    for (const Held& pin : held_) {
      const std::vector<uint8_t>& want = frames_.at(pin.page).bytes;
      ASSERT_TRUE(std::equal(want.begin(), want.end(), pin.bytes))
          << "pinned page " << pin.page;
    }
    std::vector<uint8_t> buf(kPageSize);
    for (const auto& [page, bytes] : stored_) {
      ASSERT_TRUE(disk_.Read(page, buf.data()).ok());
      ASSERT_EQ(buf, bytes) << "stored page " << page;
      ASSERT_EQ(disk_.StoredChecksum(page) ==
                    SimulatedDisk::ComputeChecksum(bytes.data(), kPageSize),
                !Rotten(page))
          << "stored page " << page;
    }
  }

  void ReleaseAll() {
    while (!held_.empty()) Release();
  }

  const Seen& seen() const { return seen_; }

 private:
  struct Frame {
    std::vector<uint8_t> bytes;
    bool dirty = false;
    uint32_t pins = 0;
  };
  struct Held {
    uint32_t page;
    uint8_t* bytes;
    bool writable;
  };

  /// The pool's MakeRoom: evicts the least recently unpinned frame, writing
  /// it back first when dirty.
  void MakeRoom() {
    if (frames_.size() < kFrames) return;
    const uint32_t victim = lru_.front();
    lru_.pop_front();
    if (frames_.at(victim).dirty) {
      ++seen_.dirty_evictions;
      WriteBack(victim);
    }
    frames_.erase(victim);
    ++evictions_;
  }

  void WriteBack(uint32_t page) {
    Frame& frame = frames_.at(page);
    frame.dirty = false;
    if (!stored_.contains(page)) {
      ++seen_.stale_write_backs;  // a freed page: the bytes are dropped
      return;
    }
    stored_[page] = frame.bytes;
    written_[page] = frame.bytes;
  }

  /// Whether the page's stored bytes differ from the ones its checksum was
  /// computed over.
  bool Rotten(uint32_t page) const {
    return stored_.at(page) != written_.at(page);
  }

  void Hold(uint32_t page, uint8_t* bytes, bool writable) {
    Frame& frame = frames_.at(page);
    if (frame.pins++ == 0) lru_.remove(page);
    if (held_.size() < 3 && rng_.Uniform(2) == 0) {
      held_.push_back({page, bytes, writable});
    } else {
      Unpin(page);
    }
  }

  void Unpin(uint32_t page) {
    pool_.Unpin(page);
    if (--frames_.at(page).pins == 0) lru_.push_back(page);
  }

  /// Writes a few random bytes (sometimes the whole page) through a
  /// writable pin, in the pool and in the model frame.
  void Scribble(uint32_t page, uint8_t* bytes) {
    Frame& frame = frames_.at(page);
    const uint64_t writes = rng_.Uniform(2) == 0 ? kPageSize : 1 + rng_.Uniform(8);
    const auto value = static_cast<uint8_t>(rng_.Uniform(256));
    for (uint64_t i = 0; i < writes; ++i) {
      const uint64_t pos = writes == kPageSize ? i : rng_.Uniform(kPageSize);
      bytes[pos] = static_cast<uint8_t>(value + i);
      frame.bytes[pos] = bytes[pos];
    }
    pool_.MarkDirty(page);
    frame.dirty = true;
  }

  void PinLive(bool writable) {
    if (stored_.empty()) return;
    auto it = stored_.begin();
    std::advance(it, rng_.Uniform(stored_.size()));
    const uint32_t page = it->first;
    const bool cached = frames_.contains(page);
    if (cached && !frames_.at(page).dirty && writable) ++seen_.unshares;
    if (!cached) MakeRoom();
    uint8_t* bytes = nullptr;
    Status status;
    if (writable) {
      auto pinned = pool_.Pin(page, AccessIntent::kRandom);
      status = pinned.status();
      if (pinned.ok()) bytes = *pinned;
    } else {
      auto pinned = pool_.PinRead(page, AccessIntent::kSequential);
      status = pinned.status();
      if (pinned.ok()) bytes = const_cast<uint8_t*>(*pinned);
    }
    if (!cached && Rotten(page)) {
      ASSERT_TRUE(status.IsCorruption()) << status.ToString();
      ++seen_.corruption_misses;
      return;
    }
    ASSERT_TRUE(status.ok()) << status.ToString();
    if (cached && Rotten(page)) ++seen_.corrupt_hits;
    if (!cached) frames_[page].bytes = stored_.at(page);
    const std::vector<uint8_t>& want = frames_.at(page).bytes;
    ASSERT_TRUE(std::equal(want.begin(), want.end(), bytes)) << "page " << page;
    if (!writable) ++seen_.read_pins;
    if (writable && rng_.Uniform(3) != 0) Scribble(page, bytes);
    Hold(page, bytes, writable);
  }

  void NewPage() {
    MakeRoom();
    const uint32_t slots = disk_.num_slots();
    uint8_t* bytes = nullptr;
    auto page = pool_.NewPage(&bytes);
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    ASSERT_EQ(*page, next_page_++);
    if (disk_.num_slots() == slots) ++seen_.reused_slots;
    ASSERT_TRUE(std::all_of(bytes, bytes + kPageSize,
                            [](uint8_t b) { return b == 0; }));
    stored_[*page] = std::vector<uint8_t>(kPageSize, 0);
    written_[*page] = stored_[*page];
    Frame& frame = frames_[*page];
    frame.bytes.assign(kPageSize, 0);
    frame.dirty = true;
    // Append a record-sized run at the front, the way a heap page fills.
    const uint64_t run = 1 + rng_.Uniform(64);
    for (uint64_t i = 0; i < run; ++i) {
      bytes[i] = static_cast<uint8_t>(*page + i + 1);
      frame.bytes[i] = bytes[i];
    }
    frame.pins = 1;
    if (held_.size() < 3 && rng_.Uniform(2) == 0) {
      held_.push_back({*page, bytes, true});
    } else {
      Unpin(*page);
    }
  }

  void Release() {
    if (held_.empty()) return;
    const size_t i = rng_.Uniform(held_.size());
    const uint32_t page = held_[i].page;
    held_.erase(held_.begin() + static_cast<std::ptrdiff_t>(i));
    Unpin(page);
  }

  void Free() {
    if (stored_.empty()) return;
    auto it = stored_.begin();
    std::advance(it, rng_.Uniform(stored_.size()));
    const uint32_t page = it->first;
    for (const Held& pin : held_) {
      if (pin.page == page) return;
    }
    pool_.FreePage(page);
    stored_.erase(page);
    written_.erase(page);
  }

  void Corrupt() {
    if (stored_.empty()) return;
    auto it = stored_.begin();
    std::advance(it, rng_.Uniform(stored_.size()));
    disk_.CorruptStoredPage(it->first);
    // Rot sticks: a page that already fails its checksum is left alone.
    if (!Rotten(it->first)) it->second[it->first % kPageSize] ^= 0xFF;
  }

  void Flush(bool drop) {
    if (drop) {
      ASSERT_TRUE(pool_.Invalidate().ok());
      ++seen_.invalidates;
    } else {
      ASSERT_TRUE(pool_.FlushAll().ok());
      ++seen_.flushes;
    }
    for (auto& [page, frame] : frames_) {
      if (frame.dirty) WriteBack(page);
    }
    if (drop) DropUnpinned();
  }

  void Discard() {
    pool_.Discard();
    for (const auto& [page, frame] : frames_) {
      if (frame.pins == 0 && frame.dirty) ++seen_.discarded_dirty;
    }
    DropUnpinned();
  }

  void DropUnpinned() {
    std::erase_if(frames_, [](const auto& entry) {
      return entry.second.pins == 0;
    });
    lru_.clear();
  }

  ChargeContext charge_;  // uncharged
  SimulatedDisk disk_{kPageSize};
  BufferPool pool_;
  Rng rng_;
  uint32_t next_page_ = 0;
  std::map<uint32_t, std::vector<uint8_t>> stored_;  // live page -> bytes
  std::map<uint32_t, std::vector<uint8_t>> written_;  // checksummed bytes
  std::map<uint32_t, Frame> frames_;  // cached pages, freed ones included
  std::list<uint32_t> lru_;           // unpinned frames, oldest first
  std::vector<Held> held_;
  uint64_t evictions_ = 0;
  Seen seen_;
};

/// Replays one seed of the model, checking after every step.
PageModel::Seen ReplayModel(uint64_t seed) {
  SCOPED_TRACE(seed);
  PageModel model(seed);
  for (int step = 0; step < 1500; ++step) {
    SCOPED_TRACE(step);
    EXPECT_NO_FATAL_FAILURE(model.Step());
    EXPECT_NO_FATAL_FAILURE(model.Check());
    if (::testing::Test::HasFatalFailure()) break;
  }
  model.ReleaseAll();
  EXPECT_NO_FATAL_FAILURE(model.Check());
  return model.seen();
}

TEST(PageOwnershipTest, MatchesPlainModelAfterEverySeededStep) {
  PageModel::Seen total;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    const PageModel::Seen seen = ReplayModel(seed);
    ASSERT_FALSE(HasFatalFailure());
    total.unshares += seen.unshares;
    total.dirty_evictions += seen.dirty_evictions;
    total.reused_slots += seen.reused_slots;
    total.corruption_misses += seen.corruption_misses;
    total.corrupt_hits += seen.corrupt_hits;
    total.discarded_dirty += seen.discarded_dirty;
    total.invalidates += seen.invalidates;
    total.flushes += seen.flushes;
    total.stale_write_backs += seen.stale_write_backs;
    total.read_pins += seen.read_pins;
  }
  EXPECT_GT(total.read_pins, 0);
  EXPECT_GT(total.unshares, 0);
  EXPECT_GT(total.dirty_evictions, 0);
  EXPECT_GT(total.reused_slots, 0);
  EXPECT_GT(total.corruption_misses, 0);
  EXPECT_GT(total.corrupt_hits, 0);
  EXPECT_GT(total.discarded_dirty, 0);
  EXPECT_GT(total.invalidates, 0);
  EXPECT_GT(total.flushes, 0);
  EXPECT_GT(total.stale_write_backs, 0);
}

// A destroyed arena's slabs, full of its pages' bytes, back the next
// arena: the same seed replayed a second time starts from the first run's
// slabs and must match the model just as well.
TEST(PageOwnershipTest, MatchesPlainModelOnRecycledSlabs) {
  for (int run = 0; run < 2; ++run) {
    SCOPED_TRACE(run);
    ReplayModel(3);
    ASSERT_FALSE(HasFatalFailure());
  }
}

// Slabs outlive their disk: a second disk and pool built after the first
// is destroyed carve blocks from slabs that still hold the first one's
// bytes. No old byte may show through a new page, a never-written page or
// a checksum, and rot must still be caught.
TEST(RecycledSlabTest, SecondDiskSeesNoBytesOfTheFirst) {
  constexpr uint32_t kPages = 3 * BlockArena::kSlabBytes / 4096;
  ChargeContext charge;  // uncharged
  std::set<const uint8_t*> old_blocks;
  {
    SimulatedDisk disk(4096);
    BufferPool pool(&disk, &charge, 16 * 4096);
    for (uint32_t i = 0; i < kPages; ++i) {
      uint8_t* frame = nullptr;
      const uint32_t page_no = pool.NewPage(&frame).value();
      std::memset(frame, 0xA5, 4096);
      old_blocks.insert(frame);
      pool.MarkDirty(page_no, AccessIntent::kSequential);
      pool.Unpin(page_no);
    }
    ASSERT_TRUE(pool.Invalidate().ok());
  }

  SimulatedDisk disk(4096);
  BufferPool pool(&disk, &charge, 16 * 4096);
  const std::vector<uint8_t> zeros = Filled(0);
  const uint32_t zero_checksum =
      SimulatedDisk::ComputeChecksum(zeros.data(), zeros.size());
  auto is_zero = [](const uint8_t* bytes) {
    return std::all_of(bytes, bytes + 4096, [](uint8_t b) { return b == 0; });
  };
  uint32_t recycled = 0;
  std::vector<uint32_t> pages;
  for (uint32_t i = 0; i < kPages / 2; ++i) {
    uint8_t* frame = nullptr;
    pages.push_back(pool.NewPage(&frame).value());
    ASSERT_TRUE(is_zero(frame)) << "new page " << pages.back();
    recycled += old_blocks.contains(frame) ? 1 : 0;
    std::memset(frame, 0x5C, 4096);
    pool.MarkDirty(pages.back(), AccessIntent::kSequential);
    pool.Unpin(pages.back());
  }
  EXPECT_GT(recycled, 0u);  // the test reached recycled slabs

  // Pages never written: zeros through the disk and the pool, and the
  // zero-page checksum. Pinning one carves its block.
  for (uint32_t i = 0; i < kPages / 2; ++i) {
    const uint32_t page_no = disk.Allocate().value();
    EXPECT_EQ(disk.StoredChecksum(page_no), zero_checksum);
    std::vector<uint8_t> buf(4096, 0xFF);
    ASSERT_TRUE(disk.Read(page_no, buf.data()).ok());
    ASSERT_EQ(buf, zeros) << "page " << page_no;
    const uint8_t* frame =
        pool.PinRead(page_no, AccessIntent::kRandom).value();
    ASSERT_TRUE(is_zero(frame)) << "page " << page_no;
    recycled += old_blocks.contains(frame) ? 1 : 0;
    pool.Unpin(page_no);
  }
  EXPECT_GT(recycled, kPages / 2);

  // The written pages read back as written; a rotted one is caught.
  ASSERT_TRUE(pool.Invalidate().ok());
  for (const uint32_t page_no : pages) {
    const uint8_t* frame =
        pool.PinRead(page_no, AccessIntent::kRandom).value();
    ASSERT_TRUE(std::all_of(frame, frame + 4096,
                            [](uint8_t b) { return b == 0x5C; }));
    pool.Unpin(page_no);
  }
  ASSERT_TRUE(pool.Invalidate().ok());
  disk.CorruptStoredPage(pages.back());
  const auto pinned = pool.Pin(pages.back(), AccessIntent::kRandom);
  ASSERT_FALSE(pinned.ok());
  EXPECT_TRUE(pinned.status().IsCorruption()) << pinned.status().ToString();
}

#if defined(__SANITIZE_ADDRESS__)
// A cached slab is never freed, so ASan sees a use after free only because
// the cache poisons it: a stale pointer into a destroyed disk's pages must
// still fault.
TEST(RecycledSlabDeathTest, StalePagePointerFaultsUnderAsan) {
  const volatile uint8_t* stale = nullptr;
  {
    SimulatedDisk disk(4096);
    ChargeContext charge;
    BufferPool pool(&disk, &charge, 16 * 4096);
    uint8_t* frame = nullptr;
    const uint32_t page_no = pool.NewPage(&frame).value();
    stale = frame;
    pool.Unpin(page_no);
  }
  EXPECT_DEATH({ [[maybe_unused]] const uint8_t byte = *stale; },
               "use-after-poison");
}
#endif

TEST(DiskParamsTest, AccessTimesMatchPaperFacts) {
  // Paper §5.2.2: a 32 KB transfer takes ~13 ms, close to one random seek.
  sim::DiskParams disk;
  const double transfer_32k = 32768.0 / disk.transfer_bytes_per_sec;
  EXPECT_NEAR(transfer_32k, 0.013, 0.002);
  EXPECT_NEAR(disk.positioning_sec, transfer_32k, 0.002);
}

}  // namespace
}  // namespace gammadb::storage
