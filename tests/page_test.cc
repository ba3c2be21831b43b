// Unit and property tests for the slotted page.

#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "storage/page.h"

namespace gammadb::storage {
namespace {

std::vector<uint8_t> Record(uint8_t fill, size_t size) {
  return std::vector<uint8_t>(size, fill);
}

class PageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    buffer_.resize(4096);
    SlottedPage::Initialize(buffer_.data(), 4096);
  }
  SlottedPage Page() { return SlottedPage(buffer_.data(), 4096); }
  std::vector<uint8_t> buffer_;
};

TEST_F(PageTest, FreshPageIsEmpty) {
  auto page = Page();
  EXPECT_EQ(page.slot_count(), 0);
  EXPECT_EQ(page.live_count(), 0);
  EXPECT_GT(page.FreeSpace(), 4000u);
}

TEST_F(PageTest, InsertAndGetRoundTrip) {
  auto page = Page();
  const auto record = Record(0xAB, 100);
  const auto slot = page.Insert(record);
  ASSERT_TRUE(slot.has_value());
  const auto got = page.Get(*slot);
  ASSERT_EQ(got.size(), 100u);
  EXPECT_EQ(got[0], 0xAB);
  EXPECT_EQ(page.live_count(), 1);
}

TEST_F(PageTest, RejectsEmptyRecord) {
  auto page = Page();
  EXPECT_FALSE(page.Insert({}).has_value());
}

TEST_F(PageTest, FillsUntilFull) {
  auto page = Page();
  int inserted = 0;
  while (page.Insert(Record(1, 100)).has_value()) ++inserted;
  // 4096 bytes / (100 + 4-byte slot) ~ 39 records.
  EXPECT_GE(inserted, 35);
  EXPECT_LE(inserted, 40);
  EXPECT_LT(page.FreeSpace(), 104u);
}

TEST_F(PageTest, DeleteTombstonesSlot) {
  auto page = Page();
  const auto slot0 = *page.Insert(Record(1, 50));
  const auto slot1 = *page.Insert(Record(2, 50));
  EXPECT_TRUE(page.Delete(slot0));
  EXPECT_FALSE(page.IsLive(slot0));
  EXPECT_TRUE(page.Get(slot0).empty());
  // Neighbouring slot unaffected, slot ids stable.
  ASSERT_EQ(page.Get(slot1).size(), 50u);
  EXPECT_EQ(page.Get(slot1)[0], 2);
  EXPECT_FALSE(page.Delete(slot0));  // double delete fails
}

TEST_F(PageTest, DeleteMakesSpaceReusableViaCompaction) {
  auto page = Page();
  std::vector<uint16_t> slots;
  while (true) {
    auto slot = page.Insert(Record(3, 100));
    if (!slot.has_value()) break;
    slots.push_back(*slot);
  }
  // Free every other record, then insert records that only fit after
  // compaction reclaims the dead bytes.
  for (size_t i = 0; i < slots.size(); i += 2) page.Delete(slots[i]);
  int reinserted = 0;
  while (page.Insert(Record(4, 90)).has_value()) ++reinserted;
  EXPECT_GE(reinserted, static_cast<int>(slots.size() / 2) - 2);
}

TEST_F(PageTest, UpdateInPlaceSameSize) {
  auto page = Page();
  const auto slot = *page.Insert(Record(5, 64));
  EXPECT_TRUE(page.Update(slot, Record(6, 64)));
  EXPECT_EQ(page.Get(slot)[0], 6);
  EXPECT_EQ(page.live_count(), 1);
}

TEST_F(PageTest, UpdateGrowRelocatesWithinPage) {
  auto page = Page();
  const auto slot = *page.Insert(Record(7, 64));
  page.Insert(Record(8, 64));
  EXPECT_TRUE(page.Update(slot, Record(9, 200)));
  ASSERT_EQ(page.Get(slot).size(), 200u);
  EXPECT_EQ(page.Get(slot)[0], 9);
}

TEST_F(PageTest, UpdateFailsWhenTooLarge) {
  auto page = Page();
  const auto slot = *page.Insert(Record(1, 64));
  EXPECT_FALSE(page.Update(slot, Record(2, 8000)));
  // Old record is preserved on failure.
  ASSERT_EQ(page.Get(slot).size(), 64u);
  EXPECT_EQ(page.Get(slot)[0], 1);
}

TEST(PageSizesTest, MinAndMaxPageSizes) {
  for (uint32_t page_size : {64u, 2048u, 4096u, 32768u}) {
    std::vector<uint8_t> buffer(page_size);
    SlottedPage::Initialize(buffer.data(), page_size);
    SlottedPage page(buffer.data(), page_size);
    EXPECT_TRUE(page.Insert(Record(1, 16)).has_value()) << page_size;
  }
}

// Capacity is the number of inserts a real page takes: tiny, medium and
// Wisconsin-sized (208-byte) records on 2, 4 and 32 KB pages.
TEST(PageSizesTest, CapacityMatchesAFilledPage) {
  for (const uint32_t page_size : {2048u, 4096u, 32768u}) {
    for (const uint32_t record_size : {3u, 100u, 208u}) {
      std::vector<uint8_t> buffer(page_size);
      SlottedPage::Initialize(buffer.data(), page_size);
      SlottedPage page(buffer.data(), page_size);
      uint32_t inserted = 0;
      while (page.Insert(Record(1, record_size)).has_value()) ++inserted;
      EXPECT_EQ(inserted, SlottedPage::Capacity(page_size, record_size))
          << page_size << "-byte page, " << record_size << "-byte records";
    }
  }
}

// Property test: random insert/delete/update workloads stay consistent with
// a std::map oracle, across page sizes.
class PagePropertyTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(PagePropertyTest, MatchesOracleUnderRandomWorkload) {
  const uint32_t page_size = GetParam();
  std::vector<uint8_t> buffer(page_size);
  SlottedPage::Initialize(buffer.data(), page_size);
  SlottedPage page(buffer.data(), page_size);

  Rng rng(page_size);
  std::map<uint16_t, std::vector<uint8_t>> oracle;
  for (int step = 0; step < 2000; ++step) {
    const uint64_t action = rng.Uniform(10);
    if (action < 5) {  // insert
      const size_t size = 1 + rng.Uniform(page_size / 8);
      const auto record = Record(static_cast<uint8_t>(rng.Uniform(256)), size);
      const auto slot = page.Insert(record);
      if (slot.has_value()) oracle[*slot] = record;
    } else if (action < 8 && !oracle.empty()) {  // delete
      auto it = oracle.begin();
      std::advance(it, static_cast<long>(rng.Uniform(oracle.size())));
      EXPECT_TRUE(page.Delete(it->first));
      oracle.erase(it);
    } else if (!oracle.empty()) {  // update
      auto it = oracle.begin();
      std::advance(it, static_cast<long>(rng.Uniform(oracle.size())));
      const size_t size = 1 + rng.Uniform(page_size / 8);
      const auto record = Record(static_cast<uint8_t>(rng.Uniform(256)), size);
      if (page.Update(it->first, record)) it->second = record;
    }
  }
  EXPECT_EQ(page.live_count(), oracle.size());
  for (const auto& [slot, record] : oracle) {
    const auto got = page.Get(slot);
    ASSERT_EQ(got.size(), record.size());
    EXPECT_TRUE(std::equal(got.begin(), got.end(), record.begin()));
  }
}

INSTANTIATE_TEST_SUITE_P(AllPageSizes, PagePropertyTest,
                         ::testing::Values(512u, 2048u, 4096u, 8192u,
                                           16384u, 32768u));

}  // namespace
}  // namespace gammadb::storage
