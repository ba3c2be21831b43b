#ifndef GAMMA_STORAGE_HEAP_FILE_H_
#define GAMMA_STORAGE_HEAP_FILE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/result.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"

namespace gammadb::storage {

/// Record id: a page's index *within its file* plus the slot on that page.
/// Stable across in-place updates; invalidated by deletion.
struct Rid {
  uint32_t page_index = 0;
  uint16_t slot = 0;

  bool operator==(const Rid&) const = default;
  bool operator<(const Rid& other) const {
    return page_index != other.page_index ? page_index < other.page_index
                                          : slot < other.slot;
  }
};

/// \brief A WiSS-style structured sequential file of records.
///
/// Records are appended into slotted pages; the file remembers its disk
/// pages in order, so a scan is a sequential sweep. Loading in key order
/// yields the paper's "clustered" organization (index order == key order)
/// with no extra machinery.
class HeapFile {
 public:
  /// Callback for scans: (rid, record bytes). Return false to stop the scan.
  using ScanCallback = std::function<bool(Rid, std::span<const uint8_t>)>;

  HeapFile(BufferPool* pool, const ChargeContext* charge);

  HeapFile(const HeapFile&) = delete;
  HeapFile& operator=(const HeapFile&) = delete;

  /// Returns the file's pages to the disk.
  ~HeapFile();

  uint32_t num_pages() const {
    return static_cast<uint32_t>(pages_.size());
  }
  uint64_t num_tuples() const { return num_tuples_; }

  /// Whether Append takes a `record_size`-byte record on `page_size`-byte
  /// pages: an empty page must hold it with its header and slot.
  static bool RecordFits(size_t record_size, uint32_t page_size) {
    return record_size + 16 <= page_size;
  }

  /// Appends a record, growing the file as needed. The record must fit
  /// (RecordFits). AppendBatch of one record.
  Result<Rid> Append(std::span<const uint8_t> record);

  /// Appends records 0..n-1 in order: `get(i)` returns record i (and makes
  /// any charge the caller books for it), `on_record(i, rid)` takes its rid.
  /// The tail page is pinned once and filled, yet the pool and the charges
  /// see exactly what n Append calls do: per record, the caller's charge
  /// and then one pin hit (the first record's pin is a real Pin and may
  /// miss); a record that does not fit also books its failed insert's hit
  /// before the NewPage. Page numbers, bytes, LRU order, fault draws and
  /// counts are Append's. On an error the records before it stay appended.
  template <typename Get, typename OnRecord>
  Status AppendBatch(size_t n, Get&& get, OnRecord&& on_record);

  /// Full sequential scan.
  Status Scan(const ScanCallback& callback) const;

  /// Sequential scan of the page range [first_page, last_page].
  Status ScanPages(uint32_t first_page, uint32_t last_page,
                   const ScanCallback& callback) const;

  /// Calls `visit(page_index, page)` on the pages [first_page, last_page]
  /// in file order, each read-pinned kSequential for its call: the pins of
  /// ScanPages, a page at a time instead of a record at a time. `visit`
  /// returns false to stop.
  template <typename Visit>
  Status VisitPages(uint32_t first_page, uint32_t last_page,
                    Visit&& visit) const {
    GAMMA_CHECK(first_page <= last_page && last_page < pages_.size());
    for (uint32_t i = first_page; i <= last_page; ++i) {
      const uint32_t page_no = pages_[i];
      const uint8_t* frame = nullptr;
      GAMMA_ASSIGN_OR_RETURN(
          frame, pool_->PinRead(page_no, AccessIntent::kSequential));
      const SlottedPage page = SlottedPage::View(frame, pool_->page_size());
      const bool keep_going = visit(i, page);
      pool_->Unpin(page_no);
      if (!keep_going) break;
    }
    return Status::OK();
  }

  /// VisitPages over the whole file: the pins of a full Scan.
  template <typename Visit>
  Status VisitPages(Visit&& visit) const {
    if (pages_.empty()) return Status::OK();
    return VisitPages(0, num_pages() - 1, std::forward<Visit>(visit));
  }

  /// VisitPages over the whole file without the pool's pins: each page's
  /// current bytes come from BufferPool::Peek, so the pool, the charges and
  /// the fault schedule see nothing. A page with no bytes yet holds no
  /// records and is skipped. Stops at the first page that cannot be read.
  template <typename Visit>
  Status PeekPages(Visit&& visit) const {
    for (uint32_t i = 0; i < pages_.size(); ++i) {
      const uint8_t* bytes = nullptr;
      GAMMA_ASSIGN_OR_RETURN(bytes, pool_->Peek(pages_[i]));
      if (bytes == nullptr) continue;
      if (!visit(i, SlottedPage::View(bytes, pool_->page_size()))) break;
    }
    return Status::OK();
  }

  /// Random fetch of one record (copied out).
  Result<std::vector<uint8_t>> Fetch(
      Rid rid, AccessIntent intent = AccessIntent::kRandom) const;

  /// Tombstones the record.
  Status Delete(Rid rid);

  /// Revives a tombstoned record at its original rid (recovery undo of a
  /// deletion — keeps the file byte-identical to one that never deleted).
  Status Restore(Rid rid, std::span<const uint8_t> record);

  /// Replaces the record; must fit on its page (fixed-size records always
  /// do). The rid remains valid.
  Status Update(Rid rid, std::span<const uint8_t> record);

  /// Forgets all tuples and returns every page to the disk (temporary-file
  /// reuse). The next Append starts on a fresh page.
  void Clear();

 private:
  BufferPool* pool_;
  const ChargeContext* charge_;
  std::vector<uint32_t> pages_;  // disk page numbers, in file order
  uint64_t num_tuples_ = 0;
};

template <typename Get, typename OnRecord>
Status HeapFile::AppendBatch(size_t n, Get&& get, OnRecord&& on_record) {
  if (n == 0) return Status::OK();
  const uint32_t page_size = pool_->page_size();
  std::span<const uint8_t> record = get(size_t{0});
  // The tail page, pinned once for the whole batch; `dirty` once a record
  // went onto it (a NewPage frame starts dirty).
  uint32_t page_no = 0;
  uint8_t* frame = nullptr;
  bool dirty = false;
  if (!pages_.empty()) {
    page_no = pages_.back();
    GAMMA_ASSIGN_OR_RETURN(frame,
                           pool_->Pin(page_no, AccessIntent::kSequential));
  }
  for (size_t i = 0;;) {
    GAMMA_CHECK_MSG(RecordFits(record.size(), page_size),
                    "record larger than a page");
    std::optional<uint16_t> slot;
    if (frame != nullptr) {
      SlottedPage page(frame, page_size);
      slot = page.Insert(record);
      if (slot.has_value() && !dirty) {
        pool_->MarkDirty(page_no, AccessIntent::kSequential);
        dirty = true;
      }
    }
    if (!slot.has_value()) {
      if (frame != nullptr) pool_->Unpin(page_no);
      frame = nullptr;
      GAMMA_ASSIGN_OR_RETURN(page_no, pool_->NewPage(&frame));
      SlottedPage::Initialize(frame, page_size);
      SlottedPage page(frame, page_size);
      slot = page.Insert(record);
      GAMMA_CHECK_MSG(slot.has_value(), "record does not fit on an empty page");
      pages_.push_back(page_no);
      dirty = true;
    }
    ++num_tuples_;
    on_record(i, Rid{static_cast<uint32_t>(pages_.size() - 1), *slot});
    if (++i == n) break;
    record = get(i);
    // The pin the next Append would take: the tail is resident and ours.
    pool_->BookHit();
  }
  pool_->Unpin(page_no);
  return Status::OK();
}

}  // namespace gammadb::storage

#endif  // GAMMA_STORAGE_HEAP_FILE_H_
