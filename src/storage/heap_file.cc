#include "storage/heap_file.h"

#include "common/macros.h"

namespace gammadb::storage {

HeapFile::HeapFile(BufferPool* pool, const ChargeContext* charge)
    : pool_(pool), charge_(charge) {
  GAMMA_CHECK(pool != nullptr && charge != nullptr);
}

HeapFile::~HeapFile() { Clear(); }

Result<Rid> HeapFile::Append(std::span<const uint8_t> record) {
  Rid rid;
  GAMMA_RETURN_NOT_OK(AppendBatch(
      1, [&](size_t) { return record; }, [&](size_t, Rid r) { rid = r; }));
  return rid;
}

Status HeapFile::Scan(const ScanCallback& callback) const {
  if (pages_.empty()) return Status::OK();
  return ScanPages(0, num_pages() - 1, callback);
}

Status HeapFile::ScanPages(uint32_t first_page, uint32_t last_page,
                           const ScanCallback& callback) const {
  return VisitPages(first_page, last_page,
                    [&](uint32_t i, const SlottedPage& page) {
                      for (uint16_t slot = 0; slot < page.slot_count();
                           ++slot) {
                        auto record = page.Get(slot);
                        if (record.empty()) continue;
                        if (!callback(Rid{i, slot}, record)) return false;
                      }
                      return true;
                    });
}

Result<std::vector<uint8_t>> HeapFile::Fetch(Rid rid,
                                             AccessIntent intent) const {
  if (rid.page_index >= pages_.size()) {
    return Status::NotFound("rid page out of range");
  }
  const uint32_t page_no = pages_[rid.page_index];
  const uint8_t* frame = nullptr;
  GAMMA_ASSIGN_OR_RETURN(frame, pool_->PinRead(page_no, intent));
  const SlottedPage page = SlottedPage::View(frame, pool_->page_size());
  auto record = page.Get(rid.slot);
  if (record.empty()) {
    pool_->Unpin(page_no);
    return Status::NotFound("rid slot not live");
  }
  std::vector<uint8_t> out(record.begin(), record.end());
  pool_->Unpin(page_no);
  return out;
}

Status HeapFile::Delete(Rid rid) {
  if (rid.page_index >= pages_.size()) {
    return Status::NotFound("rid page out of range");
  }
  const uint32_t page_no = pages_[rid.page_index];
  uint8_t* frame = nullptr;
  GAMMA_ASSIGN_OR_RETURN(frame, pool_->Pin(page_no, AccessIntent::kRandom));
  SlottedPage page(frame, pool_->page_size());
  const bool deleted = page.Delete(rid.slot);
  if (deleted) {
    pool_->MarkDirty(page_no, AccessIntent::kRandom);
    --num_tuples_;
  }
  pool_->Unpin(page_no);
  return deleted ? Status::OK() : Status::NotFound("rid slot not live");
}

Status HeapFile::Restore(Rid rid, std::span<const uint8_t> record) {
  if (rid.page_index >= pages_.size()) {
    return Status::NotFound("rid page out of range");
  }
  const uint32_t page_no = pages_[rid.page_index];
  uint8_t* frame = nullptr;
  GAMMA_ASSIGN_OR_RETURN(frame, pool_->Pin(page_no, AccessIntent::kRandom));
  SlottedPage page(frame, pool_->page_size());
  const bool restored = page.Restore(rid.slot, record);
  if (restored) {
    pool_->MarkDirty(page_no, AccessIntent::kRandom);
    ++num_tuples_;
  }
  pool_->Unpin(page_no);
  return restored ? Status::OK()
                  : Status::FailedPrecondition("slot not restorable");
}

Status HeapFile::Update(Rid rid, std::span<const uint8_t> record) {
  if (rid.page_index >= pages_.size()) {
    return Status::NotFound("rid page out of range");
  }
  const uint32_t page_no = pages_[rid.page_index];
  uint8_t* frame = nullptr;
  GAMMA_ASSIGN_OR_RETURN(frame, pool_->Pin(page_no, AccessIntent::kRandom));
  SlottedPage page(frame, pool_->page_size());
  const bool updated = page.Update(rid.slot, record);
  if (updated) pool_->MarkDirty(page_no, AccessIntent::kRandom);
  pool_->Unpin(page_no);
  return updated ? Status::OK()
                 : Status::ResourceExhausted("record does not fit on page");
}

void HeapFile::Clear() {
  for (const uint32_t page_no : pages_) pool_->FreePage(page_no);
  pages_.clear();
  num_tuples_ = 0;
}

}  // namespace gammadb::storage
