#include "storage/buffer_pool.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

#include "common/macros.h"

namespace gammadb::storage {

BufferPool::BufferPool(SimulatedDisk* disk, const ChargeContext* charge,
                       uint64_t capacity_bytes)
    : disk_(disk), charge_(charge) {
  GAMMA_CHECK(disk != nullptr && charge != nullptr);
  const uint64_t frames = capacity_bytes / disk->page_size();
  // Keep at least a handful of frames so concurrent pins (B-tree descents
  // hold parent + child) always succeed.
  capacity_frames_ = static_cast<uint32_t>(std::max<uint64_t>(frames, 8));
}

BufferPool::~BufferPool() {
  // Intentionally no flush: accounting requires explicit FlushAll inside a
  // phase; destruction outside a query would charge to nothing anyway.
}

Status BufferPool::ReadWithRetry(uint32_t page_no, uint8_t* out,
                                 AccessIntent intent) {
  Status status;
  for (int attempt = 0; attempt <= kMaxIoRetries; ++attempt) {
    if (attempt > 0) {
      ++io_retries_;
      charge_->SerialSec(kRetryBackoffSec);
      // A retry re-seeks from scratch no matter how the first pass streamed.
      intent = AccessIntent::kRandom;
    }
    status = disk_->Read(page_no, out);
    if (status.ok() || status.IsIOError()) {
      // The platters spun either way; a transient failure costs the same
      // access time as a success.
      charge_->DiskRead(disk_->page_size(), intent);
    }
    if (!status.IsIOError()) return status;
  }
  return Status::Unavailable("node " + std::to_string(disk_->node()) +
                             ", page " + std::to_string(page_no) + ": " +
                             std::to_string(kMaxIoRetries) +
                             " read retries exhausted (" + status.message() +
                             ")");
}

Status BufferPool::WriteWithRetry(uint32_t page_no, const uint8_t* data,
                                  AccessIntent intent) {
  Status status;
  for (int attempt = 0; attempt <= kMaxIoRetries; ++attempt) {
    if (attempt > 0) {
      ++io_retries_;
      charge_->SerialSec(kRetryBackoffSec);
      intent = AccessIntent::kRandom;
    }
    status = disk_->Write(page_no, data);
    if (status.ok() || status.IsIOError()) {
      charge_->DiskWrite(disk_->page_size(), intent);
    }
    if (!status.IsIOError()) return status;
  }
  return Status::Unavailable("node " + std::to_string(disk_->node()) +
                             ", page " + std::to_string(page_no) + ": " +
                             std::to_string(kMaxIoRetries) +
                             " write retries exhausted (" + status.message() +
                             ")");
}

Status BufferPool::WriteBack(uint32_t page_no, Frame& frame) {
  GAMMA_RETURN_NOT_OK(
      WriteWithRetry(page_no, frame.data.get(), frame.write_intent));
  SetDirty(frame, false);
  return Status::OK();
}

BufferPool::Buffer BufferPool::TakeBuffer() {
  if (spare_.empty()) {
    return std::make_unique_for_overwrite<uint8_t[]>(disk_->page_size());
  }
  Buffer buf = std::move(spare_.back());
  spare_.pop_back();
  return buf;
}

BufferPool::Frame* BufferPool::Find(uint32_t page_no) {
  if (last_ != nullptr && last_->page_no == page_no) return last_;
  auto it = frames_.find(page_no);
  if (it == frames_.end()) return nullptr;
  last_ = &it->second;
  return last_;
}

BufferPool::Frame& BufferPool::Install(uint32_t page_no, Buffer data) {
  Frame& frame = frames_[page_no];
  frame.data = std::move(data);
  frame.page_no = page_no;
  frame.pin_count = 1;
  last_ = &frame;
  return frame;
}

BufferPool::FrameMap::iterator BufferPool::Drop(FrameMap::iterator it) {
  if (last_ == &it->second) last_ = nullptr;
  SetDirty(it->second, false);
  LruRemove(&it->second);
  spare_.push_back(std::move(it->second.data));
  return frames_.erase(it);
}

void BufferPool::SetDirty(Frame& frame, bool dirty) {
  if (frame.dirty == dirty) return;
  frame.dirty = dirty;
  if (dirty) {
    ++dirty_frames_;
  } else {
    --dirty_frames_;
  }
}

uint32_t BufferPool::CountDirtyFrames() const {
  uint32_t dirty = 0;
  for (const auto& [page_no, frame] : frames_) dirty += frame.dirty ? 1 : 0;
  return dirty;
}

void BufferPool::LruAppend(Frame* frame) {
  frame->lru_prev = lru_tail_;
  frame->lru_next = nullptr;
  (lru_tail_ != nullptr ? lru_tail_->lru_next : lru_head_) = frame;
  lru_tail_ = frame;
}

void BufferPool::LruRemove(Frame* frame) {
  (frame->lru_prev != nullptr ? frame->lru_prev->lru_next : lru_head_) =
      frame->lru_next;
  (frame->lru_next != nullptr ? frame->lru_next->lru_prev : lru_tail_) =
      frame->lru_prev;
  frame->lru_prev = frame->lru_next = nullptr;
}

Status BufferPool::MakeRoom() {
  if (frames_.size() < capacity_frames_) return Status::OK();
  GAMMA_CHECK_MSG(lru_head_ != nullptr, "buffer pool: all frames pinned");
  const uint32_t victim_no = lru_head_->page_no;
  auto it = frames_.find(victim_no);
  GAMMA_DCHECK(it != frames_.end());
  if (it->second.dirty) GAMMA_RETURN_NOT_OK(WriteBack(victim_no, it->second));
  Drop(it);
  ++evictions_;
  return Status::OK();
}

Result<uint8_t*> BufferPool::Pin(uint32_t page_no, AccessIntent intent) {
  if (Frame* frame = Find(page_no); frame != nullptr) {
    if (frame->pin_count == 0) LruRemove(frame);
    frame->pin_count += 1;
    ++hits_;
    charge_->BufferHit();
    return frame->data.get();
  }
  GAMMA_RETURN_NOT_OK(MakeRoom());
  // Read into a buffer outside the frame table first; a failed or corrupt
  // read must not leave a frame cached.
  Buffer buf = TakeBuffer();
  Status status = ReadWithRetry(page_no, buf.get(), intent);
  if (status.ok() &&
      SimulatedDisk::ComputeChecksum(buf.get(), disk_->page_size()) !=
          disk_->StoredChecksum(page_no)) {
    status = Status::Corruption("checksum mismatch on node " +
                                std::to_string(disk_->node()) + ", page " +
                                std::to_string(page_no));
  }
  if (!status.ok()) {
    spare_.push_back(std::move(buf));
    return status;
  }
  ++misses_;
  return Install(page_no, std::move(buf)).data.get();
}

Result<uint32_t> BufferPool::NewPage(uint8_t** frame_out) {
  GAMMA_RETURN_NOT_OK(MakeRoom());
  uint32_t page_no = 0;
  GAMMA_ASSIGN_OR_RETURN(page_no, disk_->Allocate());
  Frame& frame = Install(page_no, TakeBuffer());
  std::memset(frame.data.get(), 0, disk_->page_size());
  SetDirty(frame, true);
  frame.write_intent = AccessIntent::kSequential;
  *frame_out = frame.data.get();
  return page_no;
}

void BufferPool::MarkDirty(uint32_t page_no, AccessIntent intent) {
  Frame* frame = Find(page_no);
  GAMMA_CHECK_MSG(frame != nullptr && frame->pin_count > 0,
                  "MarkDirty on unpinned page");
  SetDirty(*frame, true);
  frame->write_intent = intent;
}

void BufferPool::Unpin(uint32_t page_no) {
  Frame* frame = Find(page_no);
  GAMMA_CHECK_MSG(frame != nullptr && frame->pin_count > 0,
                  "Unpin without pin");
  frame->pin_count -= 1;
  if (frame->pin_count == 0) LruAppend(frame);
}

Status BufferPool::FlushAll() {
  for (auto& [page_no, frame] : frames_) {
    if (frame.dirty) GAMMA_RETURN_NOT_OK(WriteBack(page_no, frame));
  }
  return Status::OK();
}

Status BufferPool::Invalidate() {
  GAMMA_RETURN_NOT_OK(FlushAll());
  Discard();
  return Status::OK();
}

void BufferPool::Discard() {
  for (auto it = frames_.begin(); it != frames_.end();) {
    it = it->second.pin_count == 0 ? Drop(it) : std::next(it);
  }
}

}  // namespace gammadb::storage
