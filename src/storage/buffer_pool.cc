#include "storage/buffer_pool.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/macros.h"

namespace gammadb::storage {

BufferPool::BufferPool(SimulatedDisk* disk, const ChargeContext* charge,
                       uint64_t capacity_bytes)
    : disk_(disk), charge_(charge) {
  GAMMA_CHECK(disk != nullptr && charge != nullptr);
  arena_ = &disk->arena();
  const uint64_t frames = capacity_bytes / disk->page_size();
  // Keep at least a handful of frames so concurrent pins (B-tree descents
  // hold parent + child) always succeed.
  capacity_frames_ = static_cast<uint32_t>(std::max<uint64_t>(frames, 8));
}

BufferPool::~BufferPool() {
  // Intentionally no flush: accounting requires explicit FlushAll inside a
  // phase; destruction outside a query would charge to nothing anyway.
}

Status BufferPool::ReadWithRetry(uint32_t page_no, Block* block,
                                 AccessIntent intent) {
  Status status;
  for (int attempt = 0; attempt <= kMaxIoRetries; ++attempt) {
    if (attempt > 0) {
      ++io_retries_;
      charge_->SerialSec(kRetryBackoffSec);
      // A retry re-seeks from scratch no matter how the first pass streamed.
      intent = AccessIntent::kRandom;
    }
    status = disk_->ReadShared(page_no, block);
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

Status BufferPool::WriteWithRetry(uint32_t page_no, const Frame& frame) {
  AccessIntent intent = frame.write_intent;
  Status status;
  for (int attempt = 0; attempt <= kMaxIoRetries; ++attempt) {
    if (attempt > 0) {
      ++io_retries_;
      charge_->SerialSec(kRetryBackoffSec);
      intent = AccessIntent::kRandom;
    }
    // A pinned frame's holder may write on through its pointer, so only an
    // unpinned frame's block is handed over.
    status = frame.pin_count > 0 ? disk_->Write(page_no, frame.data)
                                 : disk_->Hand(page_no, frame.block);
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
  GAMMA_RETURN_NOT_OK(WriteWithRetry(page_no, frame));
  SetDirty(frame, false);
  return Status::OK();
}

BufferPool::Frame* BufferPool::Find(uint32_t page_no) {
  if (last_ != nullptr && last_->page_no == page_no) return last_;
  auto it = frames_.find(page_no);
  if (it == frames_.end()) return nullptr;
  last_ = &it->second;
  return last_;
}

BufferPool::Frame& BufferPool::Install(uint32_t page_no, Block block) {
  // A dropped frame's map node is reused: the map sees the same insertion
  // (so the same FlushAll order) without a node allocation per miss.
  FrameMap::iterator it;
  if (spare_node_.empty()) {
    it = frames_.try_emplace(page_no).first;
  } else {
    spare_node_.key() = page_no;
    spare_node_.mapped() = Frame{};
    it = frames_.insert(std::move(spare_node_)).position;
  }
  Frame& frame = it->second;
  frame.block = block;
  frame.data = arena_->data(block);
  frame.page_no = page_no;
  frame.pin_count = 1;
  last_ = &frame;
  return frame;
}

BufferPool::FrameMap::iterator BufferPool::Drop(FrameMap::iterator it) {
  if (last_ == &it->second) last_ = nullptr;
  SetDirty(it->second, false);
  LruRemove(&it->second);
  arena_->Release(it->second.block);
  const auto next = std::next(it);
  spare_node_ = frames_.extract(it);
  return next;
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

Result<BufferPool::Frame*> BufferPool::PinFrame(uint32_t page_no,
                                                AccessIntent intent) {
  if (Frame* frame = Find(page_no); frame != nullptr) {
    if (frame->pin_count == 0) LruRemove(frame);
    frame->pin_count += 1;
    ++hits_;
    charge_->BufferHit();
    return frame;
  }
  GAMMA_RETURN_NOT_OK(MakeRoom());
  // Read and verify before touching the frame table; a failed or corrupt
  // read must not leave a frame cached.
  Block block = BlockArena::kNone;
  Status status = ReadWithRetry(page_no, &block, intent);
  if (status.ok() &&
      SimulatedDisk::ComputeChecksum(arena_->data(block), page_size()) !=
          disk_->StoredChecksum(page_no)) {
    arena_->Release(block);
    status = Status::Corruption("checksum mismatch on node " +
                                std::to_string(disk_->node()) + ", page " +
                                std::to_string(page_no));
  }
  if (!status.ok()) return status;
  ++misses_;
  return &Install(page_no, block);
}

Result<uint8_t*> BufferPool::Pin(uint32_t page_no, AccessIntent intent) {
  Frame* frame = nullptr;
  GAMMA_ASSIGN_OR_RETURN(frame, PinFrame(page_no, intent));
  if (arena_->Shared(frame->block)) disk_->Unshare(page_no);
  return frame->data;
}

Result<const uint8_t*> BufferPool::PinRead(uint32_t page_no,
                                           AccessIntent intent) {
  Frame* frame = nullptr;
  GAMMA_ASSIGN_OR_RETURN(frame, PinFrame(page_no, intent));
  return frame->data;
}

Result<const uint8_t*> BufferPool::Peek(uint32_t page_no) const {
  const auto it = frames_.find(page_no);
  if (it != frames_.end()) return static_cast<const uint8_t*>(it->second.data);
  return disk_->Peek(page_no);
}

Result<uint32_t> BufferPool::NewPage(uint8_t** frame_out) {
  GAMMA_RETURN_NOT_OK(MakeRoom());
  uint32_t page_no = 0;
  GAMMA_ASSIGN_OR_RETURN(page_no, disk_->Allocate());
  Frame& frame = Install(page_no, arena_->TakeZeroed());
  SetDirty(frame, true);
  frame.write_intent = AccessIntent::kSequential;
  *frame_out = frame.data;
  return page_no;
}

void BufferPool::MarkDirty(uint32_t page_no, AccessIntent intent) {
  Frame* frame = Find(page_no);
  GAMMA_CHECK_MSG(frame != nullptr && frame->pin_count > 0,
                  "MarkDirty on unpinned page");
  GAMMA_DCHECK(!arena_->Shared(frame->block));  // pinned by PinRead only
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
