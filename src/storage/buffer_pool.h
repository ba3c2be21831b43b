#ifndef GAMMA_STORAGE_BUFFER_POOL_H_
#define GAMMA_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <unordered_map>

#include "common/result.h"
#include "common/status.h"
#include "storage/disk.h"

namespace gammadb::storage {

/// \brief Per-node LRU buffer pool over one simulated disk.
///
/// Capacity is expressed in bytes, so halving the page size doubles the
/// frame count — exactly the trade the paper's page-size experiments make.
/// Misses charge a disk read with the caller's access intent; hits charge
/// only the buffer-manager CPU path; dirty evictions charge the write.
///
/// The pool is the fault-recovery boundary for transient disk errors: a
/// kIOError from the disk is retried up to kMaxIoRetries times, each retry
/// charging a full (random) disk access plus a serial backoff stall, so
/// injected transients show up as degraded response time rather than query
/// failure. Retry exhaustion and dead-node errors surface as kUnavailable
/// for the machine layer to fail over; checksum mismatches surface as
/// kCorruption (bit rot is not retryable — the stored bytes are wrong).
///
/// Frames hold blocks of the disk's BlockArena. A read pin (PinRead) that
/// misses holds the disk slot's own block, after the same fault draw and
/// checksum as any miss, so a clean frame costs no copy. A writable pin
/// (Pin) on such a frame first gives the disk slot a copy, so the frame's
/// block, and every pointer into it, stays put. A dirty frame is written
/// back by handing its block to the disk, after which the frame shares it.
/// A frame still pinned when it is written back is copied instead, since
/// its holder may write on through its pointer. Evicted and discarded
/// frames release their block for the next miss or NewPage. The LRU list
/// is threaded through the frames themselves, and the frame of the most
/// recent lookup is cached, so the Pin / MarkDirty / Unpin run of one page
/// costs a single hash lookup.
class BufferPool {
 public:
  /// Transient-fault retry budget per logical disk access.
  static constexpr int kMaxIoRetries = 3;
  /// Stall before each retry (controller re-seek + settle on 1988 drives).
  static constexpr double kRetryBackoffSec = 0.005;

  BufferPool(SimulatedDisk* disk, const ChargeContext* charge,
             uint64_t capacity_bytes);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  ~BufferPool();

  uint32_t page_size() const { return disk_->page_size(); }
  uint32_t capacity_frames() const { return capacity_frames_; }

  /// Pins `page_no` for reading and writing, reading it from disk if absent
  /// and verifying its checksum. The pointer stays valid until the matching
  /// Unpin. On any error no frame is installed and nothing is pinned.
  Result<uint8_t*> Pin(uint32_t page_no, AccessIntent intent);

  /// Pin for a caller that only reads the page: same charges, faults and
  /// checksum, but a miss shares the disk's stored bytes instead of copying
  /// them. The caller must not MarkDirty the page on this pin.
  Result<const uint8_t*> PinRead(uint32_t page_no, AccessIntent intent);

  /// A page's current bytes without a pin: a resident frame's, dirty or
  /// clean, else the disk's stored block (SimulatedDisk::Peek). Nothing
  /// moves: no LRU place, count, charge or fault draw. The pointer is valid
  /// until the pool or the disk next changes.
  Result<const uint8_t*> Peek(uint32_t page_no) const;

  /// Allocates a fresh disk page, pins it dirty (its eventual write-back is
  /// sequential: new pages are appended). Returns the page number.
  Result<uint32_t> NewPage(uint8_t** frame_out);

  /// Marks a pinned page dirty; `intent` classifies the eventual write-back
  /// (in-place updates of old pages are random, appends sequential).
  void MarkDirty(uint32_t page_no, AccessIntent intent = AccessIntent::kRandom);

  void Unpin(uint32_t page_no);

  /// Books a Pin and Unpin of a page the caller already holds pinned: one
  /// hit, counted and charged. Nothing else moves: the frame is resident,
  /// and the pair would leave its LRU place as it was.
  void BookHit() {
    ++hits_;
    charge_->BufferHit();
  }

  /// Returns a page its file no longer owns to the disk for reuse. A frame
  /// still cached for it stays and ages out like any other; a dirty one is
  /// still written back and charged, so freeing moves no simulated cost.
  void FreePage(uint32_t page_no) { disk_->Free(page_no); }

  /// Writes back every dirty frame (used at phase boundaries so write costs
  /// land in the phase that produced them). Stops at the first unrecoverable
  /// write error, leaving the remaining dirty frames dirty.
  Status FlushAll();

  /// Drops every unpinned frame (flushing dirty ones first). Test hook for
  /// forcing cold-cache behaviour.
  Status Invalidate();

  /// Drops every unpinned frame WITHOUT flushing, abandoning dirty data.
  /// Cleanup path for a failed query: its partial result pages must not be
  /// written to (or charged against) anything.
  void Discard();

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t evictions() const { return evictions_; }
  /// Transient-fault retries performed (reads and writes).
  uint64_t io_retries() const { return io_retries_; }
  uint32_t frames_in_use() const {
    return static_cast<uint32_t>(frames_.size());
  }
  /// Frames holding a page change not yet written back, pinned or not. Kept
  /// exact on every transition, so asking whether a FlushAll would write
  /// anything is O(1) for any pool size.
  uint32_t dirty_frames() const { return dirty_frames_; }
  /// dirty_frames() recounted by walking every frame (O(frames)): the
  /// reference the tests hold the running count to.
  uint32_t CountDirtyFrames() const;

 private:
  using Block = BlockArena::Block;

  struct Frame {
    Block block = BlockArena::kNone;
    uint8_t* data = nullptr;  // the block's bytes
    uint32_t page_no = 0;
    uint32_t pin_count = 0;
    bool dirty = false;
    AccessIntent write_intent = AccessIntent::kSequential;
    /// LRU neighbours; a frame is on the list exactly when pin_count == 0.
    Frame* lru_prev = nullptr;
    Frame* lru_next = nullptr;
  };
  using FrameMap = std::unordered_map<uint32_t, Frame>;

  /// One logical read/write as the cost model sees it: every attempt the
  /// disk actually performed is charged; retries add backoff stalls.
  Status ReadWithRetry(uint32_t page_no, Block* block, AccessIntent intent);
  Status WriteWithRetry(uint32_t page_no, const Frame& frame);

  /// The pinned frame for `page_no`: a hit, or a miss read into a frame
  /// that shares the disk's block.
  Result<Frame*> PinFrame(uint32_t page_no, AccessIntent intent);

  /// The frame cached for `page_no`, or null.
  Frame* Find(uint32_t page_no);

  /// Evicts one unpinned frame if at capacity. Checked failure if every
  /// frame is pinned (operators pin O(1) pages at a time).
  Status MakeRoom();
  Status WriteBack(uint32_t page_no, Frame& frame);

  /// Installs a pinned frame for `page_no` over `block`.
  Frame& Install(uint32_t page_no, Block block);
  /// Removes an unpinned frame, releasing its block; returns the next one.
  FrameMap::iterator Drop(FrameMap::iterator it);
  /// Sets `frame.dirty`, keeping dirty_frames_ in step.
  void SetDirty(Frame& frame, bool dirty);
  void LruAppend(Frame* frame);
  void LruRemove(Frame* frame);

  SimulatedDisk* disk_;
  BlockArena* arena_ = nullptr;
  const ChargeContext* charge_;
  uint32_t capacity_frames_;
  /// Node-based, so Frame pointers (the LRU links) survive rehashing.
  FrameMap frames_;
  /// Unpinned frames, least-recently-used at the head.
  Frame* lru_head_ = nullptr;
  Frame* lru_tail_ = nullptr;
  /// The map node of the last dropped frame, for the next Install.
  FrameMap::node_type spare_node_;
  /// The frame the last Find or Install returned (null after it is dropped).
  Frame* last_ = nullptr;
  uint32_t dirty_frames_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
  uint64_t io_retries_ = 0;
};

}  // namespace gammadb::storage

#endif  // GAMMA_STORAGE_BUFFER_POOL_H_
