#ifndef GAMMA_STORAGE_DISK_H_
#define GAMMA_STORAGE_DISK_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "sim/cost_tracker.h"
#include "sim/fault_injector.h"

namespace gammadb::storage {

/// Disk access pattern hint. Drives the cost model's positioning-vs-streaming
/// distinction; callers (file scans, B-tree descents) know which they are.
enum class AccessIntent { kSequential, kRandom };

/// Per-node accounting hook. A StorageManager owns one; every storage
/// component charges through it. When `tracker` is null (unit tests, data
/// loading outside a measured query) charging is a no-op.
struct ChargeContext {
  sim::CostTracker* tracker = nullptr;
  int node = -1;

  void DiskRead(uint64_t bytes, AccessIntent intent) const {
    if (tracker != nullptr) {
      tracker->ChargeDiskRead(node, bytes, intent == AccessIntent::kSequential);
    }
  }
  void DiskWrite(uint64_t bytes, AccessIntent intent) const {
    if (tracker != nullptr) {
      tracker->ChargeDiskWrite(node, bytes,
                               intent == AccessIntent::kSequential);
    }
  }
  void BufferHit() const {
    if (tracker != nullptr) tracker->ChargeBufferHit(node);
  }
  void Cpu(double instructions) const {
    if (tracker != nullptr) tracker->ChargeCpu(node, instructions);
  }
  /// `times` Cpu(instructions) calls, added one at a time: a page's worth
  /// of per-tuple charges in one call, rounded as the separate calls were.
  void CpuTimes(double instructions, uint64_t times) const {
    if (tracker != nullptr) tracker->ChargeCpuTimes(node, instructions, times);
  }
  /// Search CPU within one B-tree node during a descent.
  void BtreeNodeVisit() const {
    if (tracker != nullptr) {
      tracker->ChargeCpu(node, tracker->hw().cost.instr_per_btree_level);
    }
  }
  /// Stall time with no device activity (e.g. backoff before an I/O retry).
  void SerialSec(double seconds) const {
    if (tracker != nullptr) tracker->ChargeSerialSec(node, seconds);
  }
};

/// \brief Page-sized host blocks carved from fixed-size slabs, each with a
/// count of its holders.
///
/// One arena per node backs both the node's disk slots and its buffer-pool
/// frames, so a clean frame can hold the very block its disk slot holds
/// instead of a copy. A holder is a disk slot or a pool frame; a block whose
/// last holder releases it goes on a free list for the next Take. Blocks are
/// named by index: a slab's blocks never move.
///
/// Slabs outlive the arena: a destroyed arena's slabs go to one process-wide
/// list keyed by slab bytes, and Carve takes a slab from it before it
/// allocates a new one, so a machine built after another reuses host pages
/// that are already faulted in. A fresh slab comes zeroed from calloc; a
/// block of a recycled slab holds old bytes until TakeZeroed clears it, once,
/// when it is carved. Host memory is never returned.
class BlockArena {
 public:
  using Block = uint32_t;
  /// No block: a disk slot that has never been written reads as zeros.
  static constexpr Block kNone = UINT32_MAX;
  /// Host bytes per slab (rounded down to whole blocks, at least one), so
  /// every power-of-two block size up to it shares one size of recycled
  /// slab. Each node's last slab is partly empty, and a machine has dozens
  /// of nodes: 1 MB slabs added 5% to join_100k's peak RSS, 256 KB adds
  /// none.
  static constexpr uint32_t kSlabBytes = 256u << 10;

  explicit BlockArena(uint32_t block_size);
  /// Hands every slab to the process-wide list for the next arena.
  ~BlockArena();

  BlockArena(const BlockArena&) = delete;
  BlockArena& operator=(const BlockArena&) = delete;

  /// A block with one holder; its contents are unspecified.
  Block Take();
  /// Take, all zeros: a reused block or a newly carved one of a recycled
  /// slab is cleared, one newly carved from a calloc slab already is.
  Block TakeZeroed();
  void Hold(Block block) { ++holders_[block]; }
  /// Drops one holder; the last one frees the block.
  void Release(Block block);
  /// Whether more than one holder has the block (a disk slot and the frame
  /// caching its page). A shared block is never written.
  bool Shared(Block block) const { return holders_[block] > 1; }

  uint8_t* data(Block block) const {
    return slabs_[block / blocks_per_slab_] +
           static_cast<size_t>(block % blocks_per_slab_) * block_size_;
  }

 private:
  uint32_t block_size_;
  uint32_t blocks_per_slab_;
  std::vector<uint8_t*> slabs_;
  /// Whether the last slab, the one Carve takes blocks from, is recycled
  /// (its uncarved blocks hold another arena's bytes) rather than zeroed.
  bool carving_recycled_ = false;
  /// Holders per block carved so far.
  std::vector<uint32_t> holders_;
  /// Blocks without a holder, reused last-in first-out.
  std::vector<Block> free_;

  /// A never used block with one holder; zeros unless carving_recycled_.
  Block Carve();
};

/// \brief One simulated disk drive: a flat array of fixed-size pages.
///
/// Data lives in host memory; timing comes entirely from the cost model via
/// the ChargeContext at the buffer-pool layer (the disk itself is a dumb
/// store so tests can use it without accounting).
///
/// Every stored page carries an out-of-band uint32 checksum, updated on
/// Write. The buffer pool recomputes it after each read and surfaces a
/// mismatch as Status::Corruption — keeping the detector out of the page
/// layout, the way a drive's sector ECC is invisible to the format on top.
///
/// A page number maps to a slot, and a slot holds one block of the node's
/// BlockArena, or none while the page has never been written (it reads as
/// zeros). Free returns the slot for the next Allocate to reuse without
/// touching any bytes, but the page number itself is never handed out
/// again (the buffer pool may still hold a stale frame for it, and its
/// flush order follows page numbers). Writing a freed page drops the
/// bytes; reading one is an error.
///
/// The buffer pool reads without copying: ReadShared hands it the slot's
/// own block. So every change to stored bytes (Write, CorruptStoredPage,
/// Unshare) first gives the slot a private block when the current one is
/// shared, and no frame ever sees a later disk change. Hand adopts a dirty
/// frame's block as the page's new bytes instead of copying them.
///
/// When a FaultInjector is attached, each read and write first consults the
/// node's fault schedule: a dead node yields kUnavailable, a transient
/// fault kIOError (retryable), and a corruption fault silently rots one
/// byte of the *stored* page so the checksum no longer matches.
class SimulatedDisk {
 public:
  using Block = BlockArena::Block;

  /// Hard cap on live (allocated, not yet freed) pages per drive; Allocate
  /// past it is ResourceExhausted (a full disk), not a crash.
  static constexpr uint32_t kMaxPages = 1u << 20;

  explicit SimulatedDisk(uint32_t page_size,
                         sim::FaultInjector* faults = nullptr, int node = -1);

  SimulatedDisk(const SimulatedDisk&) = delete;
  SimulatedDisk& operator=(const SimulatedDisk&) = delete;

  uint32_t page_size() const { return page_size_; }
  /// Page numbers handed out so far, freed ones included: every page number
  /// below it is in bounds.
  uint32_t num_pages() const { return static_cast<uint32_t>(slot_of_.size()); }
  /// Pages allocated and not yet freed.
  uint32_t live_pages() const { return live_pages_; }
  /// Slots carved so far; Allocate reuses freed slots before carving new
  /// ones.
  uint32_t num_slots() const {
    return static_cast<uint32_t>(checksums_.size());
  }
  int node() const { return node_; }
  /// The node's block arena, shared with the buffer pool over this disk.
  BlockArena& arena() { return arena_; }

  /// Allocates a zeroed page and returns its (never before used) page
  /// number, reusing a freed slot when there is one.
  Result<uint32_t> Allocate();

  /// Returns the page's slot for reuse. The page number stays in bounds:
  /// later writes to it are dropped, reads fail.
  void Free(uint32_t page_no);

  /// Copies a page into `out` (must hold page_size bytes). Non-const because
  /// an injected corruption fault mutates the stored page. A freed page is
  /// NotFound.
  Status Read(uint32_t page_no, uint8_t* out);

  /// Read without the copy: on success `*block` is the page's stored block
  /// with one more holder, which the caller releases through arena().
  Status ReadShared(uint32_t page_no, Block* block);

  /// Copies `data` (page_size bytes) into the page and refreshes its
  /// checksum. On a freed page the bounds check and the fault draw still
  /// run, then the bytes are dropped.
  Status Write(uint32_t page_no, const uint8_t* data);

  /// Write without the copy: the page's stored bytes become `block`, which
  /// gains the slot as a holder (the caller keeps its own hold). Same
  /// checks, fault draw and checksum as Write; a freed page keeps nothing.
  Status Hand(uint32_t page_no, Block block);

  /// Gives the page's slot a private copy of its block, so the other
  /// holder (the frame caching the page) may write the block it keeps.
  void Unshare(uint32_t page_no);

  /// The checksum recorded for the page by its last successful Write.
  uint32_t StoredChecksum(uint32_t page_no) const;

  /// A live page's stored bytes, read in place: no fault draw, no op tick,
  /// no copy and no checksum pass. Null for a page that has no bytes yet
  /// (it reads as zeros); Corruption for a page CorruptStoredPage rotted,
  /// whose bytes fail the checksum a pool miss verifies.
  Result<const uint8_t*> Peek(uint32_t page_no) const;

  /// Page checksum: 64 lanes of 32 bits, eight vectors of eight, each step
  /// `(lane ^ word) * odd` over one 32-bit word of a 256-byte block (the
  /// last block zero-padded); the lanes then fold into a 64-bit state with
  /// the length and an avalanche. Every step and every fold is a bijection
  /// in the word or lane it takes, so changing any one word always changes
  /// the 64-bit state, and a rotted byte is missed only when the 32-bit
  /// fold collides. Host-only: never part of the simulated output (routing
  /// hashes use HashBytes).
  static uint32_t ComputeChecksum(const uint8_t* data, size_t len);

  /// Test hook: flips one byte of the stored page without touching its
  /// checksum — the bit-rot a checksum exists to catch. A page that already
  /// fails its checksum stays as it is, so rot lasts until the next Write
  /// or Hand. A freed page has no stored bytes; nothing happens.
  void CorruptStoredPage(uint32_t page_no);

 private:
  /// Unavailable/IOError/OK verdict for one access; `writing` selects the
  /// fault stream and the corruption side effect only applies to reads.
  Status ConsultFaults(uint32_t page_no, bool writing);
  Status CheckBounds(uint32_t page_no, const char* op) const;
  /// Bounds, freed-page and fault checks shared by Read and ReadShared.
  Status CheckRead(uint32_t page_no);
  /// The slot's block, made private to it first: a new block when it has
  /// none or shares one, holding the old bytes when `keep` (zeros for a
  /// slot without a block).
  uint8_t* OwnBlock(uint32_t slot, bool keep);
  /// Slot of a freed page.
  static constexpr uint32_t kFreed = UINT32_MAX;

  uint32_t page_size_;
  /// Checksum of an all-zero page: what Allocate records.
  uint32_t zero_checksum_;
  uint32_t live_pages_ = 0;
  BlockArena arena_;
  /// Page number -> slot (kFreed once freed).
  std::vector<uint32_t> slot_of_;
  /// Freed slots, reused last-in first-out.
  std::vector<uint32_t> free_slots_;
  /// Block and checksum per slot carved so far, and whether the slot's
  /// bytes were rotted since its last Write or Hand (so they fail the
  /// checksum).
  std::vector<Block> blocks_;
  std::vector<uint32_t> checksums_;
  std::vector<uint8_t> rotted_;
  sim::FaultInjector* faults_;
  int node_;
};

}  // namespace gammadb::storage

#endif  // GAMMA_STORAGE_DISK_H_
