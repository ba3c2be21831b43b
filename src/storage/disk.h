#ifndef GAMMA_STORAGE_DISK_H_
#define GAMMA_STORAGE_DISK_H_

#include <cstdint>
#include <cstdlib>
#include <memory>
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
/// Pages live in fixed-size zero-filled slabs (kSlabBytes each), so a page's
/// bytes never move and the host pays one heap allocation per slab instead
/// of one per page. A page number maps to a slab slot; Free returns the slot
/// for the next Allocate to reuse, but the page number itself is never
/// handed out again (the buffer pool may still hold a stale frame for it,
/// and its flush order follows page numbers). Writing a freed page drops
/// the bytes; reading one is an error.
///
/// When a FaultInjector is attached, each Read/Write first consults the
/// node's fault schedule: a dead node yields kUnavailable, a transient
/// fault kIOError (retryable), and a corruption fault silently rots one
/// byte of the *stored* page so the checksum no longer matches.
class SimulatedDisk {
 public:
  /// Hard cap on live (allocated, not yet freed) pages per drive; Allocate
  /// past it is ResourceExhausted (a full disk), not a crash.
  static constexpr uint32_t kMaxPages = 1u << 20;
  /// Host bytes per page slab (rounded down to whole pages, at least one).
  /// Each disk's last slab is partly empty, and a machine has dozens of
  /// disks: 1 MB slabs added 5% to join_100k's peak RSS, 256 KB adds none.
  static constexpr uint32_t kSlabBytes = 256u << 10;

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
  /// Slab slots carved so far (host memory held, in pages); Allocate reuses
  /// freed slots before carving new ones.
  uint32_t num_slots() const {
    return static_cast<uint32_t>(checksums_.size());
  }
  int node() const { return node_; }

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

  /// Copies `data` (page_size bytes) into the page and refreshes its
  /// checksum. On a freed page the bounds check and the fault draw still
  /// run, then the bytes are dropped.
  Status Write(uint32_t page_no, const uint8_t* data);

  /// The checksum recorded for the page by its last successful Write.
  uint32_t StoredChecksum(uint32_t page_no) const;

  /// Page checksum: four independent multiply-xor lanes over 64-bit words,
  /// then an avalanche. Changing any one word always changes the 64-bit
  /// state (each step is a bijection), so a rotted byte is missed only when
  /// the 32-bit fold collides. Host-only: never part of the simulated output
  /// (routing hashes use HashBytes).
  static uint32_t ComputeChecksum(const uint8_t* data, size_t len);

  /// Test hook: flips one byte of the stored page without touching its
  /// checksum — the bit-rot a checksum exists to catch. A freed page has no
  /// stored bytes; nothing happens.
  void CorruptStoredPage(uint32_t page_no);

 private:
  /// Unavailable/IOError/OK verdict for one access; `writing` selects the
  /// fault stream and the corruption side effect only applies to reads.
  Status ConsultFaults(uint32_t page_no, bool writing);
  Status CheckBounds(uint32_t page_no, const char* op) const;
  /// Slot of a freed page.
  static constexpr uint32_t kFreed = UINT32_MAX;

  uint8_t* SlotData(uint32_t slot) const {
    return slabs_[slot / pages_per_slab_].get() +
           static_cast<size_t>(slot % pages_per_slab_) * page_size_;
  }

  struct FreeDeleter {
    void operator()(uint8_t* p) const { std::free(p); }
  };

  uint32_t page_size_;
  uint32_t pages_per_slab_;
  /// Checksum of an all-zero page: what Allocate records.
  uint32_t zero_checksum_;
  uint32_t live_pages_ = 0;
  std::vector<std::unique_ptr<uint8_t[], FreeDeleter>> slabs_;
  /// Page number -> slot (kFreed once freed).
  std::vector<uint32_t> slot_of_;
  /// Freed slots, reused last-in first-out.
  std::vector<uint32_t> free_slots_;
  /// Checksum per slot carved so far.
  std::vector<uint32_t> checksums_;
  sim::FaultInjector* faults_;
  int node_;
};

}  // namespace gammadb::storage

#endif  // GAMMA_STORAGE_DISK_H_
