#include "storage/disk.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <string>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#else
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

#include "common/macros.h"

namespace gammadb::storage {

namespace {

// The checksum's lane width and block: eight vectors of eight 32-bit lanes
// take one 256-byte block per step.
using Lanes = uint32_t __attribute__((vector_size(32)));
constexpr size_t kLaneVectors = 8;
constexpr size_t kChecksumBlock = kLaneVectors * sizeof(Lanes);

constexpr uint32_t kLaneSeed = 0x811C9DC5u ^ 0xC4ECu;  // FNV offset, salted
constexpr uint32_t kLaneSpread = 0x9E3779B9u;  // lane j starts at seed + j*this
constexpr uint32_t kLaneOdd = 0x9E3779B1u;     // per-word multiplier
constexpr uint32_t kFoldOdd = 0x85EBCA77u;     // vector-to-vector fold
constexpr uint64_t kStatePrime = 0x100000001b3ULL;  // the 64-bit FNV prime

uint64_t Avalanche(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

// The lane pass of ComputeChecksum, cloned for AVX2 where the compiler can
// (one vpmulld per eight words); every clone computes the same function.
// Not under TSan: it instruments GCC's ifunc resolver, which then runs
// before the sanitizer is set up and crashes the process at load.
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) && \
    !defined(__SANITIZE_THREAD__)
__attribute__((target_clones("avx2", "default")))
#endif
uint64_t LaneState(const uint8_t* data, size_t len) {
  Lanes acc[kLaneVectors];
  for (size_t k = 0; k < kLaneVectors; ++k) {
    for (size_t l = 0; l < 8; ++l) {
      acc[k][l] = kLaneSeed + static_cast<uint32_t>(8 * k + l) * kLaneSpread;
    }
  }
  auto step = [&acc](const uint8_t* block) {
    for (size_t k = 0; k < kLaneVectors; ++k) {
      Lanes word;
      std::memcpy(&word, block + k * sizeof(Lanes), sizeof(Lanes));
      acc[k] = (acc[k] ^ word) * kLaneOdd;
    }
  };
  size_t i = 0;
  for (; i + kChecksumBlock <= len; i += kChecksumBlock) step(data + i);
  if (i < len) {
    uint8_t tail[kChecksumBlock] = {};
    std::memcpy(tail, data + i, len - i);
    step(tail);
  }
  Lanes folded = acc[0];
  for (size_t k = 1; k < kLaneVectors; ++k) folded = folded * kFoldOdd + acc[k];
  uint64_t state = 0;
  for (size_t l = 0; l < 8; ++l) state = (state ^ folded[l]) * kStatePrime;
  return state;
}

// Slabs of destroyed arenas, by slab bytes, for the next arena's Carve.
// Never destroyed: an arena may be destroyed during static destruction,
// and LeakSanitizer sees the cached slabs as reachable from here. Under
// ASan a cached slab is poisoned, so a stale pointer into a destroyed
// machine's pages still faults.
struct SlabCache {
  std::mutex mu;
  std::map<size_t, std::vector<uint8_t*>> free;
};

SlabCache& Slabs() {
  static auto* cache = new SlabCache;
  return *cache;
}

}  // namespace

BlockArena::BlockArena(uint32_t block_size)
    : block_size_(block_size),
      blocks_per_slab_(std::max<uint32_t>(1, kSlabBytes / block_size)) {}

BlockArena::~BlockArena() {
  const size_t bytes = static_cast<size_t>(blocks_per_slab_) * block_size_;
  SlabCache& cache = Slabs();
  const std::lock_guard<std::mutex> lock(cache.mu);
  for (uint8_t* slab : slabs_) {
    ASAN_POISON_MEMORY_REGION(slab, bytes);
    cache.free[bytes].push_back(slab);
  }
}

BlockArena::Block BlockArena::Carve() {
  const auto block = static_cast<Block>(holders_.size());
  GAMMA_CHECK_MSG(block != kNone, "block arena exhausted");
  if (block % blocks_per_slab_ == 0) {
    const size_t bytes = static_cast<size_t>(blocks_per_slab_) * block_size_;
    uint8_t* slab = nullptr;
    {
      SlabCache& cache = Slabs();
      const std::lock_guard<std::mutex> lock(cache.mu);
      std::vector<uint8_t*>& cached = cache.free[bytes];
      if (!cached.empty()) {
        slab = cached.back();
        cached.pop_back();
      }
    }
    carving_recycled_ = slab != nullptr;
    if (carving_recycled_) {
      ASAN_UNPOISON_MEMORY_REGION(slab, bytes);
    } else {
      slab = static_cast<uint8_t*>(std::calloc(bytes, 1));
      GAMMA_CHECK_MSG(slab != nullptr, "host out of memory for a page slab");
    }
    slabs_.push_back(slab);
  }
  holders_.push_back(1);
  return block;
}

BlockArena::Block BlockArena::Take() {
  if (free_.empty()) return Carve();
  const Block block = free_.back();
  free_.pop_back();
  holders_[block] = 1;
  return block;
}

BlockArena::Block BlockArena::TakeZeroed() {
  const bool carved = free_.empty();
  const Block block = Take();
  if (!carved || carving_recycled_) std::memset(data(block), 0, block_size_);
  return block;
}

void BlockArena::Release(Block block) {
  GAMMA_DCHECK(holders_[block] > 0);
  if (--holders_[block] == 0) free_.push_back(block);
}

SimulatedDisk::SimulatedDisk(uint32_t page_size, sim::FaultInjector* faults,
                             int node)
    : page_size_(page_size), arena_(page_size), faults_(faults), node_(node) {
  GAMMA_CHECK(page_size >= 64);
  const std::vector<uint8_t> zeros(page_size, 0);
  zero_checksum_ = ComputeChecksum(zeros.data(), page_size);
}

uint32_t SimulatedDisk::ComputeChecksum(const uint8_t* data, size_t len) {
  const uint64_t mixed = Avalanche(LaneState(data, len) ^ len);
  return static_cast<uint32_t>(mixed ^ (mixed >> 32));
}

Status SimulatedDisk::CheckBounds(uint32_t page_no, const char* op) const {
  if (page_no >= num_pages()) {
    return Status::OutOfRange(std::string(op) + " of page " +
                              std::to_string(page_no) + " on node " +
                              std::to_string(node_) + ": disk has " +
                              std::to_string(num_pages()) + " pages");
  }
  return Status::OK();
}

Status SimulatedDisk::ConsultFaults(uint32_t page_no, bool writing) {
  if (faults_ == nullptr) return Status::OK();
  if (faults_->IsDead(node_)) {
    return Status::Unavailable("disk node " + std::to_string(node_) +
                               " is dead");
  }
  const sim::DiskFault fault =
      writing ? faults_->OnWrite(node_) : faults_->OnRead(node_);
  if (faults_->IsDead(node_)) {
    // This very operation was the scheduled point of death.
    return Status::Unavailable("disk node " + std::to_string(node_) +
                               " died mid-operation");
  }
  switch (fault) {
    case sim::DiskFault::kNone:
      break;
    case sim::DiskFault::kTransient:
      return Status::IOError(std::string("transient ") +
                             (writing ? "write" : "read") +
                             " fault on node " + std::to_string(node_) +
                             ", page " + std::to_string(page_no));
    case sim::DiskFault::kCorrupt:
      CorruptStoredPage(page_no);
      break;
  }
  return Status::OK();
}

Result<uint32_t> SimulatedDisk::Allocate() {
  if (faults_ != nullptr && faults_->IsDead(node_)) {
    return Status::Unavailable("disk node " + std::to_string(node_) +
                               " is dead");
  }
  if (live_pages_ >= kMaxPages || slot_of_.size() >= kFreed) {
    return Status::ResourceExhausted(
        "disk on node " + std::to_string(node_) + " is full (" +
        std::to_string(kMaxPages) + " pages)");
  }
  // A reused slot lost its block at Free, so both kinds read as zeros.
  uint32_t slot = 0;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    checksums_[slot] = zero_checksum_;
    rotted_[slot] = 0;
  } else {
    slot = num_slots();
    blocks_.push_back(BlockArena::kNone);
    checksums_.push_back(zero_checksum_);
    rotted_.push_back(0);
  }
  ++live_pages_;
  slot_of_.push_back(slot);
  return static_cast<uint32_t>(slot_of_.size() - 1);
}

void SimulatedDisk::Free(uint32_t page_no) {
  GAMMA_CHECK_MSG(page_no < num_pages() && slot_of_[page_no] != kFreed,
                  "free of a page that is not allocated");
  const uint32_t slot = slot_of_[page_no];
  if (blocks_[slot] != BlockArena::kNone) arena_.Release(blocks_[slot]);
  blocks_[slot] = BlockArena::kNone;
  free_slots_.push_back(slot);
  slot_of_[page_no] = kFreed;
  --live_pages_;
}

uint8_t* SimulatedDisk::OwnBlock(uint32_t slot, bool keep) {
  const Block old = blocks_[slot];
  if (old != BlockArena::kNone && !arena_.Shared(old)) return arena_.data(old);
  const bool zeros = keep && old == BlockArena::kNone;
  const Block own = zeros ? arena_.TakeZeroed() : arena_.Take();
  uint8_t* bytes = arena_.data(own);
  if (old != BlockArena::kNone) {
    if (keep) std::memcpy(bytes, arena_.data(old), page_size_);
    arena_.Release(old);
  }
  blocks_[slot] = own;
  return bytes;
}

Status SimulatedDisk::CheckRead(uint32_t page_no) {
  GAMMA_RETURN_NOT_OK(CheckBounds(page_no, "read"));
  if (slot_of_[page_no] == kFreed) {
    return Status::NotFound("read of freed page " + std::to_string(page_no) +
                            " on node " + std::to_string(node_));
  }
  return ConsultFaults(page_no, /*writing=*/false);
}

Status SimulatedDisk::Read(uint32_t page_no, uint8_t* out) {
  GAMMA_RETURN_NOT_OK(CheckRead(page_no));
  const Block block = blocks_[slot_of_[page_no]];
  if (block == BlockArena::kNone) {
    std::memset(out, 0, page_size_);
  } else {
    std::memcpy(out, arena_.data(block), page_size_);
  }
  return Status::OK();
}

Status SimulatedDisk::ReadShared(uint32_t page_no, Block* block) {
  GAMMA_RETURN_NOT_OK(CheckRead(page_no));
  const uint32_t slot = slot_of_[page_no];
  if (blocks_[slot] == BlockArena::kNone) OwnBlock(slot, /*keep=*/true);
  *block = blocks_[slot];
  arena_.Hold(*block);
  return Status::OK();
}

Status SimulatedDisk::Write(uint32_t page_no, const uint8_t* data) {
  GAMMA_RETURN_NOT_OK(CheckBounds(page_no, "write"));
  GAMMA_RETURN_NOT_OK(ConsultFaults(page_no, /*writing=*/true));
  const uint32_t slot = slot_of_[page_no];
  if (slot == kFreed) return Status::OK();  // a stale frame's write-back
  std::memcpy(OwnBlock(slot, /*keep=*/false), data, page_size_);
  checksums_[slot] = ComputeChecksum(data, page_size_);
  rotted_[slot] = 0;
  return Status::OK();
}

Status SimulatedDisk::Hand(uint32_t page_no, Block block) {
  GAMMA_RETURN_NOT_OK(CheckBounds(page_no, "write"));
  GAMMA_RETURN_NOT_OK(ConsultFaults(page_no, /*writing=*/true));
  const uint32_t slot = slot_of_[page_no];
  if (slot == kFreed) return Status::OK();  // a stale frame's write-back
  arena_.Hold(block);
  if (blocks_[slot] != BlockArena::kNone) arena_.Release(blocks_[slot]);
  blocks_[slot] = block;
  checksums_[slot] = ComputeChecksum(arena_.data(block), page_size_);
  rotted_[slot] = 0;
  return Status::OK();
}

void SimulatedDisk::Unshare(uint32_t page_no) {
  GAMMA_CHECK(page_no < num_pages() && slot_of_[page_no] != kFreed);
  OwnBlock(slot_of_[page_no], /*keep=*/true);
}

Result<const uint8_t*> SimulatedDisk::Peek(uint32_t page_no) const {
  GAMMA_CHECK(page_no < num_pages() && slot_of_[page_no] != kFreed);
  const uint32_t slot = slot_of_[page_no];
  if (rotted_[slot] != 0) {
    return Status::Corruption("rotted page " + std::to_string(page_no) +
                              " on node " + std::to_string(node_));
  }
  if (blocks_[slot] == BlockArena::kNone) {
    return static_cast<const uint8_t*>(nullptr);
  }
  return static_cast<const uint8_t*>(arena_.data(blocks_[slot]));
}

uint32_t SimulatedDisk::StoredChecksum(uint32_t page_no) const {
  GAMMA_CHECK(page_no < num_pages() && slot_of_[page_no] != kFreed);
  return checksums_[slot_of_[page_no]];
}

void SimulatedDisk::CorruptStoredPage(uint32_t page_no) {
  GAMMA_CHECK(page_no < num_pages());
  const uint32_t slot = slot_of_[page_no];
  if (slot == kFreed) return;
  // Rot sticks until the next Write or Hand: flipping the same byte again
  // would restore the page.
  if (rotted_[slot] != 0) return;
  OwnBlock(slot, /*keep=*/true)[page_no % page_size_] ^= 0xFF;
  rotted_[slot] = 1;
}

}  // namespace gammadb::storage
