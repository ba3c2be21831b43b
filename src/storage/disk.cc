#include "storage/disk.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <string>

#include "common/macros.h"

namespace gammadb::storage {

namespace {

constexpr uint64_t kChecksumSalt = 0xC4EC;
constexpr uint64_t kLanePrime = 0x100000001b3ULL;  // the 64-bit FNV prime

uint64_t LoadWord(const uint8_t* p) {
  uint64_t word = 0;
  std::memcpy(&word, p, sizeof(word));
  return word;
}

uint64_t Mix(uint64_t lane, uint64_t word) {
  return (lane ^ word) * kLanePrime;
}

uint64_t Avalanche(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

}  // namespace

SimulatedDisk::SimulatedDisk(uint32_t page_size, sim::FaultInjector* faults,
                             int node)
    : page_size_(page_size), faults_(faults), node_(node) {
  GAMMA_CHECK(page_size >= 64);
  pages_per_slab_ = std::max<uint32_t>(1, kSlabBytes / page_size);
  const std::vector<uint8_t> zeros(page_size, 0);
  zero_checksum_ = ComputeChecksum(zeros.data(), page_size);
}

uint32_t SimulatedDisk::ComputeChecksum(const uint8_t* data, size_t len) {
  uint64_t lanes[4] = {14695981039346656037ULL ^ kChecksumSalt,
                       0x9e3779b97f4a7c15ULL, 0xbf58476d1ce4e5b9ULL,
                       0x94d049bb133111ebULL};
  size_t i = 0;
  for (; i + 32 <= len; i += 32) {
    lanes[0] = Mix(lanes[0], LoadWord(data + i));
    lanes[1] = Mix(lanes[1], LoadWord(data + i + 8));
    lanes[2] = Mix(lanes[2], LoadWord(data + i + 16));
    lanes[3] = Mix(lanes[3], LoadWord(data + i + 24));
  }
  for (; i + 8 <= len; i += 8) lanes[0] = Mix(lanes[0], LoadWord(data + i));
  if (i < len) {
    uint64_t tail = 0;
    std::memcpy(&tail, data + i, len - i);
    lanes[1] = Mix(lanes[1], tail);
  }
  const uint64_t h = lanes[0] ^ std::rotl(lanes[1], 16) ^
                     std::rotl(lanes[2], 32) ^ std::rotl(lanes[3], 48) ^ len;
  const uint64_t mixed = Avalanche(h);
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
  uint32_t slot = 0;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    std::memset(SlotData(slot), 0, page_size_);
    checksums_[slot] = zero_checksum_;
  } else {
    slot = num_slots();
    if (slot % pages_per_slab_ == 0) {
      // calloc: every page of a fresh slab is already a zeroed page.
      auto* slab = static_cast<uint8_t*>(
          std::calloc(pages_per_slab_, static_cast<size_t>(page_size_)));
      GAMMA_CHECK_MSG(slab != nullptr, "host out of memory for a disk slab");
      slabs_.emplace_back(slab);
    }
    checksums_.push_back(zero_checksum_);
  }
  ++live_pages_;
  slot_of_.push_back(slot);
  return static_cast<uint32_t>(slot_of_.size() - 1);
}

void SimulatedDisk::Free(uint32_t page_no) {
  GAMMA_CHECK_MSG(page_no < num_pages() && slot_of_[page_no] != kFreed,
                  "free of a page that is not allocated");
  free_slots_.push_back(slot_of_[page_no]);
  slot_of_[page_no] = kFreed;
  --live_pages_;
}

Status SimulatedDisk::Read(uint32_t page_no, uint8_t* out) {
  GAMMA_RETURN_NOT_OK(CheckBounds(page_no, "read"));
  if (slot_of_[page_no] == kFreed) {
    return Status::NotFound("read of freed page " + std::to_string(page_no) +
                            " on node " + std::to_string(node_));
  }
  GAMMA_RETURN_NOT_OK(ConsultFaults(page_no, /*writing=*/false));
  std::memcpy(out, SlotData(slot_of_[page_no]), page_size_);
  return Status::OK();
}

Status SimulatedDisk::Write(uint32_t page_no, const uint8_t* data) {
  GAMMA_RETURN_NOT_OK(CheckBounds(page_no, "write"));
  GAMMA_RETURN_NOT_OK(ConsultFaults(page_no, /*writing=*/true));
  const uint32_t slot = slot_of_[page_no];
  if (slot == kFreed) return Status::OK();  // a stale frame's write-back
  std::memcpy(SlotData(slot), data, page_size_);
  checksums_[slot] = ComputeChecksum(data, page_size_);
  return Status::OK();
}

uint32_t SimulatedDisk::StoredChecksum(uint32_t page_no) const {
  GAMMA_CHECK(page_no < num_pages() && slot_of_[page_no] != kFreed);
  return checksums_[slot_of_[page_no]];
}

void SimulatedDisk::CorruptStoredPage(uint32_t page_no) {
  GAMMA_CHECK(page_no < num_pages());
  const uint32_t slot = slot_of_[page_no];
  if (slot != kFreed) SlotData(slot)[page_no % page_size_] ^= 0xFF;
}

}  // namespace gammadb::storage
