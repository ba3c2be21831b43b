#include "storage/page.h"

#include <cstring>
#include <vector>

#include "common/macros.h"

namespace gammadb::storage {

SlottedPage::SlottedPage(uint8_t* data, uint32_t page_size)
    : data_(data), page_size_(page_size) {
  GAMMA_DCHECK(page_size >= kMinPageSize);
  GAMMA_DCHECK(page_size <= 0xFFFF + 1u);
}

void SlottedPage::Initialize(uint8_t* data, uint32_t page_size) {
  // uint16 offsets cap pages at 32 KiB, which is also the paper's maximum.
  GAMMA_CHECK(page_size >= kMinPageSize && page_size <= 32768);
  auto* header = reinterpret_cast<Header*>(data);
  header->num_slots = 0;
  header->free_end = static_cast<uint16_t>(page_size);
  header->live_count = 0;
  header->dead_bytes = 0;
}

uint16_t SlottedPage::slot_count() const { return header()->num_slots; }
uint16_t SlottedPage::live_count() const { return header()->live_count; }

uint32_t SlottedPage::ContiguousFree() const {
  const uint32_t slot_area_end = kHeaderSize + header()->num_slots * kSlotSize;
  const uint32_t free_end = header()->free_end;
  GAMMA_DCHECK(free_end >= slot_area_end);
  return free_end - slot_area_end;
}

uint32_t SlottedPage::FreeSpace() const {
  const uint32_t usable = ContiguousFree() + header()->dead_bytes;
  return usable > kSlotSize ? usable - kSlotSize : 0;
}

void SlottedPage::Compact() {
  // Collect live records, then rewrite them from the end of the page.
  std::vector<std::vector<uint8_t>> bodies(header()->num_slots);
  for (uint16_t i = 0; i < header()->num_slots; ++i) {
    const Slot& slot = slots()[i];
    if (slot.offset == kDeadSlot) continue;
    bodies[i].assign(data_ + slot.offset, data_ + slot.offset + slot.length);
  }
  uint32_t cursor = page_size_;
  for (uint16_t i = 0; i < header()->num_slots; ++i) {
    Slot& slot = slots()[i];
    if (slot.offset == kDeadSlot) continue;
    cursor -= slot.length;
    std::memcpy(data_ + cursor, bodies[i].data(), slot.length);
    slot.offset = static_cast<uint16_t>(cursor);
  }
  header()->free_end = static_cast<uint16_t>(cursor);
  header()->dead_bytes = 0;
}

std::optional<uint16_t> SlottedPage::Insert(std::span<const uint8_t> record) {
  const uint32_t need = static_cast<uint32_t>(record.size());
  if (need == 0) return std::nullopt;
  if (need + kSlotSize > ContiguousFree()) {
    if (need + kSlotSize > ContiguousFree() + header()->dead_bytes) {
      return std::nullopt;
    }
    Compact();
    if (need + kSlotSize > ContiguousFree()) return std::nullopt;
  }
  const uint32_t free_end = header()->free_end;
  const uint32_t offset = free_end - need;
  std::memcpy(data_ + offset, record.data(), need);
  const uint16_t slot_id = header()->num_slots;
  header()->num_slots += 1;
  Slot& slot = slots()[slot_id];
  slot.offset = static_cast<uint16_t>(offset);
  slot.length = static_cast<uint16_t>(need);
  header()->free_end = static_cast<uint16_t>(offset);
  header()->live_count += 1;
  return slot_id;
}

std::span<const uint8_t> SlottedPage::Get(uint16_t slot_id) const {
  if (slot_id >= header()->num_slots) return {};
  const Slot& slot = slots()[slot_id];
  if (slot.offset == kDeadSlot) return {};
  return {data_ + slot.offset, slot.length};
}

bool SlottedPage::IsLive(uint16_t slot_id) const {
  return slot_id < header()->num_slots &&
         slots()[slot_id].offset != kDeadSlot;
}

bool SlottedPage::Delete(uint16_t slot_id) {
  if (!IsLive(slot_id)) return false;
  Slot& slot = slots()[slot_id];
  header()->dead_bytes += slot.length;
  slot.offset = kDeadSlot;
  slot.length = 0;
  header()->live_count -= 1;
  return true;
}

bool SlottedPage::Restore(uint16_t slot_id, std::span<const uint8_t> record) {
  if (slot_id >= header()->num_slots) return false;
  Slot& slot = slots()[slot_id];
  if (slot.offset != kDeadSlot) return false;
  const uint32_t need = static_cast<uint32_t>(record.size());
  if (need == 0) return false;
  if (need > ContiguousFree()) {
    if (need > ContiguousFree() + header()->dead_bytes) return false;
    Compact();
    if (need > ContiguousFree()) return false;
  }
  const uint32_t offset = header()->free_end - need;
  std::memcpy(data_ + offset, record.data(), need);
  slot.offset = static_cast<uint16_t>(offset);
  slot.length = static_cast<uint16_t>(need);
  header()->free_end = static_cast<uint16_t>(offset);
  header()->live_count += 1;
  return true;
}

bool SlottedPage::Update(uint16_t slot_id, std::span<const uint8_t> record) {
  if (!IsLive(slot_id)) return false;
  Slot& slot = slots()[slot_id];
  if (record.size() == slot.length) {
    std::memcpy(data_ + slot.offset, record.data(), record.size());
    return true;
  }
  // Relocate: free the old body, then place the new one.
  const uint16_t old_length = slot.length;
  header()->dead_bytes += old_length;
  slot.length = 0;
  const uint32_t need = static_cast<uint32_t>(record.size());
  if (need > ContiguousFree()) {
    if (need > ContiguousFree() + header()->dead_bytes) {
      // Roll back the deletion bookkeeping; the caller keeps the old record.
      header()->dead_bytes -= old_length;
      slot.length = old_length;
      return false;
    }
    slot.offset = kDeadSlot;  // exclude the old body from compaction
    header()->live_count -= 1;
    Compact();
    header()->live_count += 1;
  }
  const uint32_t free_end = header()->free_end;
  const uint32_t offset = free_end - need;
  std::memcpy(data_ + offset, record.data(), need);
  slot.offset = static_cast<uint16_t>(offset);
  slot.length = static_cast<uint16_t>(need);
  header()->free_end = static_cast<uint16_t>(offset);
  return true;
}

}  // namespace gammadb::storage
