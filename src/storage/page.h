#ifndef GAMMA_STORAGE_PAGE_H_
#define GAMMA_STORAGE_PAGE_H_

#include <cstdint>
#include <optional>
#include <span>

namespace gammadb::storage {

/// \brief Slotted-page record layout over a raw page buffer.
///
/// Classic layout: a small header, a slot directory growing upward, and
/// record bodies growing downward from the end of the page. Deleting a
/// record tombstones its slot (slot ids stay stable so record ids remain
/// valid); the space is reclaimed by on-demand compaction when a later
/// insert needs it.
///
/// The class is a non-owning view: the bytes live in a buffer-pool frame.
class SlottedPage {
 public:
  /// Slot value marking a deleted record.
  static constexpr uint16_t kDeadSlot = 0xFFFF;

  /// Minimum meaningful page size (header + one slot + one byte).
  static constexpr uint32_t kMinPageSize = 64;

  SlottedPage(uint8_t* data, uint32_t page_size);

  /// Records of `record_size` bytes an empty `page_size`-byte page holds:
  /// each takes its bytes plus one slot, after the header.
  static constexpr uint32_t Capacity(uint32_t page_size,
                                     uint32_t record_size) {
    return (page_size - kHeaderSize) / (record_size + kSlotSize);
  }

  /// Writes an empty page's header into `data`. The rest of the page is
  /// left as it is: a new page (BufferPool::NewPage) is already zeroed.
  static void Initialize(uint8_t* data, uint32_t page_size);

  /// A view over a read-only page (BufferPool::PinRead); only the const
  /// accessors may be used on it.
  static SlottedPage View(const uint8_t* data, uint32_t page_size) {
    return SlottedPage(const_cast<uint8_t*>(data), page_size);
  }

  /// Number of slots ever allocated (including tombstones).
  uint16_t slot_count() const;
  /// Number of live records.
  uint16_t live_count() const;

  /// Bytes available for one more record of any size (accounts for the slot
  /// directory entry and for reclaimable fragmentation).
  uint32_t FreeSpace() const;

  /// Appends a record; returns its slot id, or nullopt if it cannot fit.
  std::optional<uint16_t> Insert(std::span<const uint8_t> record);

  /// Returns the record bytes, or an empty span for a dead/out-of-range slot.
  std::span<const uint8_t> Get(uint16_t slot) const;

  bool IsLive(uint16_t slot) const;

  /// Tombstones the slot. Returns false if it was not live.
  bool Delete(uint16_t slot);

  /// Revives a tombstoned slot with `record` (recovery undo of a deletion:
  /// the tuple returns to its original rid). Returns false if the slot is
  /// live/out of range or the record no longer fits.
  bool Restore(uint16_t slot, std::span<const uint8_t> record);

  /// Replaces the record in `slot`. Equal-size updates happen in place;
  /// different sizes relocate within the page. Returns false if the new
  /// record cannot fit.
  bool Update(uint16_t slot, std::span<const uint8_t> record);

  uint32_t page_size() const { return page_size_; }

 private:
  struct Header {
    uint16_t num_slots;
    uint16_t free_end;    // records occupy [free_end, page_size)
    uint16_t live_count;
    uint16_t dead_bytes;  // reclaimable record bytes from deleted slots
  };
  struct Slot {
    uint16_t offset;  // kDeadSlot when tombstoned
    uint16_t length;
  };

  static constexpr uint32_t kHeaderSize = sizeof(Header);
  static constexpr uint32_t kSlotSize = sizeof(Slot);

  Header* header() { return reinterpret_cast<Header*>(data_); }
  const Header* header() const { return reinterpret_cast<const Header*>(data_); }
  Slot* slots() { return reinterpret_cast<Slot*>(data_ + kHeaderSize); }
  const Slot* slots() const {
    return reinterpret_cast<const Slot*>(data_ + kHeaderSize);
  }

  /// Contiguous free bytes between the slot directory and the record area.
  uint32_t ContiguousFree() const;
  /// Moves live records to the end of the page, squeezing out dead bytes.
  void Compact();

  uint8_t* data_;
  uint32_t page_size_;
};

}  // namespace gammadb::storage

#endif  // GAMMA_STORAGE_PAGE_H_
