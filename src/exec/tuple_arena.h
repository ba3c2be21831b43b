#ifndef GAMMA_EXEC_TUPLE_ARENA_H_
#define GAMMA_EXEC_TUPLE_ARENA_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "common/macros.h"

namespace gammadb::exec {

/// \brief Pooled store for fixed-size tuples, addressed by a dense uint32_t
/// index (the operators' replacement for one heap buffer per tuple).
///
/// Tuples are packed into chunks of at most kChunkBytes holding a power of
/// two tuples each, so an index splits into chunk and slot with a shift and
/// a mask, a stored tuple never moves while the arena grows, and the host
/// pays one allocation per chunk. Chunks are small enough to come from the
/// already-resident heap rather than fresh mmaps (one contiguous buffer per
/// table raised peak RSS measurably). A tuple larger than a chunk gets a
/// chunk of its own.
///
/// The tuple size is fixed by the first Append after construction or
/// Clear(); every tuple until the next Clear() must have that size.
/// Clear() keeps the chunks for reuse when the size stays the same.
class TupleArena {
 public:
  static constexpr uint32_t kChunkBytes = 64u << 10;

  TupleArena() = default;
  TupleArena(const TupleArena&) = delete;
  TupleArena& operator=(const TupleArena&) = delete;

  uint32_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  uint32_t tuple_size() const { return tuple_size_; }

  /// Copies `tuple` in and returns its index (== the previous size()).
  uint32_t Append(std::span<const uint8_t> tuple) {
    if (size_ == 0) SetTupleSize(static_cast<uint32_t>(tuple.size()));
    GAMMA_CHECK_MSG(tuple.size() == tuple_size_,
                    "TupleArena tuples must share one size");
    GAMMA_CHECK(size_ < UINT32_MAX);
    if ((size_ >> shift_) == chunks_.size()) {
      chunks_.push_back(std::make_unique_for_overwrite<uint8_t[]>(
          static_cast<size_t>(tuple_size_) << shift_));
    }
    std::memcpy(Slot(size_), tuple.data(), tuple_size_);
    return size_++;
  }

  std::span<const uint8_t> Get(uint32_t index) const {
    GAMMA_DCHECK(index < size_);
    return {Slot(index), tuple_size_};
  }

  /// Copies tuple `from` over tuple `to` (compaction; from > to).
  void Move(uint32_t to, uint32_t from) {
    GAMMA_DCHECK(to < from && from < size_);
    std::memcpy(Slot(to), Slot(from), tuple_size_);
  }

  /// Drops every tuple at index >= n, keeping the chunks.
  void Truncate(uint32_t n) {
    GAMMA_DCHECK(n <= size_);
    size_ = n;
  }

  /// Empties the arena, keeping its chunks.
  void Clear() { size_ = 0; }

 private:
  uint8_t* Slot(uint32_t index) const {
    return chunks_[index >> shift_].get() +
           static_cast<size_t>(index & mask_) * tuple_size_;
  }

  /// Picks the chunk geometry for `tuple_size`, releasing chunks cut for a
  /// different size.
  void SetTupleSize(uint32_t tuple_size) {
    if (tuple_size == tuple_size_ && !chunks_.empty()) return;
    const uint32_t per_chunk =
        tuple_size > kChunkBytes
            ? 1
            : std::bit_floor(kChunkBytes / std::max(tuple_size, 1u));
    chunks_.clear();
    tuple_size_ = tuple_size;
    shift_ = static_cast<uint32_t>(std::countr_zero(per_chunk));
    mask_ = per_chunk - 1;
  }

  std::vector<std::unique_ptr<uint8_t[]>> chunks_;
  uint32_t size_ = 0;
  uint32_t tuple_size_ = 0;
  uint32_t shift_ = 0;
  uint32_t mask_ = 0;
};

}  // namespace gammadb::exec

#endif  // GAMMA_EXEC_TUPLE_ARENA_H_
