#ifndef GAMMA_EXEC_HASH_TABLE_H_
#define GAMMA_EXEC_HASH_TABLE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "exec/tuple_arena.h"

namespace gammadb::exec {

/// \brief Memory-capped main-memory join hash table (one join site's table).
///
/// Insert returns false — hash-table overflow — once adding the tuple would
/// exceed the capacity. The overflow machinery around it (Simple or Hybrid
/// hash join) decides what happens to rejected tuples; the table itself
/// never spills.
///
/// Layout: tuple bytes live in a TupleArena and entry i describes arena
/// tuple i, so no pointer or per-tuple allocation exists. A power-of-two
/// array of chain heads holds entry indices; each 8-byte entry holds its
/// key and the index of the next entry in its chain. Clear() keeps every
/// buffer, so overflow rounds and Hybrid buckets reuse them. All tuples
/// stored between two Clear() calls must have the same size (one join
/// input's schema).
class JoinHashTable {
 public:
  /// Accounting overhead per stored tuple (bucket pointer + length), on top
  /// of the tuple bytes, matching the paper's "memory available for hash
  /// tables" arithmetic closely enough to place overflow where it placed it.
  static constexpr uint64_t kPerEntryOverhead = 16;

  explicit JoinHashTable(uint64_t capacity_bytes);

  JoinHashTable(const JoinHashTable&) = delete;
  JoinHashTable& operator=(const JoinHashTable&) = delete;

  /// Stores (key, tuple). Returns false if it would exceed capacity.
  bool Insert(int32_t key, std::span<const uint8_t> tuple);

  /// Stores (key, tuple) even past capacity. Last-resort safety valve for
  /// pathological key skew where no residency split can shrink the table;
  /// callers count uses (it represents real memory over-commitment).
  void InsertUnchecked(int32_t key, std::span<const uint8_t> tuple);

  /// Invokes `match(std::span<const uint8_t>)` for every stored tuple with
  /// this key.
  template <typename Match>
  void Probe(int32_t key, Match&& match) const {
    if (entries_.empty()) return;
    for (uint32_t i = heads_[Bucket(key)]; i != kNil; i = entries_[i].next) {
      if (entries_[i].key == key) match(arena_.Get(i));
    }
  }

  uint64_t size() const { return entries_.size(); }
  uint64_t bytes_used() const { return bytes_used_; }
  uint64_t capacity_bytes() const { return capacity_bytes_; }

  /// Empties the table, keeping the capacity (next overflow round).
  void Clear();

  /// Removes every entry whose key satisfies `should_extract(int32_t)`,
  /// handing each removed (key, tuple) to `sink` in insertion order. Returns
  /// the number removed. Used by the Simple hash join's overflow purge.
  template <typename ShouldExtract, typename Sink>
  uint64_t ExtractIf(ShouldExtract&& should_extract, Sink&& sink) {
    const auto n = static_cast<uint32_t>(entries_.size());
    uint32_t kept = 0;
    for (uint32_t i = 0; i < n; ++i) {
      const Entry entry = entries_[i];
      if (should_extract(entry.key)) {
        const std::span<const uint8_t> tuple = arena_.Get(i);
        sink(entry.key, tuple);
        bytes_used_ -= tuple.size() + kPerEntryOverhead;
        continue;
      }
      if (kept != i) {
        entries_[kept] = entry;
        arena_.Move(kept, i);
      }
      ++kept;
    }
    entries_.resize(kept);
    arena_.Truncate(kept);
    Relink();
    return n - kept;
  }

 private:
  static constexpr uint32_t kNil = UINT32_MAX;
  static constexpr uint32_t kMinBuckets = 1024;

  struct Entry {
    uint32_t next;
    int32_t key;
  };

  uint32_t Bucket(int32_t key) const {
    // Fibonacci hashing: the top bits of a multiplicative hash.
    return static_cast<uint32_t>(static_cast<uint32_t>(key) * 0x9E3779B1u) >>
           bucket_shift_;
  }
  void Add(int32_t key, std::span<const uint8_t> tuple);
  /// Rebuilds every chain over the current entries.
  void Relink();

  uint64_t capacity_bytes_;
  uint64_t bytes_used_ = 0;
  TupleArena arena_;
  std::vector<Entry> entries_;
  std::vector<uint32_t> heads_;
  uint32_t bucket_shift_ = 32;
};

}  // namespace gammadb::exec

#endif  // GAMMA_EXEC_HASH_TABLE_H_
