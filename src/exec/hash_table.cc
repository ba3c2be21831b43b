#include "exec/hash_table.h"

#include <algorithm>
#include <bit>

namespace gammadb::exec {

JoinHashTable::JoinHashTable(uint64_t capacity_bytes)
    : capacity_bytes_(capacity_bytes) {}

bool JoinHashTable::Insert(int32_t key, std::span<const uint8_t> tuple) {
  const uint64_t need = tuple.size() + kPerEntryOverhead;
  if (bytes_used_ + need > capacity_bytes_) return false;
  Add(key, tuple);
  bytes_used_ += need;
  return true;
}

void JoinHashTable::InsertUnchecked(int32_t key,
                                    std::span<const uint8_t> tuple) {
  Add(key, tuple);
  bytes_used_ += tuple.size() + kPerEntryOverhead;
}

void JoinHashTable::Add(int32_t key, std::span<const uint8_t> tuple) {
  const uint32_t index = arena_.Append(tuple);
  entries_.push_back(Entry{kNil, key});
  // Load factor <= 1: grow the head array (and rechain) when entries
  // outnumber buckets; otherwise push the entry onto its chain.
  if (entries_.size() > heads_.size()) {
    Relink();
    return;
  }
  uint32_t& head = heads_[Bucket(key)];
  entries_[index].next = head;
  head = index;
}

void JoinHashTable::Relink() {
  const size_t buckets =
      std::max<size_t>(kMinBuckets, std::bit_ceil(entries_.size()));
  if (buckets > heads_.size()) {
    heads_.resize(buckets);
    bucket_shift_ = 32 - static_cast<uint32_t>(std::countr_zero(buckets));
  }
  std::fill(heads_.begin(), heads_.end(), kNil);
  for (uint32_t i = 0; i < entries_.size(); ++i) {
    uint32_t& head = heads_[Bucket(entries_[i].key)];
    entries_[i].next = head;
    head = i;
  }
}

void JoinHashTable::Clear() {
  arena_.Clear();
  entries_.clear();
  std::fill(heads_.begin(), heads_.end(), kNil);
  bytes_used_ = 0;
}

}  // namespace gammadb::exec
