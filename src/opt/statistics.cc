#include "opt/statistics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <utility>

#include "sim/host_pool.h"

namespace gammadb::opt {

namespace {

/// 64-bit finalizer (splitmix64); decorrelates consecutive keys so the
/// linear-counting bitmap fills uniformly.
uint64_t MixHash(int32_t value) {
  uint64_t x = static_cast<uint64_t>(static_cast<uint32_t>(value));
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Lemire's fastmod_u64 ("Faster Remainder by Direct Computation", 2019):
/// `a % d` from `m` = ceil(2^128 / d), exact for every 64-bit `a` and `d`.
uint64_t FastMod(uint64_t a, unsigned __int128 m, uint64_t d) {
  const unsigned __int128 low = m * a;
  // The high 64 bits of the 192-bit product low * d.
  const unsigned __int128 bottom = ((low & UINT64_MAX) * d) >> 64;
  const unsigned __int128 top = (low >> 64) * d;
  return static_cast<uint64_t>((bottom + top) >> 64);
}

size_t IndexHome(int32_t value) {
  return (static_cast<uint32_t>(value) * 0x9E3779B1u) >> 26;
}

}  // namespace

DistinctSketch::DistinctSketch(uint64_t expected) {
  // ~4 bits per expected distinct value keeps the zero fraction comfortably
  // away from saturation; 4096 bits minimum keeps tiny relations exact.
  uint64_t bits = std::max<uint64_t>(4096, 4 * expected);
  // Round up to a whole number of 64-bit words.
  const uint64_t words = (bits + 63) / 64;
  words_.assign(words, 0);
  bit_count_ = words * 64;
  fastmod_m_ = ~static_cast<unsigned __int128>(0) / bit_count_ + 1;
}

void DistinctSketch::Insert(int32_t value) {
  if (bit_count_ == 0) {
    // Un-sized sketch (incrementally created relation): start small.
    *this = DistinctSketch(1024);
  }
  const uint64_t bit = FastMod(MixHash(value), fastmod_m_, bit_count_);
  uint64_t& word = words_[bit / 64];
  const uint64_t mask = 1ull << (bit % 64);
  if ((word & mask) == 0) {
    word |= mask;
    ++set_bits_;
  }
}

double DistinctSketch::Estimate(double fallback) const {
  if (bit_count_ == 0 || set_bits_ == 0) return 0;
  if (set_bits_ >= bit_count_) return fallback;
  const double m = static_cast<double>(bit_count_);
  const double zero_fraction = (m - static_cast<double>(set_bits_)) / m;
  return -m * std::log(zero_fraction);
}

size_t FrequencySketch::Probe(int32_t value) const {
  size_t pos = IndexHome(value);
  while (index_slot_[pos] != 0 && index_value_[pos] != value) {
    pos = (pos + 1) % kIndexSlots;
  }
  return pos;
}

void FrequencySketch::Index(size_t pos, int32_t value, size_t slot) {
  index_value_[pos] = value;
  index_slot_[pos] = static_cast<uint8_t>(slot + 1);
  pos_of_[slot] = static_cast<uint8_t>(pos);
}

void FrequencySketch::Unindex(size_t pos) {
  size_t hole = pos;
  for (size_t next = (hole + 1) % kIndexSlots; index_slot_[next] != 0;
       next = (next + 1) % kIndexSlots) {
    // An entry may fill the hole only if the hole lies on its probe path.
    const size_t home = IndexHome(index_value_[next]);
    if ((next - home) % kIndexSlots >= (next - hole) % kIndexSlots) {
      Index(hole, index_value_[next], index_slot_[next] - 1u);
      hole = next;
    }
  }
  index_slot_[hole] = 0;
}

void FrequencySketch::LeaveMin(size_t slot) {
  min_mask_ &= ~(uint32_t{1} << slot);
  if (min_mask_ == 0) RescanMin();
}

void FrequencySketch::RescanMin() {
  min_count_ = entries_[0].count;
  for (const Entry& e : entries_) min_count_ = std::min(min_count_, e.count);
  min_mask_ = 0;
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].count == min_count_) min_mask_ |= uint32_t{1} << i;
  }
}

void FrequencySketch::Insert(int32_t value) {
  static_assert(kCapacity <= 32 && kIndexSlots >= 2 * kCapacity);
  if (tick_++ % kSampleEvery != 0) return;
  ++sampled_;
  const bool full = entries_.size() == kCapacity;
  const size_t pos = Probe(value);
  if (index_slot_[pos] != 0) {
    const size_t slot = index_slot_[pos] - 1u;
    Entry& e = entries_[slot];
    e.count += 1;
    if (full && e.count - 1 == min_count_) LeaveMin(slot);
    return;
  }
  if (!full) {
    Index(pos, value, entries_.size());
    entries_.push_back(Entry{value, 1, 0});
    if (entries_.size() == kCapacity) RescanMin();
    return;
  }
  // Space-saving takeover: the new value inherits the first minimum counter
  // and records it as its error bound. The new value is indexed before the
  // old one leaves (the table has room for both), so one probe serves.
  const auto victim = static_cast<size_t>(std::countr_zero(min_mask_));
  Entry& e = entries_[victim];
  const size_t old_pos = pos_of_[victim];
  Index(pos, value, victim);
  Unindex(old_pos);
  e.value = value;
  e.error = e.count;
  e.count += 1;
  LeaveMin(victim);
}

double FrequencySketch::TopShare() const {
  if (sampled_ == 0) return 0;
  uint64_t best = 0;
  for (const Entry& e : entries_) {
    best = std::max(best, e.count - e.error);
  }
  return static_cast<double>(best) / static_cast<double>(sampled_);
}

double PredictHashImbalance(const AttrStats& attr, size_t nsites) {
  if (nsites <= 1) return 1.0;
  const double f = std::clamp(attr.freq.TopShare(), 0.0, 1.0);
  return 1.0 + f * static_cast<double>(nsites - 1);
}

JoinSkewPrediction PredictJoinSkew(const RelationStats* outer, int outer_attr,
                                   const RelationStats* inner, int inner_attr,
                                   size_t nsites) {
  JoinSkewPrediction prediction;
  for (const auto& [stats, attr] : {std::pair{outer, outer_attr},
                                    std::pair{inner, inner_attr}}) {
    const AttrStats* as = stats != nullptr ? stats->Attr(attr) : nullptr;
    if (as != nullptr) {
      prediction.imbalance =
          std::max(prediction.imbalance, PredictHashImbalance(*as, nsites));
    }
  }
  prediction.use_bucket_map =
      prediction.imbalance > kSkewImbalanceThreshold;
  return prediction;
}

double AttrStats::DistinctEstimate(double cardinality) const {
  if (!has_values || cardinality <= 0) return 1;
  const double estimate = sketch.Estimate(cardinality);
  return std::clamp(estimate, 1.0, cardinality);
}

void StatisticsCatalog::OnLoad(
    const std::string& relation, const catalog::Schema& schema,
    const std::vector<std::vector<uint8_t>>& tuples,
    const catalog::PartitionSpec& partitioning) {
  RelationStats& stats = Ensure(relation, schema);
  stats.hash_partitioned =
      partitioning.strategy == catalog::PartitionStrategy::kHashed;
  stats.range_partitioned =
      partitioning.strategy == catalog::PartitionStrategy::kRangeUser ||
      partitioning.strategy == catalog::PartitionStrategy::kRangeUniform;
  stats.partition_attr =
      (stats.hash_partitioned || stats.range_partitioned)
          ? partitioning.key_attr
          : -1;
  // Size the sketches once, from the first (bulk) load.
  for (size_t a = 0; a < schema.num_attrs(); ++a) {
    if (schema.attr(a).type != catalog::AttrType::kInt32) continue;
    AttrStats& as = stats.attrs[a];
    if (!as.has_values) as.sketch = DistinctSketch(tuples.size());
  }
  AbsorbBatch(stats, schema, tuples);
  stats.cardinality += static_cast<double>(tuples.size());
}

void StatisticsCatalog::OnIndexBuilt(const std::string& relation, int attr,
                                     bool clustered) {
  auto it = relations_.find(relation);
  if (it == relations_.end()) return;
  if (it->second.FindIndex(attr, clustered) != nullptr) return;
  it->second.indexes.push_back(IndexStats{attr, clustered});
}

void StatisticsCatalog::OnAppend(const std::string& relation,
                                 const catalog::Schema& schema,
                                 std::span<const uint8_t> tuple) {
  RelationStats& stats = Ensure(relation, schema);
  Absorb(stats, schema, tuple);
  stats.cardinality += 1;
}

void StatisticsCatalog::OnDelete(const std::string& relation,
                                 uint64_t deleted) {
  auto it = relations_.find(relation);
  if (it == relations_.end()) return;
  it->second.cardinality =
      std::max(0.0, it->second.cardinality - static_cast<double>(deleted));
}

void StatisticsCatalog::OnModify(const std::string& relation,
                                 const catalog::Schema& schema, int attr,
                                 int32_t new_value) {
  RelationStats& stats = Ensure(relation, schema);
  if (attr < 0 || static_cast<size_t>(attr) >= stats.attrs.size()) return;
  if (schema.attr(static_cast<size_t>(attr)).type !=
      catalog::AttrType::kInt32) {
    return;
  }
  AttrStats& as = stats.attrs[static_cast<size_t>(attr)];
  as.min = std::min(as.min, new_value);
  as.max = std::max(as.max, new_value);
  as.sketch.Insert(new_value);
  as.freq.Insert(new_value);
  as.has_values = true;
}

void StatisticsCatalog::SetResultCardinality(const std::string& relation,
                                             const catalog::Schema& schema,
                                             double cardinality) {
  RelationStats& stats = Ensure(relation, schema);
  stats.cardinality = cardinality;
}

void StatisticsCatalog::Recompute(
    const std::string& relation, const catalog::Schema& schema,
    const std::vector<std::vector<uint8_t>>& tuples) {
  auto it = relations_.find(relation);
  RelationStats fresh;
  if (it != relations_.end()) {
    // Keep structural facts; rebuild the data-dependent ones.
    fresh.partition_attr = it->second.partition_attr;
    fresh.hash_partitioned = it->second.hash_partitioned;
    fresh.range_partitioned = it->second.range_partitioned;
    fresh.indexes = it->second.indexes;
  }
  fresh.attrs.resize(schema.num_attrs());
  for (size_t a = 0; a < schema.num_attrs(); ++a) {
    if (schema.attr(a).type != catalog::AttrType::kInt32) continue;
    fresh.attrs[a].sketch = DistinctSketch(tuples.size());
  }
  AbsorbBatch(fresh, schema, tuples);
  fresh.cardinality = static_cast<double>(tuples.size());
  relations_[relation] = std::move(fresh);
}

void StatisticsCatalog::Drop(const std::string& relation) {
  relations_.erase(relation);
}

const RelationStats* StatisticsCatalog::Find(
    const std::string& relation) const {
  auto it = relations_.find(relation);
  return it == relations_.end() ? nullptr : &it->second;
}

RelationStats& StatisticsCatalog::Ensure(const std::string& relation,
                                         const catalog::Schema& schema) {
  RelationStats& stats = relations_[relation];
  if (stats.attrs.size() < schema.num_attrs()) {
    stats.attrs.resize(schema.num_attrs());
  }
  return stats;
}

void StatisticsCatalog::AbsorbValue(AttrStats& as, int32_t value) {
  as.min = std::min(as.min, value);
  as.max = std::max(as.max, value);
  as.sketch.Insert(value);
  as.freq.Insert(value);
  as.has_values = true;
}

void StatisticsCatalog::Absorb(RelationStats& stats,
                               const catalog::Schema& schema,
                               std::span<const uint8_t> tuple) {
  const catalog::TupleView view(&schema, tuple);
  for (size_t a = 0; a < schema.num_attrs(); ++a) {
    if (schema.attr(a).type != catalog::AttrType::kInt32) continue;
    AbsorbValue(stats.attrs[a], view.GetInt(a));
  }
}

void StatisticsCatalog::AbsorbBatch(
    RelationStats& stats, const catalog::Schema& schema,
    const std::vector<std::vector<uint8_t>>& tuples) {
  std::vector<size_t> ints;
  for (size_t a = 0; a < schema.num_attrs(); ++a) {
    if (schema.attr(a).type == catalog::AttrType::kInt32) ints.push_back(a);
  }
  // Every attribute's statistics see the batch in input order whichever
  // task folds them in, so the attributes are split into one contiguous
  // block per pool thread, and each task runs tuple-major over its block,
  // like Absorb. A task folds into private copies: neighbouring AttrStats
  // share cache lines, and both tasks would write them on every tuple.
  sim::HostPool& pool = sim::HostPool::Instance();
  const size_t num_tasks =
      std::min(ints.size(), static_cast<size_t>(pool.num_threads()));
  std::vector<std::function<void()>> tasks;
  tasks.reserve(num_tasks);
  for (size_t k = 0; k < num_tasks; ++k) {
    const size_t begin = ints.size() * k / num_tasks;
    const size_t end = ints.size() * (k + 1) / num_tasks;
    tasks.push_back([&, begin, end] {
      std::vector<AttrStats> mine;
      mine.reserve(end - begin);
      for (size_t i = begin; i < end; ++i) {
        mine.push_back(std::move(stats.attrs[ints[i]]));
      }
      for (const std::vector<uint8_t>& tuple : tuples) {
        const catalog::TupleView view(&schema, tuple);
        for (size_t i = begin; i < end; ++i) {
          AbsorbValue(mine[i - begin], view.GetInt(ints[i]));
        }
      }
      for (size_t i = begin; i < end; ++i) {
        stats.attrs[ints[i]] = std::move(mine[i - begin]);
      }
    });
  }
  pool.RunAll(tasks);
}

}  // namespace gammadb::opt
