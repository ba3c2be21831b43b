#include "opt/statistics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <functional>
#include <numeric>
#include <utility>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

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

/// Tuples per column block in FoldBatch: the 13 Wisconsin int columns of a
/// gathered block take 832 KB, about a core's L2.
constexpr size_t kGatherBlock = 16384;

/// Folds an attribute's values (at least one), in order, into its
/// statistics.
void Fold(AttrStats& as, std::span<const int32_t> column) {
  const auto [lo, hi] = std::ranges::minmax(column);
  as.min = std::min(as.min, lo);
  as.max = std::max(as.max, hi);
  as.sketch.InsertAll(column);
  as.freq.InsertAll(column);
  as.has_values = true;
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

void DistinctSketch::InsertAll(std::span<const int32_t> values) {
  if (bit_count_ == 0) *this = DistinctSketch(1024);
  // Direct-mapped on the value's low byte; slot i starts at i + 1, a value
  // that never maps to it, so a hit is always a value inserted here.
  int32_t seen[256];
  std::iota(seen, seen + 256, 1);
  for (const int32_t value : values) {
    int32_t& slot = seen[static_cast<uint32_t>(value) % 256];
    if (slot == value) continue;
    slot = value;
    const uint64_t bit = FastMod(MixHash(value), fastmod_m_, bit_count_);
    const uint64_t mask = uint64_t{1} << (bit % 64);
    set_bits_ += (words_[bit / 64] & mask) == 0 ? 1 : 0;
    words_[bit / 64] |= mask;
  }
}

double DistinctSketch::Estimate(double fallback) const {
  if (bit_count_ == 0 || set_bits_ == 0) return 0;
  if (set_bits_ >= bit_count_) return fallback;
  const double m = static_cast<double>(bit_count_);
  const double zero_fraction = (m - static_cast<double>(set_bits_)) / m;
  return -m * std::log(zero_fraction);
}

uint32_t FrequencySketch::Match(int32_t value) const {
  uint32_t mask = 0;
#if defined(__SSE2__)
  const __m128i needle = _mm_set1_epi32(value);
  for (size_t i = 0; i < kCapacity; i += 4) {
    const __m128i lanes =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(values_ + i));
    const __m128i eq = _mm_cmpeq_epi32(lanes, needle);
    mask |= static_cast<uint32_t>(_mm_movemask_ps(_mm_castsi128_ps(eq))) << i;
  }
#else
  for (size_t i = 0; i < kCapacity; ++i) {
    mask |= static_cast<uint32_t>(values_[i] == value) << i;
  }
#endif
  return mask;
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

void FrequencySketch::InsertAll(std::span<const int32_t> values) {
  // The sampled inserts are those made at a tick that is a multiple of
  // kSampleEvery.
  for (size_t i = (kSampleEvery - tick_ % kSampleEvery) % kSampleEvery;
       i < values.size(); i += kSampleEvery) {
    Sample(values[i]);
  }
  tick_ += values.size();
}

void FrequencySketch::Sample(int32_t value) {
  static_assert(kCapacity == 32);
  ++sampled_;
  const size_t size = entries_.size();
  const bool full = size == kCapacity;
  const uint32_t used = full ? ~uint32_t{0} : (uint32_t{1} << size) - 1;
  if (const uint32_t match = Match(value) & used; match != 0) {
    const auto slot = static_cast<size_t>(std::countr_zero(match));
    Entry& e = entries_[slot];
    e.count += 1;
    if (full && e.count - 1 == min_count_) LeaveMin(slot);
    return;
  }
  if (!full) {
    values_[size] = value;
    entries_.push_back(Entry{value, 1, 0});
    if (entries_.size() == kCapacity) RescanMin();
    return;
  }
  // Space-saving takeover: the new value inherits the first minimum counter
  // and records it as its error bound.
  const auto victim = static_cast<size_t>(std::countr_zero(min_mask_));
  Entry& e = entries_[victim];
  values_[victim] = value;
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

std::vector<size_t> IntAttrs(const catalog::Schema& schema) {
  std::vector<size_t> ints;
  for (size_t a = 0; a < schema.num_attrs(); ++a) {
    if (schema.attr(a).type == catalog::AttrType::kInt32) ints.push_back(a);
  }
  return ints;
}

double AttrStats::DistinctEstimate(double cardinality) const {
  if (!has_values || cardinality <= 0) return 1;
  const double estimate = sketch.Estimate(cardinality);
  return std::clamp(estimate, 1.0, cardinality);
}

void StatisticsCatalog::OnLoad(
    const std::string& relation, const catalog::Schema& schema,
    const std::vector<std::vector<uint8_t>>& tuples) {
  AbsorbTuples(Ensure(relation, schema), schema, tuples);
}

void StatisticsCatalog::OnAppend(const std::string& relation,
                                 const catalog::Schema& schema,
                                 std::span<const uint8_t> tuple) {
  RelationStats& stats = Ensure(relation, schema);
  const catalog::TupleView view(&schema, tuple);
  for (size_t a = 0; a < schema.num_attrs(); ++a) {
    if (schema.attr(a).type != catalog::AttrType::kInt32) continue;
    const int32_t value = view.GetInt(a);
    Fold(stats.attrs[a], std::span(&value, 1));
  }
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
  Fold(stats.attrs[static_cast<size_t>(attr)], std::span(&new_value, 1));
}

void StatisticsCatalog::Recompute(
    const std::string& relation, const catalog::Schema& schema,
    const std::vector<std::vector<uint8_t>>& tuples) {
  AbsorbTuples(Reset(relation, schema), schema, tuples);
}

void StatisticsCatalog::Recompute(const std::string& relation,
                                  const catalog::Schema& schema,
                                  const IntColumns& swept) {
  FoldBatch(Reset(relation, schema), IntAttrs(schema), swept.rows,
            [&](size_t begin, size_t, std::vector<const int32_t*>& block) {
              for (size_t i = 0; i < block.size(); ++i) {
                block[i] = swept.columns[i].data() + begin;
              }
            });
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

RelationStats& StatisticsCatalog::Reset(const std::string& relation,
                                        const catalog::Schema& schema) {
  relations_[relation] = RelationStats{};
  return Ensure(relation, schema);
}

void StatisticsCatalog::FoldBatch(RelationStats& stats,
                                  const std::vector<size_t>& ints,
                                  uint64_t rows, const GatherBlock& gather) {
  // Size the sketch once, from the first (bulk) batch.
  for (const size_t a : ints) {
    AttrStats& as = stats.attrs[a];
    if (!as.has_values) as.sketch = DistinctSketch(rows);
  }
  // Blocks run in batch order, so every attribute sees the batch in order.
  std::vector<const int32_t*> block(ints.size());
  size_t n = 0;
  std::vector<std::function<void()>> fold;
  for (size_t i = 0; i < ints.size(); ++i) {
    fold.push_back(
        [&, i] { Fold(stats.attrs[ints[i]], std::span(block[i], n)); });
  }
  sim::HostPool& pool = sim::HostPool::Instance();
  for (uint64_t begin = 0; begin < rows; begin += n) {
    n = static_cast<size_t>(std::min<uint64_t>(kGatherBlock, rows - begin));
    gather(static_cast<size_t>(begin), n, block);
    pool.RunAll(fold);
  }
}

void StatisticsCatalog::AbsorbTuples(
    RelationStats& stats, const catalog::Schema& schema,
    const std::vector<std::vector<uint8_t>>& tuples) {
  const std::vector<size_t> ints = IntAttrs(schema);
  // The pool's threads gather disjoint tuple ranges of a block into the int
  // columns (column i at [i * block, (i + 1) * block)).
  const size_t block = std::min(kGatherBlock, tuples.size());
  std::vector<int32_t> columns(ints.size() * block);
  size_t begin = 0;
  size_t n = 0;
  sim::HostPool& pool = sim::HostPool::Instance();
  const auto width = static_cast<size_t>(pool.num_threads());
  std::vector<std::function<void()>> gather;
  for (size_t k = 0; k < width; ++k) {
    gather.push_back([&, k] {
      // Attribute-major over a group of tuples at a time: each inner loop
      // writes one column, from tuples that stay in L1. (Tuple-major writes
      // 13 streams 64 KB apart, which collide in the same L1 sets.)
      constexpr size_t kGroup = 64;
      const uint8_t* group[kGroup];
      const size_t end = n * (k + 1) / width;
      for (size_t t0 = n * k / width; t0 < end; t0 += kGroup) {
        const size_t m = std::min(kGroup, end - t0);
        for (size_t t = 0; t < m; ++t) {
          group[t] = tuples[begin + t0 + t].data();
        }
        for (size_t i = 0; i < ints.size(); ++i) {
          int32_t* column = &columns[i * block + t0];
          const uint32_t offset = schema.offset(ints[i]);
          for (size_t t = 0; t < m; ++t) {
            std::memcpy(&column[t], group[t] + offset, sizeof(int32_t));
          }
        }
      }
    });
  }
  FoldBatch(stats, ints, tuples.size(),
            [&](size_t block_begin, size_t block_n,
                std::vector<const int32_t*>& out) {
              begin = block_begin;
              n = block_n;
              pool.RunAll(gather);
              for (size_t i = 0; i < out.size(); ++i) {
                out[i] = &columns[i * block];
              }
            });
}

}  // namespace gammadb::opt
