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
#include "storage/heap_file.h"

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

/// Folds an attribute's values (at least one), in order: into min/max and
/// the distinct sketch when `distinct`, into the frequency sketch when
/// `freq`.
void FoldValues(AttrStats& as, std::span<const int32_t> column, bool distinct,
                bool freq) {
  if (distinct) {
    const auto [lo, hi] = std::ranges::minmax(column);
    as.min = std::min(as.min, lo);
    as.max = std::max(as.max, hi);
    as.sketch.InsertAll(column);
    as.has_values = true;
  }
  if (freq) as.freq.InsertAll(column);
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

double PredictHashImbalance(const FrequencySketch& freq, size_t nsites) {
  if (nsites <= 1) return 1.0;
  const double f = std::clamp(freq.TopShare(), 0.0, 1.0);
  return 1.0 + f * static_cast<double>(nsites - 1);
}

JoinSkewPrediction PredictJoinSkew(const RelationStats* outer, int outer_attr,
                                   const RelationStats* inner, int inner_attr,
                                   size_t nsites) {
  // Both frequency sketches fold together, on host tasks of their own.
  StatisticsCatalog::Fold({{outer, outer_attr}, {inner, inner_attr}},
                          /*frequency_only=*/true);
  JoinSkewPrediction prediction;
  for (const auto& [stats, attr] : {std::pair{outer, outer_attr},
                                    std::pair{inner, inner_attr}}) {
    const FrequencySketch* freq =
        stats != nullptr ? stats->Frequency(attr) : nullptr;
    if (freq != nullptr) {
      prediction.imbalance =
          std::max(prediction.imbalance, PredictHashImbalance(*freq, nsites));
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

const AttrStats* RelationStats::Attr(int attr) const {
  if (attr < 0 || static_cast<size_t>(attr) >= slots_.size() ||
      !slots_[static_cast<size_t>(attr)].is_int) {
    return nullptr;
  }
  const Slot& slot = slots_[static_cast<size_t>(attr)];
  if (!slot.folded) StatisticsCatalog::Fold({{this, attr}});
  return slot.folded && slot.stats.has_values ? &slot.stats : nullptr;
}

const FrequencySketch* RelationStats::Frequency(int attr) const {
  if (attr < 0 || static_cast<size_t>(attr) >= slots_.size() ||
      !slots_[static_cast<size_t>(attr)].is_int) {
    return nullptr;
  }
  const Slot& slot = slots_[static_cast<size_t>(attr)];
  if (!slot.freq_folded) StatisticsCatalog::Fold({{this, attr}}, true);
  return slot.freq_folded ? &slot.stats.freq : nullptr;
}

void StatisticsCatalog::Reset(const std::string& relation,
                              const catalog::Schema& schema) {
  RelationStats& stats = relations_[relation];
  stats.owner_ = this;
  stats.name_ = relation;
  stats.slots_.assign(schema.num_attrs(), {});
  for (size_t a = 0; a < schema.num_attrs(); ++a) {
    stats.slots_[a].is_int =
        schema.attr(a).type == catalog::AttrType::kInt32;
    stats.slots_[a].offset = schema.offset(a);
  }
}

void StatisticsCatalog::OnAppend(const std::string& relation,
                                 std::span<const uint8_t> tuple) {
  auto it = relations_.find(relation);
  if (it == relations_.end()) return;
  for (RelationStats::Slot& slot : it->second.slots_) {
    if (!slot.folded && !slot.freq_folded) continue;
    int32_t value;
    std::memcpy(&value, tuple.data() + slot.offset, sizeof(value));
    FoldValues(slot.stats, std::span(&value, 1), slot.folded,
               slot.freq_folded);
  }
}

void StatisticsCatalog::OnModify(const std::string& relation, int attr,
                                 int32_t new_value) {
  auto it = relations_.find(relation);
  if (it == relations_.end() || attr < 0 ||
      static_cast<size_t>(attr) >= it->second.slots_.size()) {
    return;
  }
  RelationStats::Slot& slot = it->second.slots_[static_cast<size_t>(attr)];
  FoldValues(slot.stats, std::span(&new_value, 1), slot.folded,
             slot.freq_folded);
}

void StatisticsCatalog::Drop(const std::string& relation) {
  relations_.erase(relation);
}

const RelationStats* StatisticsCatalog::Find(
    const std::string& relation) const {
  auto it = relations_.find(relation);
  return it == relations_.end() ? nullptr : &it->second;
}

void StatisticsCatalog::Fold(
    std::initializer_list<std::pair<const RelationStats*, int>> wanted,
    bool frequency_only) {
  struct Job {
    RelationStats::Slot* slot;
    const StatisticsCatalog* owner;
    FragmentFiles files;
  };
  std::vector<Job> jobs;
  for (const auto& [stats, attr] : wanted) {
    if (stats == nullptr || attr < 0 ||
        static_cast<size_t>(attr) >= stats->slots_.size()) {
      continue;
    }
    RelationStats::Slot* slot = &stats->slots_[static_cast<size_t>(attr)];
    const auto queued = [&](const Job& job) { return job.slot == slot; };
    if (!slot->is_int || (frequency_only ? slot->freq_folded : slot->folded) ||
        std::ranges::any_of(jobs, queued)) {
      continue;
    }
    Result<FragmentFiles> files = stats->owner_->locate_(stats->name_);
    if (files.ok()) jobs.push_back({slot, stats->owner_, std::move(*files)});
  }
  std::vector<std::function<void()>> tasks;
  for (const Job& job : jobs) {
    tasks.push_back([&job, frequency_only] {
      // The attribute's values in stored order: fragment, page, slot. A
      // frequency-only fold reads just the records the sketch samples and
      // leaves the others 0. The pages are mostly cold, so each page's
      // values are prefetched first.
      const uint32_t offset = job.slot->offset;
      const auto wanted_at = [&](size_t i) {
        return !frequency_only || i % FrequencySketch::kSampleEvery == 0;
      };
      std::vector<int32_t> column;
      for (const storage::HeapFile* file : job.files) {
        const Status read = file->PeekPages(
            [&](uint32_t, const storage::SlottedPage& page) {
              for (uint16_t s = 0, i = 0; s < page.slot_count(); ++s) {
                const std::span<const uint8_t> record = page.Get(s);
                if (record.empty()) continue;
                if (wanted_at(column.size() + i++)) {
                  __builtin_prefetch(record.data() + offset);
                }
              }
              for (uint16_t s = 0; s < page.slot_count(); ++s) {
                const std::span<const uint8_t> record = page.Get(s);
                if (record.empty()) continue;
                int32_t value = 0;
                if (wanted_at(column.size())) {
                  std::memcpy(&value, record.data() + offset, sizeof(value));
                }
                column.push_back(value);
              }
              return true;
            });
        if (!read.ok()) return;
      }
      RelationStats::Slot& slot = *job.slot;
      if (!frequency_only) slot.stats.sketch = DistinctSketch(column.size());
      if (!column.empty()) {
        FoldValues(slot.stats, column, !frequency_only, !slot.freq_folded);
      }
      slot.folded = slot.folded || !frequency_only;
      slot.freq_folded = true;
    });
  }
  sim::HostPool::Instance().RunAll(tasks);
  for (const Job& job : jobs) {
    const bool done = frequency_only ? job.slot->freq_folded : job.slot->folded;
    job.owner->folds_ += done ? 1 : 0;
  }
}

}  // namespace gammadb::opt
