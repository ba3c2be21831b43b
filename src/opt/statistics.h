#ifndef GAMMA_OPT_STATISTICS_H_
#define GAMMA_OPT_STATISTICS_H_

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "catalog/schema.h"
#include "common/result.h"

namespace gammadb::storage {
class HeapFile;
}  // namespace gammadb::storage

namespace gammadb::opt {

/// \brief Linear-counting distinct-value sketch.
///
/// A bitmap sized at fold time (~4 bits per stored row); each value
/// hashes to one bit. With `z` the fraction of zero bits over `m` bits the
/// distinct estimate is `-m * ln(z)` [Whang et al. 1990]. Deletions are not
/// supported (the estimate only grows until a recount drops the sketch).
class DistinctSketch {
 public:
  DistinctSketch() = default;
  /// Sizes the bitmap for roughly `expected` distinct values.
  explicit DistinctSketch(uint64_t expected);

  void Insert(int32_t value) { InsertAll(std::span(&value, 1)); }
  /// Insert on each of `values` in order. A value seen again within the
  /// call is skipped unhashed: its bit is already set.
  void InsertAll(std::span<const int32_t> values);
  /// Linear-counting estimate; when the bitmap is fully saturated returns
  /// `fallback` (the caller's cardinality upper bound).
  double Estimate(double fallback) const;
  uint64_t bit_count() const { return bit_count_; }
  uint64_t set_bits() const { return set_bits_; }
  const std::vector<uint64_t>& words() const { return words_; }

 private:
  std::vector<uint64_t> words_;
  uint64_t bit_count_ = 0;
  uint64_t set_bits_ = 0;
  /// ceil(2^128 / bit_count_): turns the per-insert `% bit_count_` into
  /// Lemire's exact multiply-only fastmod.
  unsigned __int128 fastmod_m_ = 0;
};

/// \brief Space-saving heavy-hitter sketch [Metwally et al. 2005] over a
/// deterministic 1-in-4 sample of the inserted values.
///
/// Tracks the most frequent values in `kCapacity` counters; a value absent
/// from the table evicts the minimum counter and inherits its count as its
/// error bound. `count - error` is a guaranteed lower bound on the value's
/// true sampled frequency, which is what the skew predictor reads — so a
/// uniform attribute (whose counters are all churn) never reads as skewed.
class FrequencySketch {
 public:
  struct Entry {
    int32_t value = 0;
    uint64_t count = 0;
    /// Count inherited at takeover; the overestimation bound.
    uint64_t error = 0;
  };

  /// Only every 4th insert is counted: keeps per-tuple maintenance cheap
  /// while leaving hundreds of samples behind any value heavy enough to
  /// matter to routing. A fresh sketch counts inserts 0, 4, 8, ...
  static constexpr uint64_t kSampleEvery = 4;

  void Insert(int32_t value) { InsertAll(std::span(&value, 1)); }
  /// Insert on each of `values` in order, visiting only the sampled ones.
  void InsertAll(std::span<const int32_t> values);

  /// Guaranteed lower bound on the frequency share of the most frequent
  /// value (max over entries of (count - error) / sampled inserts); 0 when
  /// nothing was sampled.
  double TopShare() const;

  const std::vector<Entry>& entries() const { return entries_; }
  uint64_t sampled() const { return sampled_; }

 private:
  static constexpr size_t kCapacity = 32;

  /// Counts one sampled value.
  void Sample(int32_t value);
  /// Bit i set when values_[i] == value, lanes past entries_.size() too.
  uint32_t Match(int32_t value) const;
  /// Entry `slot` has just grown past min_count_.
  void LeaveMin(size_t slot);
  /// Recomputes min_count_ and min_mask_ from the (full) entry vector.
  void RescanMin();

  uint64_t tick_ = 0;
  uint64_t sampled_ = 0;
  std::vector<Entry> entries_;
  /// entries_[i].value at lane i, so that one vector compare finds a value.
  int32_t values_[kCapacity] = {};
  /// Once entries_ is full: the smallest count, and a bit per entry at it.
  /// The takeover victim is the lowest set bit — the first minimum in
  /// vector order, as a linear scan would find it.
  uint64_t min_count_ = 0;
  uint32_t min_mask_ = 0;
};

/// Per-attribute statistics (integer attributes only; char attributes are
/// never predicate or join targets in the Wisconsin workload).
struct AttrStats {
  int32_t min = std::numeric_limits<int32_t>::max();
  int32_t max = std::numeric_limits<int32_t>::min();
  DistinctSketch sketch;
  FrequencySketch freq;
  bool has_values = false;

  /// Distinct-value estimate clamped to [1, cardinality].
  double DistinctEstimate(double cardinality) const;
};

/// The documented planner/executor threshold: bucket-map routing is chosen
/// only when PredictHashImbalance (or, for aggregates, the exact hash
/// assignment of the known group keys) exceeds this max/mean ratio. Below
/// it, the sampling charge cannot pay for itself; well above it, one site's
/// runtime dominates the phase and the map wins.
inline constexpr double kSkewImbalanceThreshold = 1.25;

/// Predicted max/mean per-site weight of hash-routing an attribute over
/// `nsites` sites: the heaviest value (frequency share f, lower-bounded by
/// the frequency sketch) lands whole on one site, the rest spreads evenly —
/// imbalance ≈ 1 + f·(nsites − 1).
double PredictHashImbalance(const FrequencySketch& freq, size_t nsites);

class StatisticsCatalog;

/// \brief A relation's attribute distributions: what the planner knows
/// beyond the catalog (catalog::RelationMeta holds cardinality,
/// partitioning and indexes). An int attribute is folded from the stored
/// pages on its first read and kept until its StatisticsCatalog drops it.
class RelationStats {
 public:
  /// `attr`'s statistics, folded on its first read; null for an attribute
  /// that is not an int, holds no values, or whose fold could not read
  /// every stored page (the next read tries again).
  const AttrStats* Attr(int attr) const;
  /// Only `attr`'s frequency sketch (what kAuto join routing reads), folded
  /// on its first read from a quarter of the records; null as for Attr.
  const FrequencySketch* Frequency(int attr) const;

 private:
  friend class StatisticsCatalog;

  struct Slot {
    AttrStats stats;
    bool is_int = false;
    /// Min/max and the distinct sketch are folded.
    bool folded = false;
    /// The frequency sketch is folded.
    bool freq_folded = false;
    uint32_t offset = 0;  // in the tuple
  };

  const StatisticsCatalog* owner_ = nullptr;
  std::string name_;
  /// By attribute position. Mutable: a fold fills a slot on a const read.
  mutable std::vector<Slot> slots_;
};

/// Hash-routing skew predicted for a join over `nsites` join sites: the
/// larger PredictHashImbalance of its two join attributes (1.0 for an
/// attribute without statistics), and whether it exceeds
/// kSkewImbalanceThreshold so bucket-map routing pays for its sample. The
/// planner and the executing machine both decide kAuto routing with it.
struct JoinSkewPrediction {
  double imbalance = 1.0;
  bool use_bucket_map = false;
};
JoinSkewPrediction PredictJoinSkew(const RelationStats* outer, int outer_attr,
                                   const RelationStats* inner, int inner_attr,
                                   size_t nsites);

/// The file serving each fragment of a relation, in fragment order
/// (fragments without a file are left out): what a fold reads.
using FragmentFiles = std::vector<const storage::HeapFile*>;

/// \brief Attribute statistics, folded on demand from the stored pages
/// (DESIGN.md §9) and, once folded, maintained by append / modify.
///
/// The GammaMachine owns one of these and calls the hooks; the planner and
/// kAuto join routing read it via Find(). A fold pins, counts, charges and
/// draws nothing (HeapFile::PeekPages), so the simulated clock cannot tell
/// whether or when it ran. Deletes leave a folded attribute as it is; a load
/// or a recount drops it. A stored query result gets no entry.
class StatisticsCatalog {
 public:
  /// Resolves a relation's serving fragments for a fold.
  using Locate = std::function<Result<FragmentFiles>(const std::string&)>;

  explicit StatisticsCatalog(Locate locate) : locate_(std::move(locate)) {}

  /// Registers `relation` (CreateRelation), or drops its folded attributes
  /// (LoadTuples and every completed recount): each folds on its next read.
  void Reset(const std::string& relation, const catalog::Schema& schema);
  /// Folded attributes absorb the appended tuple's values.
  void OnAppend(const std::string& relation, std::span<const uint8_t> tuple);
  /// A folded `attr` absorbs `new_value` once.
  void OnModify(const std::string& relation, int attr, int32_t new_value);
  void Drop(const std::string& relation);

  const RelationStats* Find(const std::string& relation) const;

  /// Folds each (relation, attribute) of `wanted` not folded yet, one host
  /// task per attribute: its values in stored order (fragment, page, slot)
  /// into a distinct sketch sized from their count, min/max and the
  /// frequency sketch; with `frequency_only`, only the records the
  /// frequency sketch samples, into it alone. A null relation is skipped.
  static void Fold(
      std::initializer_list<std::pair<const RelationStats*, int>> wanted,
      bool frequency_only = false);

  /// Attribute folds completed so far (a test hook).
  uint64_t folds() const { return folds_; }

 private:
  Locate locate_;
  std::map<std::string, RelationStats> relations_;
  mutable uint64_t folds_ = 0;
};

}  // namespace gammadb::opt

#endif  // GAMMA_OPT_STATISTICS_H_
