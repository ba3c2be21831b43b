#ifndef GAMMA_OPT_STATISTICS_H_
#define GAMMA_OPT_STATISTICS_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "catalog/schema.h"

namespace gammadb::opt {

/// \brief Linear-counting distinct-value sketch.
///
/// A bitmap sized at bulk-load time (~4 bits per expected row); each value
/// hashes to one bit. With `z` the fraction of zero bits over `m` bits the
/// distinct estimate is `-m * ln(z)` [Whang et al. 1990]. Deletions are not
/// supported (the estimate only grows); StatisticsCatalog::Recompute rebuilds
/// the sketch from a fresh scan when drift matters (e.g. after failover
/// recovery).
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

  /// Only every 4th insert is counted: keeps per-tuple maintenance cheap at
  /// bulk load while leaving hundreds of samples behind any value heavy
  /// enough to matter to routing.
  static constexpr uint64_t kSampleEvery = 4;

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

/// Predicted max/mean per-site weight of hash-routing `attr`'s values over
/// `nsites` sites: the heaviest value (frequency share f, lower-bounded by
/// the frequency sketch) lands whole on one site, the rest spreads evenly —
/// imbalance ≈ 1 + f·(nsites − 1).
double PredictHashImbalance(const AttrStats& attr, size_t nsites);

/// The positions of `schema`'s int attributes, ascending: the attributes
/// that carry statistics.
std::vector<size_t> IntAttrs(const catalog::Schema& schema);

/// A relation's int attributes as columns, as a recount sweeps them from
/// the stored pages.
struct IntColumns {
  uint64_t rows = 0;
  /// One column per attribute of IntAttrs(schema), in that order; each
  /// holds `rows` values in tuple order.
  std::vector<std::vector<int32_t>> columns;
};

/// \brief A relation's attribute distributions: what the planner knows
/// beyond the catalog. Cardinality, partitioning and indexes are the
/// catalog's (catalog::RelationMeta).
struct RelationStats {
  /// Indexed by attribute position; empty until the relation is loaded.
  std::vector<AttrStats> attrs;

  const AttrStats* Attr(int attr) const {
    if (attr < 0 || static_cast<size_t>(attr) >= attrs.size()) return nullptr;
    const AttrStats& s = attrs[static_cast<size_t>(attr)];
    return s.has_values ? &s : nullptr;
  }
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

/// \brief Attribute statistics collected at load time and maintained
/// incrementally by append / modify.
///
/// The GammaMachine owns one of these and calls the On* hooks from the
/// corresponding operations; the planner reads it via Find(). Deletes leave
/// the distributions as they are (min/max and the distinct sketch only
/// grow) until a Recompute. A stored query result gets no entry. Statistics
/// maintenance is free in simulated time (Gamma's Query Manager kept them in
/// the host's catalog, off the critical path).
class StatisticsCatalog {
 public:
  /// Bulk collection: exact min/max, sketch sized from the batch. A second
  /// load into the same relation folds into the existing statistics.
  void OnLoad(const std::string& relation, const catalog::Schema& schema,
              const std::vector<std::vector<uint8_t>>& tuples);
  void OnAppend(const std::string& relation, const catalog::Schema& schema,
                std::span<const uint8_t> tuple);
  void OnModify(const std::string& relation, const catalog::Schema& schema,
                int attr, int32_t new_value);
  /// Full rebuild from a fresh scan (e.g. after a failover rebuild):
  /// replaces the attribute statistics.
  void Recompute(const std::string& relation, const catalog::Schema& schema,
                 const std::vector<std::vector<uint8_t>>& tuples);
  /// The same rebuild from swept columns: bit-identical to Recompute over
  /// the tuples the columns were swept from, in the same order.
  void Recompute(const std::string& relation, const catalog::Schema& schema,
                 const IntColumns& swept);
  void Drop(const std::string& relation);

  const RelationStats* Find(const std::string& relation) const;

 private:
  RelationStats& Ensure(const std::string& relation,
                        const catalog::Schema& schema);
  /// Clears `relation`'s statistics.
  RelationStats& Reset(const std::string& relation,
                       const catalog::Schema& schema);

  /// Readies the int columns of tuples [begin, begin + n) of a batch: one
  /// pointer per attribute of IntAttrs, each to n values.
  using GatherBlock = std::function<void(size_t begin, size_t n,
                                         std::vector<const int32_t*>& block)>;
  /// Folds a batch of `rows` tuples into `stats`: one column block at a
  /// time from `gather`, then one host task per attribute.
  static void FoldBatch(RelationStats& stats, const std::vector<size_t>& ints,
                        uint64_t rows, const GatherBlock& gather);
  /// FoldBatch over tuples, gathered into column blocks.
  static void AbsorbTuples(RelationStats& stats, const catalog::Schema& schema,
                           const std::vector<std::vector<uint8_t>>& tuples);

  std::map<std::string, RelationStats> relations_;
};

}  // namespace gammadb::opt

#endif  // GAMMA_OPT_STATISTICS_H_
