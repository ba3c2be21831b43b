#ifndef GAMMA_EXEC_AGGREGATE_H_
#define GAMMA_EXEC_AGGREGATE_H_

#include <cstdint>
#include <map>
#include <span>

#include "catalog/schema.h"
#include "exec/select.h"
#include "storage/disk.h"

namespace gammadb::exec {

/// Aggregate functions over a 4-byte integer attribute.
enum class AggFunc { kCount, kSum, kMin, kMax, kAvg };

/// \brief Running state of one aggregate group.
struct AggState {
  uint64_t count = 0;
  int64_t sum = 0;
  int32_t min = 0;
  int32_t max = 0;

  void Update(int32_t value);
  /// Merges a partial aggregate computed elsewhere (local/global scheme).
  void Merge(const AggState& other);
  double Final(AggFunc func) const;
};

/// \brief Hash-grouped aggregation operator instance.
///
/// Gamma computes aggregates in two steps: each disk site aggregates its
/// fragment locally, then partial results are split on the grouping
/// attribute to a set of sites that merge them (the scheme the paper ran;
/// results deferred to [DEWI88]). A scalar aggregate is the degenerate case
/// with a single group.
class GroupedAggregator {
 public:
  /// `group_attr` may be -1 for a scalar (single-group) aggregate.
  GroupedAggregator(int group_attr, int value_attr, AggFunc func,
                    const catalog::Schema* schema,
                    const storage::ChargeContext* charge);

  /// Accumulates one input tuple.
  void Consume(std::span<const uint8_t> tuple);

  /// Merges one partial state received over the network (deserialized from
  /// a partial-aggregate tuple).
  void MergeGroup(int32_t group, const AggState& state);

  /// Emits one result tuple (group, value) per group through `emit`, using
  /// `ResultSchema()`. Scalar results use group key 0.
  void EmitResults(const TupleSink& emit) const;

  static catalog::Schema ResultSchema();

  size_t num_groups() const { return groups_.size(); }
  const std::map<int32_t, AggState>& groups() const { return groups_; }
  AggFunc func() const { return func_; }

 private:
  int group_attr_;
  int value_attr_;
  AggFunc func_;
  const catalog::Schema* schema_;
  const storage::ChargeContext* charge_;
  std::map<int32_t, AggState> groups_;
};

}  // namespace gammadb::exec

#endif  // GAMMA_EXEC_AGGREGATE_H_
