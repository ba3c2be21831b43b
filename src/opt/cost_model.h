#ifndef GAMMA_OPT_COST_MODEL_H_
#define GAMMA_OPT_COST_MODEL_H_

#include <cstdint>

#include "catalog/catalog.h"
#include "exec/predicate.h"
#include "gamma/machine.h"
#include "gamma/query.h"
#include "opt/statistics.h"

namespace gammadb::opt {

/// Estimated fraction of `meta`'s tuples satisfying `pred`: the product
/// over constrained attributes of the per-attribute fraction, assuming a
/// uniform distribution over [min, max] (equality uses 1 / distinct). Falls
/// back to System-R-style constants (1% equality, 10% range) when no
/// statistics are available.
double EstimateSelectivity(const exec::Predicate& pred,
                           const RelationStats* stats,
                           const catalog::RelationMeta& meta);

/// A fully specified candidate selection plan.
struct SelectPlanSpec {
  gamma::AccessPath path = gamma::AccessPath::kFileScan;
  /// Index key attribute when `path` is an index access.
  int key_attr = -1;
  bool store_result = true;
};

struct SelectEstimate {
  double selectivity = 1;
  double output_tuples = 0;
  int participating_sites = 0;
  /// Estimated simulated response time, including scheduling overhead.
  double seconds = 0;
};

/// A fully specified candidate join plan.
struct JoinPlanSpec {
  gamma::JoinMode mode = gamma::JoinMode::kRemote;
  gamma::JoinAlgorithm algorithm = gamma::JoinAlgorithm::kSimpleHash;
};

struct JoinEstimate {
  /// Tuples reaching the join sites from each input (after selections).
  double build_tuples = 0;
  double probe_tuples = 0;
  double output_tuples = 0;
  /// The building side is expected to exceed the sites' aggregate memory.
  bool overflow = false;
  /// Estimated elapsed time of the building / probing phases (the probe
  /// phase includes storing the result).
  double build_phase_sec = 0;
  double probe_phase_sec = 0;
  double seconds = 0;
};

/// \brief Estimated simulated-time cost of candidate plans.
///
/// A miniature analytic replay of the machine's charging paths: per-phase,
/// per-node disk / CPU / network seconds (phase time is the slowest node's
/// max resource, as in sim::CostTracker's pipelined phases), split-table
/// packet and short-circuit accounting, the NIC bottleneck, hash-table
/// memory vs overflow spooling, and the scheduler's 4-messages-per-op-per-
/// node overhead. Absolute estimates track the executor closely because
/// both read the machine's GammaConfig and its sim::MachineParams; what the
/// planner needs is that the *ordering* of candidate plans matches measured
/// times.
class CostModel {
 public:
  explicit CostModel(const gamma::GammaConfig& config) : config_(config) {}

  SelectEstimate EstimateSelect(const catalog::RelationMeta& meta,
                                const RelationStats* stats,
                                const exec::Predicate& pred,
                                const SelectPlanSpec& plan) const;

  JoinEstimate EstimateJoin(const catalog::RelationMeta& outer,
                            const RelationStats* outer_stats,
                            const exec::Predicate& outer_pred, int outer_attr,
                            const catalog::RelationMeta& inner,
                            const RelationStats* inner_stats,
                            const exec::Predicate& inner_pred, int inner_attr,
                            const JoinPlanSpec& plan) const;

  /// Scan + accumulate estimate for aggregates (used by EXPLAIN only).
  double EstimateAggregate(const catalog::RelationMeta& meta,
                           const exec::Predicate& pred) const;

  /// Elapsed-time estimate of a join's skew-sampling pass: every disk site
  /// reads one page in exec::kSkewSampleStride from each input fragment,
  /// hashes the sampled join keys, and reports its sample to the scheduler.
  /// Charged by the machine inside the query when bucket-map routing runs.
  double EstimateSkewSample(const catalog::RelationMeta& outer,
                            const catalog::RelationMeta& inner) const;

  /// Disk sites participating in a selection (1 for an exact match on the
  /// hashed partitioning attribute, a localized subset for a range on a
  /// range-partitioned attribute, else all).
  int ParticipatingSites(const catalog::RelationMeta& meta,
                         const RelationStats* stats,
                         const exec::Predicate& pred) const;

  /// Tuples per data page under the machine's page size.
  double TuplesPerPage(uint32_t tuple_size) const;

 private:
  const gamma::GammaConfig& config_;
};

}  // namespace gammadb::opt

#endif  // GAMMA_OPT_COST_MODEL_H_
