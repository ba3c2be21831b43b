#ifndef GAMMA_OPT_PLANNER_H_
#define GAMMA_OPT_PLANNER_H_

#include <string>

#include "common/result.h"
#include "gamma/machine.h"
#include "gamma/query.h"
#include "opt/cost_model.h"
#include "opt/explain.h"
#include "opt/statistics.h"

namespace gammadb::opt {

struct PlannedSelect {
  /// The input query with `access` pinned to the chosen path.
  gamma::SelectQuery query;
  SelectEstimate estimate;
  PlanNode plan;
};

struct PlannedJoin {
  /// The input query with `mode`, `algorithm` and `expected_build_tuples`
  /// filled in by the planner.
  gamma::JoinQuery query;
  JoinEstimate estimate;
  PlanNode plan;
};

struct PlannedAggregate {
  gamma::AggregateQuery query;
  double est_seconds = 0;
  PlanNode plan;
};

/// \brief Cost-based plan selection over a machine's catalog, configuration
/// and attribute statistics.
///
/// Enumerates the machine's physical alternatives — access path (heap scan /
/// clustered B-tree / non-clustered B-tree) for selections; join algorithm
/// (simple hash / hybrid hash / sort-merge) × join site (Local / Remote /
/// Allnodes) for joins — costs each candidate with the CostModel and picks
/// the cheapest. A query arriving with a forced access path / mode is
/// respected (only its estimate is computed), so EXPLAIN works for forced
/// plans too.
class Planner {
 public:
  /// Plans against `machine`, which must outlive the planner.
  explicit Planner(const gamma::GammaMachine& machine)
      : machine_(machine), model_(machine.config()) {}

  Result<PlannedSelect> PlanSelect(gamma::SelectQuery query) const;
  Result<PlannedJoin> PlanJoin(gamma::JoinQuery query) const;
  Result<PlannedAggregate> PlanAggregate(gamma::AggregateQuery query) const;


 private:
  const gamma::GammaMachine& machine_;
  CostModel model_;
};

/// Human-readable form of a predicate under a schema, e.g.
/// "unique1 in [0, 99] and ten = 3" ("true" for the match-all predicate).
std::string DescribePredicate(const exec::Predicate& pred,
                              const catalog::Schema& schema);

const char* AccessPathName(gamma::AccessPath path);
const char* JoinModeName(gamma::JoinMode mode);
const char* JoinAlgorithmName(gamma::JoinAlgorithm algorithm);

}  // namespace gammadb::opt

#endif  // GAMMA_OPT_PLANNER_H_
