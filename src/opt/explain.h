#ifndef GAMMA_OPT_EXPLAIN_H_
#define GAMMA_OPT_EXPLAIN_H_

#include <string>
#include <vector>

#include "exec/query_result.h"

namespace gammadb::opt {

/// \brief One operator of an EXPLAIN tree.
struct PlanNode {
  /// Operator headline, e.g. "join A ⋈ Bprime (hybrid hash, Remote, 8 sites)".
  std::string label;
  /// Extra annotation lines (predicate, selectivity, rejected alternatives).
  std::vector<std::string> details;
  double est_seconds = 0;
  /// Estimated output cardinality (< 0 = not applicable).
  double est_tuples = -1;
  std::vector<PlanNode> children;
};

/// `sec` as "%.4f s", the form every plan line prints seconds in.
std::string FormatSeconds(double sec);

/// Renders the plan tree, indenting children, e.g.:
///
///   select Aheap10000 (file scan over 8 sites)
///     predicate: unique1 in [0, 99]
///     estimated: 1.23 s, 100 tuples
///
std::string RenderPlan(const PlanNode& root);

/// RenderPlan plus an "actual:" footer from the measured QueryResult, so
/// EXPLAIN output shows estimated cost alongside actuals.
std::string RenderPlanWithActuals(const PlanNode& root,
                                  const exec::QueryResult& result);

}  // namespace gammadb::opt

#endif  // GAMMA_OPT_EXPLAIN_H_
