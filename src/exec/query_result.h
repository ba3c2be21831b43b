#ifndef GAMMA_EXEC_QUERY_RESULT_H_
#define GAMMA_EXEC_QUERY_RESULT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/cost_tracker.h"

namespace gammadb::obs {
struct Profile;
}  // namespace gammadb::obs

namespace gammadb::exec {

/// \brief Outcome of one query on either machine: the simulated-time
/// accounting plus enough result data to verify correctness.
struct QueryResult {
  sim::QueryMetrics metrics;
  uint64_t result_tuples = 0;
  /// Times the whole query was restarted after a node died mid-flight
  /// (0 = ran clean; at most 3, kFailoverMaxRetries in gamma/machine.cc,
  /// with exponential backoff charged between attempts — see
  /// metrics.failover_backoff_sec).
  uint32_t failover_retries = 0;
  /// Name of the stored result relation (empty if returned to host).
  std::string result_relation;
  /// Rendered plan tree with estimated and actual costs; filled only when
  /// the statement carried an `explain` prefix (quel front end).
  std::string explain;
  /// Tuples returned to the host (host-bound queries only).
  std::vector<std::vector<uint8_t>> returned;
  /// Observability record (spans, device timelines, utilization); attached
  /// only when the machine's TraceOptions enable tracing, null otherwise.
  std::shared_ptr<const obs::Profile> profile;

  double seconds() const { return metrics.TotalSec(); }
};

}  // namespace gammadb::exec

#endif  // GAMMA_EXEC_QUERY_RESULT_H_
