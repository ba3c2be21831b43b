#ifndef GAMMA_OBS_PROFILE_H_
#define GAMMA_OBS_PROFILE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "sim/cost_tracker.h"

namespace gammadb::exec {
struct QueryResult;
}  // namespace gammadb::exec

namespace gammadb::obs {

/// Busy-time totals summed over nodes (one entry per simulated device).
struct DeviceTotals {
  double disk_sec = 0;
  double cpu_sec = 0;
  double net_sec = 0;
  double serial_sec = 0;
  double ring_sec = 0;

  void Add(const sim::NodeUsage& usage) {
    disk_sec += usage.disk_sec;
    cpu_sec += usage.cpu_sec;
    net_sec += usage.net_sec;
    serial_sec += usage.serial_sec;
  }
};

/// Per-device utilization of one query, plus the critical-resource verdict.
///
/// A busy fraction is the device's busy seconds summed over every node,
/// divided by (simulated elapsed time x nodes that did any work) — i.e. how
/// loaded the average participating node kept that device for the whole
/// query. The ring is one shared device, so its fraction divides by elapsed
/// time alone. The critical resource is the device that set the pace: each
/// phase's elapsed time is attributed to the ring when the phase was
/// ring-limited and to the bottleneck node's bottleneck device otherwise,
/// and the device with the most attributed seconds wins (paper §5-§6 style
/// reasoning — "which device saturates first").
struct Utilization {
  double disk_busy_frac = 0;
  double cpu_busy_frac = 0;
  double net_busy_frac = 0;
  double ring_busy_frac = 0;
  /// "disk" | "cpu" | "net" | "ring" | "none".
  std::string critical_resource = "none";
  /// Distinct nodes with any activity in any phase.
  int active_nodes = 0;
  /// max/mean of per-node key-routed tuple arrivals in the phase with the
  /// largest redistribution (most tuples routed through kHashAttr /
  /// kBucketMap split tables). The mean is taken over nodes that opened at
  /// least one key-routed stream, so idle destinations drag the ratio up
  /// rather than vanishing from it. 1.0 when the query never
  /// key-routes — a perfectly balanced redistribution also reads 1.0.
  double skew_imbalance = 1.0;
  /// Tuples routed in that largest redistribution phase (0 = none).
  uint64_t skew_routed_tuples = 0;
};

/// One phase of the per-query breakdown.
struct PhaseProfile {
  std::string name;
  sim::PhaseKind kind = sim::PhaseKind::kPipelined;
  double begin_sec = 0;
  double elapsed_sec = 0;
  bool ring_limited = false;
  int bottleneck_node = -1;
  sim::Resource bottleneck_resource = sim::Resource::kNone;
  /// Busy time summed over the phase's active nodes.
  DeviceTotals totals;
  int active_nodes = 0;
};

/// \brief Complete observability record of one query, derived from its
/// finished QueryMetrics: the span hierarchy, per-phase device timelines,
/// utilization fractions and the critical-resource verdict.
///
/// A Profile is a pure function of (label, metrics, ring rate); since the
/// metrics are byte-identical at any host thread count, so is everything
/// here, including the Chrome trace rendered from it.
struct Profile {
  /// "gamma" or "teradata".
  std::string machine;
  /// Statement kind ("select", "join", ...) or a caller-supplied label.
  std::string label;
  double total_sec = 0;
  double scheduling_sec = 0;
  Utilization util;
  DeviceTotals totals;
  std::vector<PhaseProfile> phases;
  std::vector<Span> spans;
};

/// Computes just the utilization fractions and verdict (the scalars
/// bench_util stamps into every BENCH_*.json). Cheap: no span assembly.
/// `ring_bytes_per_sec` <= 0 leaves ring_busy_frac at 0 (the verdict still
/// honours ring-limited phases via PhaseMetrics::ring_limited).
Utilization ComputeUtilization(const sim::QueryMetrics& metrics,
                               double ring_bytes_per_sec = 0);

/// Builds the full profile for one finished query.
Profile BuildProfile(const std::string& machine, const std::string& label,
                     const sim::QueryMetrics& metrics,
                     double ring_bytes_per_sec);

/// Multi-line human-readable breakdown (the `explain profile` rendering):
/// query totals, utilization fractions, verdict, then one line per phase
/// with its bottleneck and per-device busy seconds.
std::string RenderProfile(const Profile& profile);

/// \brief Per-statement observability hook both machines call once, on the
/// coordinator, after CostTracker::Finish() lands in the result.
///
/// Always feeds the process-wide MetricsRegistry (query.* counters plus the
/// query.seconds histogram); when `trace.enabled`, additionally derives the
/// full Profile from the finished metrics and attaches it to the result.
/// Runs strictly after simulated-time accounting closes, so it charges zero
/// simulated seconds either way.
void FinalizeStatement(const TraceOptions& trace, const char* machine,
                       const char* label, double ring_bytes_per_sec,
                       exec::QueryResult* result);

}  // namespace gammadb::obs

#endif  // GAMMA_OBS_PROFILE_H_
