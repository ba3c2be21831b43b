#ifndef GAMMA_SIM_COST_TRACKER_H_
#define GAMMA_SIM_COST_TRACKER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "sim/fault_injector.h"
#include "sim/hardware.h"

namespace gammadb::sim {

/// How the operators in a phase use resources.
enum class PhaseKind {
  /// Dataflow phase: scans, splits, network and downstream operators all run
  /// concurrently, so a node's elapsed time is its bottleneck resource
  /// (max of disk / CPU / NIC busy time).
  kPipelined,
  /// Request/response phase (single-tuple operations): nothing overlaps, so
  /// a node's elapsed time is the sum of its resource busy times.
  kSequential,
};

enum class Resource { kDisk, kCpu, kNet, kNone };

/// Resource busy time and event counters for one node within one phase.
struct NodeUsage {
  double disk_sec = 0;
  double cpu_sec = 0;
  double net_sec = 0;
  /// Latency that can never overlap with anything (e.g. waiting on a control
  /// message round trip).
  double serial_sec = 0;

  uint64_t seq_page_ios = 0;
  uint64_t rand_page_ios = 0;
  uint64_t pages_read = 0;
  uint64_t pages_written = 0;
  uint64_t buffer_hits = 0;
  uint64_t packets_sent = 0;
  uint64_t packets_short_circuited = 0;
  /// Packets the fault injector dropped; each was re-sent at full cost.
  uint64_t packets_retransmitted = 0;
  uint64_t bytes_sent = 0;
  uint64_t bytes_short_circuited = 0;
  uint64_t control_msgs = 0;
  /// Tuples delivered to this node by key-based split-table routing
  /// (hash / range / bucket-map). Round-robin and single-destination
  /// routes are excluded so the counter isolates redistribution balance
  /// rather than result placement.
  uint64_t tuples_routed = 0;
  /// Key-routed split streams that named this node as a destination
  /// (counted at stream close), marking it a redistribution target even
  /// when it received zero tuples.
  uint64_t split_streams_in = 0;

  double ElapsedSec(PhaseKind kind) const;
  Resource Bottleneck() const;
  void Add(const NodeUsage& other);
};

/// Resolved timing for one completed phase.
struct PhaseMetrics {
  std::string name;
  PhaseKind kind = PhaseKind::kPipelined;
  double elapsed_sec = 0;
  uint64_t ring_bytes = 0;
  /// True when the shared interconnect, not any node, set the elapsed time.
  bool ring_limited = false;
  int bottleneck_node = -1;
  Resource bottleneck_resource = Resource::kNone;
  std::vector<NodeUsage> per_node;

  NodeUsage Totals() const;
};

/// Complete simulated-time accounting for one query.
struct QueryMetrics {
  double scheduling_sec = 0;
  uint32_t scheduling_msgs = 0;
  uint32_t overflow_rounds = 0;
  /// Recovery-log records written on behalf of this query (0 when logging
  /// is off).
  uint64_t log_records = 0;
  /// Commit-time forced flushes of the recovery log for this query.
  uint64_t log_forced_flushes = 0;
  /// Concurrency-control counters for the transaction this query ran under
  /// (all zero when the machine executes single-user, pre-2PL paths).
  uint64_t locks_acquired = 0;
  uint64_t lock_waits = 0;
  double lock_wait_sec = 0;
  uint64_t deadlocks = 0;
  uint64_t lock_aborts = 0;
  /// Failover retries this statement consumed before succeeding (0 on the
  /// fault-free path).
  uint32_t failover_retries = 0;
  /// Simulated wall-clock spent backing off between failover retries
  /// (also folded into scheduling_sec).
  double failover_backoff_sec = 0;
  std::vector<PhaseMetrics> phases;

  double TotalSec() const;
  NodeUsage Totals() const;
  /// Fraction of data packets delivered without touching the network
  /// (paper §2 "short-circuited" messages). Returns 0 when no packets moved.
  double ShortCircuitFraction() const;
  /// One-line rendering for harness output.
  std::string Summary() const;
};

/// \brief Charges every simulated hardware event of one query and converts
/// the per-node, per-phase usage into elapsed time.
///
/// The conversion is the classic bottleneck model for pipelined dataflow:
/// within a phase each node's elapsed time is the busy time of its most
/// loaded resource, the phase takes as long as its slowest node (but at
/// least the time the shared ring needs for the phase's traffic), and the
/// query is the sum of its phases plus the serialized scheduler work.
class CostTracker {
 public:
  CostTracker(const MachineParams& hw, int num_nodes);

  CostTracker(const CostTracker&) = delete;
  CostTracker& operator=(const CostTracker&) = delete;

  const MachineParams& hw() const { return hw_; }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }

  /// Attaches the machine's fault injector so data packets consult the drop
  /// schedule (dropped packets are charged a full retransmission). Null
  /// detaches.
  void AttachFaultInjector(FaultInjector* faults) { faults_ = faults; }

  void BeginPhase(std::string name, PhaseKind kind);
  void EndPhase();
  bool in_phase() const { return in_phase_; }

  /// Disk transfer of `bytes` at `node`; `sequential` selects positioning vs
  /// streaming overhead. Also charges the per-page-I/O CPU path.
  void ChargeDiskRead(int node, uint64_t bytes, bool sequential);
  void ChargeDiskWrite(int node, uint64_t bytes, bool sequential);
  /// Buffer-pool hit: CPU only.
  void ChargeBufferHit(int node);

  void ChargeCpu(int node, double instructions);
  /// `times` ChargeCpu(node, instructions) calls in one: the same sequential
  /// additions, so the sum rounds exactly as the separate calls would.
  void ChargeCpuTimes(int node, double instructions, uint64_t times);
  void ChargeSerialSec(int node, double sec);

  /// One data packet of `bytes` from `src` to `dst`. Same-node packets are
  /// short-circuited by the communications software: no NIC or ring time,
  /// only a cheap CPU path. `force_network` disables the short-circuit —
  /// Teradata's low-level software does not recognize same-AMP delivery when
  /// storing result tuples (§4), so its packets always pay the full path.
  void ChargeDataPacket(int src, int dst, uint64_t bytes,
                        bool force_network = false);

  /// One small control message (end-of-stream, operator completion, ...).
  /// Costs protocol CPU at both ends; latency is only charged when the
  /// sender must wait for it (`blocking`).
  void ChargeControlMessage(int src, int dst, bool blocking);

  /// Count-only (no time charge): one tuple delivered to `dst` by a
  /// key-based split route. The delivery cost itself is charged through
  /// the packet / handoff path.
  void CountTupleRouted(int dst);
  /// Count-only: a key-based split stream closed with `dst` among its
  /// destinations.
  void CountRouteStream(int dst);

  /// Scheduler-serialized operator initiation: `num_operators` operators,
  /// each scheduled on `nodes_per_operator` nodes, at the per-node message
  /// count from NetParams. This is the §6.2.3 Allnodes overhead.
  void ChargeScheduling(uint32_t num_operators, uint32_t nodes_per_operator);

  /// Fixed serial work before any operator starts (host parse/compile/
  /// dispatch); accounted with the scheduling time.
  void ChargeHostSetup(double sec) { metrics_.scheduling_sec += sec; }

  void AddOverflowRound() { ++metrics_.overflow_rounds; }

  /// Adds another tracker's accumulated per-node usage (and pending ring
  /// bytes) into the current open phase. This is how the host-parallel
  /// executor folds the private shard each node task charged into back into
  /// the query's tracker: shards are merged in canonical node order at every
  /// phase barrier, so the result is independent of how the tasks were
  /// scheduled onto host threads. `shard` must have the same node count and
  /// must not have closed any phase of its own.
  void MergeUsage(const CostTracker& shard);

  /// Usage accumulated so far for `node` in the current phase (test hook).
  const NodeUsage& current(int node) const { return nodes_.at(node); }

  /// Closes accounting and returns the metrics. The tracker must not be in
  /// an open phase.
  QueryMetrics Finish();

 private:
  MachineParams hw_;
  FaultInjector* faults_ = nullptr;
  std::vector<NodeUsage> nodes_;
  uint64_t phase_ring_bytes_ = 0;
  std::string phase_name_;
  PhaseKind phase_kind_ = PhaseKind::kPipelined;
  bool in_phase_ = false;
  QueryMetrics metrics_;
};

}  // namespace gammadb::sim

#endif  // GAMMA_SIM_COST_TRACKER_H_
