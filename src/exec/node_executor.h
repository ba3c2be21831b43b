#ifndef GAMMA_EXEC_NODE_EXECUTOR_H_
#define GAMMA_EXEC_NODE_EXECUTOR_H_

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "sim/cost_tracker.h"
#include "sim/fault_injector.h"
#include "sim/hardware.h"
#include "storage/storage_manager.h"

namespace gammadb::exec {

/// One unit of host-parallel work: `body` runs on some pool thread with
/// exclusive ownership of node `owner`'s storage (owner < 0: no storage),
/// charging simulated costs into a private CostTracker shard.
struct NodeTask {
  int owner;
  std::function<Status(sim::CostTracker& shard)> body;
};

/// \brief The shared-nothing node executor: maps one phase's independent
/// per-node work onto the process-wide HostPool, with deterministic cost
/// accounting. Both machines (Gamma's disk and diskless nodes, Teradata's
/// AMPs) run their per-node phases through it.
///
/// Determinism contract: each task charges into a private CostTracker shard
/// (a full node-slot vector with no phases of its own) that starts empty;
/// after the barrier every shard is added to the query tracker *in task
/// order*, so a node's sum is (what the phase charged it before) + (what
/// each task charged it). With one host thread the same tasks run inline in
/// the same order, so every simulated time, counter and answer is
/// byte-identical for any thread count — the schedule decides only which
/// core does the work, never what is charged.
class NodeExecutor {
 public:
  /// `nodes[i]` is node i's storage; every task's shard is a
  /// CostTracker(hw, tracker_nodes) with `faults` (may be null) attached.
  NodeExecutor(std::span<const std::unique_ptr<storage::StorageManager>> nodes,
               const sim::MachineParams& hw, int tracker_nodes,
               sim::FaultInjector* faults = nullptr)
      : nodes_(nodes), hw_(hw), tracker_nodes_(tracker_nodes),
        faults_(faults) {}

  /// Runs `tasks` on the host pool (inline, in order, with one thread) and
  /// barriers. Each task's node is bound to the task's shard for the
  /// duration; afterwards shards are merged into `tracker` and nodes
  /// rebound to it in task order, so accounting is byte-identical for every
  /// thread count. Returns the first non-OK task status, in task order —
  /// all tasks run to completion either way (an abort discards their work).
  /// `tracker` may be null (uncharged work, e.g. loading).
  Status Run(sim::CostTracker* tracker, std::vector<NodeTask> tasks) const;

  /// The pool flush that ends a statement's phases: one Run task per node
  /// whose pool holds a dirty frame, each writing that pool back. A clean
  /// pool is skipped: its FlushAll would write nothing, draw no fault and
  /// return OK, so its shard would add zeros. Skipping one moves no
  /// simulated number, and a statement that dirtied one node's pool pays
  /// for one task, not one per node. Between steps every node is bound to
  /// `tracker` (or to none).
  Status FlushPools(sim::CostTracker* tracker) const;

 private:
  std::span<const std::unique_ptr<storage::StorageManager>> nodes_;
  const sim::MachineParams& hw_;
  int tracker_nodes_;
  sim::FaultInjector* faults_;
};

}  // namespace gammadb::exec

#endif  // GAMMA_EXEC_NODE_EXECUTOR_H_
