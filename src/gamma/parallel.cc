// GammaMachine's side of host parallelism: grouping fragments by serving
// node, and running per-node tasks on the shared exec::NodeExecutor (whose
// determinism contract makes every thread count byte-identical).

#include "exec/node_executor.h"
#include "gamma/machine.h"

namespace gammadb::gamma {

std::vector<GammaMachine::NodeGroup> GammaMachine::GroupByServingNode(
    const std::vector<FragmentCopy>& sources) {
  std::vector<NodeGroup> groups;
  for (size_t s = 0; s < sources.size(); ++s) {
    const int node = sources[s].node;
    NodeGroup* group = nullptr;
    for (NodeGroup& existing : groups) {
      if (existing.node == node) {
        group = &existing;
        break;
      }
    }
    if (group == nullptr) {
      // Keep groups in ascending node order: it is the canonical merge
      // order, and with failover off it equals fragment order.
      size_t at = 0;
      while (at < groups.size() && groups[at].node < node) ++at;
      groups.insert(groups.begin() + static_cast<std::ptrdiff_t>(at),
                    NodeGroup{node, {}});
      group = &groups[at];
    }
    group->members.push_back(s);
  }
  return groups;
}

Status GammaMachine::RunNodeTasks(sim::CostTracker* tracker,
                                  std::vector<NodeTask> tasks) {
  return exec::NodeExecutor(nodes_, config_.hw, config_.tracker_nodes(),
                            faults_.get())
      .Run(tracker, std::move(tasks));
}

Status GammaMachine::FlushAllPools() {
  return exec::NodeExecutor(nodes_, config_.hw, config_.tracker_nodes(),
                            faults_.get())
      .FlushPools(nodes_[0]->charge().tracker);
}

}  // namespace gammadb::gamma
