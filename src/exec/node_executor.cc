#include "exec/node_executor.h"

#include "common/macros.h"
#include "sim/host_pool.h"

namespace gammadb::exec {

Status NodeExecutor::Run(sim::CostTracker* tracker,
                         std::vector<NodeTask> tasks) const {
  const size_t n = tasks.size();
  std::vector<std::unique_ptr<sim::CostTracker>> shards(n);
  std::vector<Status> statuses(n, Status::OK());
  std::vector<std::function<void()>> thunks;
  thunks.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    shards[i] = std::make_unique<sim::CostTracker>(hw_, tracker_nodes_);
    shards[i]->AttachFaultInjector(faults_);
    thunks.push_back([this, i, tracker, &tasks, &shards, &statuses] {
      const NodeTask& task = tasks[i];
      if (task.owner >= 0) {
        storage::StorageManager& sm = *nodes_[static_cast<size_t>(task.owner)];
        sm.BeginExclusive();
        if (tracker != nullptr) sm.BindTracker(shards[i].get(), task.owner);
        statuses[i] = task.body(*shards[i]);
        sm.EndExclusive();
      } else {
        statuses[i] = task.body(*shards[i]);
      }
    });
  }
  sim::HostPool::Instance().RunAll(thunks);
  // Barrier passed: add the shards and restore the node bindings, in task
  // order (callers build tasks in canonical node order).
  for (size_t i = 0; i < n; ++i) {
    if (tracker != nullptr) tracker->MergeUsage(*shards[i]);
    if (tasks[i].owner >= 0) {
      nodes_[static_cast<size_t>(tasks[i].owner)]->BindTracker(tracker,
                                                               tasks[i].owner);
    }
  }
  for (const Status& status : statuses) {
    GAMMA_RETURN_NOT_OK(status);
  }
  return Status::OK();
}

Status NodeExecutor::FlushPools(sim::CostTracker* tracker) const {
  std::vector<NodeTask> tasks;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i]->pool().dirty_frames() == 0) continue;
    tasks.push_back(NodeTask{static_cast<int>(i), [this, i](sim::CostTracker&) {
                               return nodes_[i]->pool().FlushAll();
                             }});
  }
  if (tasks.empty()) return Status::OK();
  return Run(tracker, std::move(tasks));
}

}  // namespace gammadb::exec
