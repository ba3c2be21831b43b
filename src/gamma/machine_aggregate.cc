// Aggregate-query execution of GammaMachine (paper §1: aggregate tests were
// run; detailed results deferred to [DEWI88]). Scheme: local aggregation at
// every disk site, partials split on the grouping attribute to the merging
// sites, final results returned to the host.

#include <cstring>
#include <memory>

#include "common/hash.h"
#include "common/macros.h"
#include "exec/aggregate.h"
#include "exec/exchange.h"
#include "exec/select.h"
#include "exec/skew.h"
#include "exec/split_table.h"
#include "gamma/machine.h"

namespace gammadb::gamma {

using catalog::RelationMeta;
using catalog::Schema;
using exec::AggState;
using exec::GroupedAggregator;
using exec::Predicate;
using exec::SplitTable;

namespace {

/// Wire format of a partial aggregate: the group key (routable int32) plus
/// the opaque accumulator state.
Schema PartialSchema() {
  return Schema({{"group", catalog::AttrType::kInt32, 4},
                 {"state", catalog::AttrType::kChar, sizeof(AggState)}});
}

}  // namespace

Result<QueryResult> GammaMachine::RunAggregate(const AggregateQuery& query) {
  return FinalizeObs("aggregate", RunWithFailover([&] {
                       return RunAggregateAttempt(query);
                     }));
}

Result<QueryResult> GammaMachine::RunAggregateAttempt(
    const AggregateQuery& query) {
  GAMMA_ASSIGN_OR_RETURN(RelationMeta * meta, catalog_.Get(query.relation));
  if (query.value_attr < 0 ||
      static_cast<size_t>(query.value_attr) >= meta->schema.num_attrs()) {
    return Status::InvalidArgument("aggregate value attribute out of range");
  }
  if (query.group_attr >= 0 &&
      static_cast<size_t>(query.group_attr) >= meta->schema.num_attrs()) {
    return Status::InvalidArgument("aggregate group attribute out of range");
  }

  Statement stmt(this);
  sim::CostTracker& tracker = stmt.tracker();
  const int ndisk = config_.num_disk_nodes;

  // Which copy serves each fragment, and which sites can merge. With a dead
  // node the merge work redistributes over the survivors.
  const std::vector<int> fragments = AllFragments();
  GAMMA_ASSIGN_OR_RETURN(const std::vector<FragmentCopy> sources,
                         ServingCopies(*meta, fragments));
  const std::vector<int> merge_sites = LiveDiskNodes();
  if (merge_sites.empty()) {
    return Status::Unavailable("no surviving aggregation sites");
  }

  // Scheduling: scan+local-aggregate operators, then global-merge operators.
  tracker.ChargeScheduling(1, static_cast<uint32_t>(sources.size()));
  tracker.ChargeScheduling(1, static_cast<uint32_t>(merge_sites.size()));

  // --- Phase 1: local aggregation wherever each fragment is served, one
  // host task per serving node. ---
  std::vector<std::unique_ptr<GroupedAggregator>> locals(
      static_cast<size_t>(ndisk));
  tracker.BeginPhase("local_agg", sim::PhaseKind::kPipelined);

  GAMMA_RETURN_NOT_OK(LockForRead(tracker, stmt.txn(), *meta, fragments));
  GAMMA_RETURN_NOT_OK(ScanSources(
      tracker, sources,
      [&](size_t f, const FragmentCopy& src, storage::StorageManager& sm,
          sim::CostTracker&) -> Status {
        locals[f] = std::make_unique<GroupedAggregator>(
            query.group_attr, query.value_attr, query.func, &meta->schema,
            &sm.charge());
        return exec::SelectScan(
                   sm.file(src.file), meta->schema, query.predicate,
                   sm.charge(),
                   [&](std::span<const uint8_t> t) { locals[f]->Consume(t); })
            .status();
      }));
  GAMMA_RETURN_NOT_OK(FlushAllPools());
  tracker.EndPhase();

  // --- Phase 2: split partials on the group key and merge. ---
  const Schema partial_schema = PartialSchema();
  const Schema result_schema = GroupedAggregator::ResultSchema();
  std::vector<std::unique_ptr<GroupedAggregator>> globals;
  for (const int site : merge_sites) {
    globals.push_back(std::make_unique<GroupedAggregator>(
        /*group_attr=*/0, /*value_attr=*/0, query.func, &result_schema,
        &nodes_[static_cast<size_t>(site)]->charge()));
  }
  const uint64_t salt = next_salt_++;
  // Skew-aware merge routing: unlike the join, no sampling is needed — the
  // coordinator sees every local group key, so the exact redistribution
  // weight per key (one partial per fragment holding the group) is a free
  // byproduct of phase 1. When plain hash(group) % sites would exceed the
  // documented imbalance threshold, route through an LPT-balanced bucket
  // map instead; each serving node reports its group list to the scheduler
  // in one control-message round trip, charged below.
  exec::RouteSpec merge_route = query.group_attr < 0
                                    ? exec::RouteSpec::Single(0)
                                    : exec::RouteSpec::HashAttr(0, salt);
  bool merge_bucket_map = false;
  if (query.group_attr >= 0) {
    exec::SplitTableBuilder builder(
        exec::ChooseBucketCount(merge_sites.size()), salt);
    for (size_t f = 0; f < locals.size(); ++f) {
      for (const auto& [group_key, state] : locals[f]->groups()) {
        builder.AddWeightedKey(group_key, 1, sources[f].node);
      }
    }
    if (builder.total_weight() > 0) {
      const exec::SkewAssignment assignment = builder.Build(merge_sites);
      if (assignment.hash_imbalance > opt::kSkewImbalanceThreshold) {
        merge_route =
            exec::RouteSpec::BucketMap(0, salt, assignment.bucket_map);
        merge_bucket_map = true;
      }
    }
  }
  tracker.BeginPhase("global_agg", sim::PhaseKind::kPipelined);
  {
    if (merge_bucket_map) {
      for (const NodeGroup& group : GroupByServingNode(sources)) {
        tracker.ChargeControlMessage(group.node, config_.scheduler_node(),
                                     /*blocking=*/false);
        tracker.ChargeControlMessage(config_.scheduler_node(), group.node,
                                     /*blocking=*/true);
      }
    }
    // Producers: each serving node ships its fragments' partials through the
    // split into the (fragment, merge-site) exchange.
    exec::Exchange agg_ex(static_cast<size_t>(ndisk), merge_sites.size(),
                          partial_schema.tuple_size());
    std::vector<NodeTask> tasks;
    for (const NodeGroup& group : GroupByServingNode(sources)) {
      tasks.push_back(NodeTask{
          group.node, [&, group](sim::CostTracker& shard) -> Status {
            for (size_t f : group.members) {
              SplitTable split(
                  sources[f].node, &partial_schema, merge_route,
                  exec::ExchangeDestinations(agg_ex, f, merge_sites), &shard);
              catalog::TupleBuilder builder(&partial_schema);
              for (const auto& [group_key, state] : locals[f]->groups()) {
                builder.SetInt(0, group_key);
                builder.SetChar(
                    1, std::string_view(
                           reinterpret_cast<const char*>(&state),
                           sizeof(state)));
                split.Send(builder.bytes());
              }
              split.Close();
            }
            return Status::OK();
          }});
    }
    GAMMA_RETURN_NOT_OK(RunNodeTasks(&tracker, std::move(tasks)));
    // Consumers: each merge site drains its column in ascending fragment
    // order and folds the partials into its global aggregator.
    std::vector<NodeTask> merges;
    for (size_t d = 0; d < merge_sites.size(); ++d) {
      merges.push_back(NodeTask{
          merge_sites[d], [&, d](sim::CostTracker&) {
            agg_ex.Drain(d, [&, d](std::span<const uint8_t> partial) {
              int32_t group;
              AggState state;
              std::memcpy(&group, partial.data(), sizeof(group));
              std::memcpy(&state, partial.data() + sizeof(group),
                          sizeof(state));
              globals[d]->MergeGroup(group, state);
            });
            return Status::OK();
          }});
    }
    GAMMA_RETURN_NOT_OK(RunNodeTasks(&tracker, std::move(merges)));
  }
  tracker.EndPhase();

  // --- Phase 3: return final values to the host. ---
  QueryResult result;
  tracker.BeginPhase("return", sim::PhaseKind::kPipelined);
  {
    exec::Exchange ret_ex(merge_sites.size(), 1, result_schema.tuple_size());
    std::vector<NodeTask> tasks;
    for (size_t d = 0; d < merge_sites.size(); ++d) {
      tasks.push_back(NodeTask{
          merge_sites[d], [&, d](sim::CostTracker& shard) {
            // Sites that received no groups send nothing (not even the
            // end-of-stream split, matching the sequential schedule).
            if (globals[d]->num_groups() == 0) return Status::OK();
            SplitTable split(
                merge_sites[d], &result_schema, exec::RouteSpec::Single(0),
                exec::ExchangeDestinations(ret_ex, d, {config_.host_node()}),
                &shard);
            globals[d]->EmitResults(
                [&split](std::span<const uint8_t> t) { split.Send(t); });
            split.Close();
            shard.ChargeControlMessage(merge_sites[d],
                                       config_.scheduler_node(), false);
            return Status::OK();
          }});
    }
    GAMMA_RETURN_NOT_OK(RunNodeTasks(&tracker, std::move(tasks)));
    ret_ex.Drain(0, [&result](std::span<const uint8_t> t) {
      result.returned.emplace_back(t.begin(), t.end());
    });
  }
  tracker.EndPhase();

  result.result_tuples = result.returned.size();
  return stmt.Finish(std::move(result));
}

}  // namespace gammadb::gamma
