// Update-query execution of the Teradata baseline (§7, Table 3): the
// machine runs full concurrency control and recovery, so every data or
// index change pays logging I/O on top of the hash-file access path.

#include <cstring>

#include "common/hash.h"
#include "common/macros.h"
#include "teradata/index_entry.h"
#include "teradata/machine.h"

namespace gammadb::teradata {

using catalog::IntAttr;
using catalog::RelationMeta;
using exec::QueryResult;
using storage::AccessIntent;
using storage::Rid;

namespace {

/// Drops (key -> rid) from a hash directory.
void EraseDir(std::unordered_multimap<int32_t, Rid>* dir, int32_t key,
              Rid rid) {
  auto [begin, end] = dir->equal_range(key);
  for (auto it = begin; it != end; ++it) {
    if (it->second == rid) {
      dir->erase(it);
      return;
    }
  }
}

}  // namespace

Result<QueryResult> TeradataMachine::RunAppend(const TdAppendQuery& query) {
  GAMMA_ASSIGN_OR_RETURN(RelationMeta * meta, catalog_.Get(query.relation));
  if (query.tuple.size() != meta->schema.tuple_size()) {
    return Status::InvalidArgument("tuple size does not match schema");
  }
  RelationState& state = states_.at(query.relation);
  sim::CostTracker tracker(config_.hw, config_.tracker_nodes());
  BindAll(&tracker);
  ChargeSteps(&tracker, 1, /*single_tuple=*/true);

  tracker.BeginPhase("append", sim::PhaseKind::kSequential);
  const int amp_index =
      AmpForKey(IntAttr(meta->schema, query.tuple, state.pk_attr));
  tracker.ChargeDataPacket(config_.host_node(), amp_index,
                           query.tuple.size());
  Status status =
      InsertWithRecovery(meta, &state, amp_index, query.tuple).status();
  if (status.ok()) status = FlushAllPools();
  if (!status.ok()) return AbandonResult(nullptr, status);
  tracker.ChargeControlMessage(amp_index, config_.ifp_node(), true);
  tracker.EndPhase();

  QueryResult result;
  result.result_tuples = 1;
  BindAll(nullptr);
  result.metrics = tracker.Finish();
  return FinalizeObs("append", std::move(result));
}

Result<QueryResult> TeradataMachine::RunDelete(const TdDeleteQuery& query) {
  GAMMA_ASSIGN_OR_RETURN(RelationMeta * meta, catalog_.Get(query.relation));
  RelationState& state = states_.at(query.relation);
  if (query.key_attr < 0 ||
      static_cast<size_t>(query.key_attr) >= meta->schema.num_attrs()) {
    return Status::InvalidArgument("delete key attribute out of range");
  }
  sim::CostTracker tracker(config_.hw, config_.tracker_nodes());
  BindAll(&tracker);
  ChargeSteps(&tracker, 1, /*single_tuple=*/true);

  uint64_t deleted = 0;
  // Deletes the tuple at `rid` on `amp_index` with full recovery: every
  // index leaf rewrite plus the transient journal, the logging CPU, the
  // data page.
  const auto remove = [&](int amp_index, Rid rid) -> Status {
    storage::StorageManager& sm = *amps_[static_cast<size_t>(amp_index)];
    storage::HeapFile& fragment =
        sm.file(meta->per_node_file[static_cast<size_t>(amp_index)]);
    GAMMA_ASSIGN_OR_RETURN(const std::vector<uint8_t> tuple,
                           fragment.Fetch(rid, AccessIntent::kRandom));
    GAMMA_RETURN_NOT_OK(fragment.Delete(rid));
    EraseDir(&state.key_dir[static_cast<size_t>(amp_index)],
             IntAttr(meta->schema, tuple, state.pk_attr), rid);
    for (SecondaryIndex& index : state.indices) {
      EraseDir(&index.dir[static_cast<size_t>(amp_index)],
               IntAttr(meta->schema, tuple, index.attr), rid);
      sm.charge().DiskWrite(config_.page_size, AccessIntent::kRandom);
    }
    sm.charge().Cpu(config_.instr_per_insert_logging);
    sm.charge().DiskWrite(config_.page_size, AccessIntent::kRandom);
    ++deleted;
    return Status::OK();
  };
  const auto run = [&]() -> Status {
    tracker.BeginPhase("delete", sim::PhaseKind::kSequential);
    if (query.key_attr == state.pk_attr) {
      // Primary key: one AMP, one hash access.
      const int amp_index = AmpForKey(query.key);
      amps_[static_cast<size_t>(amp_index)]->charge().DiskRead(
          config_.page_size, AccessIntent::kRandom);
      const auto& dir = state.key_dir[static_cast<size_t>(amp_index)];
      std::vector<Rid> rids;
      auto [begin, end] = dir.equal_range(query.key);
      for (auto it = begin; it != end; ++it) rids.push_back(it->second);
      for (const Rid rid : rids) GAMMA_RETURN_NOT_OK(remove(amp_index, rid));
      tracker.ChargeControlMessage(amp_index, config_.ifp_node(), true);
    } else {
      // Secondary attribute: hash index gives the rids in one access per
      // AMP.
      for (int amp_index = 0; amp_index < config_.num_amps; ++amp_index) {
        for (SecondaryIndex& index : state.indices) {
          if (index.attr != query.key_attr) continue;
          amps_[static_cast<size_t>(amp_index)]->charge().DiskRead(
              config_.page_size, AccessIntent::kRandom);
          const auto& dir = index.dir[static_cast<size_t>(amp_index)];
          std::vector<Rid> rids;
          auto [begin, end] = dir.equal_range(query.key);
          for (auto it = begin; it != end; ++it) rids.push_back(it->second);
          for (const Rid rid : rids) {
            GAMMA_RETURN_NOT_OK(remove(amp_index, rid));
          }
        }
      }
    }
    GAMMA_RETURN_NOT_OK(FlushAllPools());
    tracker.EndPhase();
    return Status::OK();
  };
  const Status status = run();
  meta->num_tuples -= deleted;
  if (!status.ok()) return AbandonResult(nullptr, status);

  QueryResult result;
  result.result_tuples = deleted;
  BindAll(nullptr);
  result.metrics = tracker.Finish();
  return FinalizeObs("delete", std::move(result));
}

Result<QueryResult> TeradataMachine::RunModify(const TdModifyQuery& query) {
  GAMMA_ASSIGN_OR_RETURN(RelationMeta * meta, catalog_.Get(query.relation));
  RelationState& state = states_.at(query.relation);
  if (query.locate_attr < 0 ||
      static_cast<size_t>(query.locate_attr) >= meta->schema.num_attrs() ||
      query.target_attr < 0 ||
      static_cast<size_t>(query.target_attr) >= meta->schema.num_attrs()) {
    return Status::InvalidArgument("modify attribute out of range");
  }
  sim::CostTracker tracker(config_.hw, config_.tracker_nodes());
  BindAll(&tracker);
  ChargeSteps(&tracker, 1, /*single_tuple=*/true);

  uint64_t modified = 0;
  const auto run = [&]() -> Status {
    // Locate (amp, rid) pairs through the primary hash or a secondary
    // index.
    std::vector<std::pair<int, Rid>> located;
    tracker.BeginPhase("modify", sim::PhaseKind::kSequential);
    if (query.locate_attr == state.pk_attr) {
      const int amp_index = AmpForKey(query.locate_key);
      amps_[static_cast<size_t>(amp_index)]->charge().DiskRead(
          config_.page_size, AccessIntent::kRandom);
      auto& dir = state.key_dir[static_cast<size_t>(amp_index)];
      auto [begin, end] = dir.equal_range(query.locate_key);
      for (auto it = begin; it != end; ++it) {
        located.emplace_back(amp_index, it->second);
      }
    } else {
      const SecondaryIndex* index = nullptr;
      for (const SecondaryIndex& candidate : state.indices) {
        if (candidate.attr == query.locate_attr) index = &candidate;
      }
      if (index != nullptr) {
        for (int amp_index = 0; amp_index < config_.num_amps; ++amp_index) {
          amps_[static_cast<size_t>(amp_index)]->charge().DiskRead(
              config_.page_size, AccessIntent::kRandom);
          const auto& dir = index->dir[static_cast<size_t>(amp_index)];
          auto [begin, end] = dir.equal_range(query.locate_key);
          for (auto it = begin; it != end; ++it) {
            located.emplace_back(amp_index, it->second);
          }
        }
      } else {
        // No index: full scan of every fragment.
        const exec::Predicate pred =
            exec::Predicate::Eq(query.locate_attr, query.locate_key);
        for (int amp_index = 0; amp_index < config_.num_amps; ++amp_index) {
          storage::StorageManager& sm =
              *amps_[static_cast<size_t>(amp_index)];
          GAMMA_RETURN_NOT_OK(
              sm.file(meta->per_node_file[static_cast<size_t>(amp_index)])
                  .Scan([&](Rid rid, std::span<const uint8_t> tuple) {
                    sm.charge().Cpu(config_.hw.cost.instr_per_tuple_scan +
                                    config_.hw.cost.instr_per_attr_compare);
                    if (pred.Eval(tuple, meta->schema)) {
                      located.emplace_back(amp_index, rid);
                    }
                    return true;
                  }));
        }
      }
    }

    const bool relocates = query.target_attr == state.pk_attr;
    if (relocates && !located.empty()) {
      // Changing the primary key moves the tuple between AMPs: a multi-AMP
      // transaction with two-phase commit, coordinated by the IFP (the
      // reason Table 3's key-modify row is the most expensive Teradata
      // update).
      tracker.ChargeSerialSec(config_.ifp_node(), config_.step_overhead_sec);
    }
    for (const auto& [amp_index, rid] : located) {
      storage::StorageManager& sm = *amps_[static_cast<size_t>(amp_index)];
      storage::HeapFile& fragment =
          sm.file(meta->per_node_file[static_cast<size_t>(amp_index)]);
      auto& key_dir = state.key_dir[static_cast<size_t>(amp_index)];
      GAMMA_ASSIGN_OR_RETURN(const std::vector<uint8_t> old_tuple,
                             fragment.Fetch(rid, AccessIntent::kRandom));
      std::vector<uint8_t> new_tuple = old_tuple;
      std::memcpy(
          new_tuple.data() +
              meta->schema.offset(static_cast<size_t>(query.target_attr)),
          &query.new_value, sizeof(query.new_value));

      if (relocates) {
        // Primary key changed: the tuple hashes to a new AMP. Delete +
        // insert with full recovery at both ends, and fix every secondary
        // index.
        GAMMA_RETURN_NOT_OK(fragment.Delete(rid));
        EraseDir(&key_dir, IntAttr(meta->schema, old_tuple, state.pk_attr),
                 rid);
        for (SecondaryIndex& index : state.indices) {
          EraseDir(&index.dir[static_cast<size_t>(amp_index)],
                   IntAttr(meta->schema, old_tuple, index.attr), rid);
          sm.charge().DiskWrite(config_.page_size, AccessIntent::kRandom);
        }
        sm.charge().DiskWrite(config_.page_size, AccessIntent::kRandom);
        sm.charge().Cpu(config_.instr_per_insert_logging);
        const int new_amp = AmpForKey(query.new_value);
        if (new_amp != amp_index) {
          tracker.ChargeDataPacket(amp_index, new_amp, new_tuple.size());
        }
        meta->num_tuples -= 1;  // InsertWithRecovery re-adds it.
        if (auto moved = InsertWithRecovery(meta, &state, new_amp, new_tuple);
            !moved.ok()) {
          // Put the tuple back where it was before reporting.
          meta->num_tuples += 1;
          GAMMA_RETURN_NOT_OK(fragment.Restore(rid, old_tuple));
          key_dir.emplace(IntAttr(meta->schema, old_tuple, state.pk_attr),
                          rid);
          for (SecondaryIndex& index : state.indices) {
            index.dir[static_cast<size_t>(amp_index)].emplace(
                IntAttr(meta->schema, old_tuple, index.attr), rid);
          }
          return moved.status();
        }
      } else {
        GAMMA_RETURN_NOT_OK(fragment.Update(rid, new_tuple));
        for (SecondaryIndex& index : state.indices) {
          if (index.attr != query.target_attr) continue;
          auto& dir = index.dir[static_cast<size_t>(amp_index)];
          EraseDir(&dir, IntAttr(meta->schema, old_tuple, index.attr), rid);
          dir.emplace(query.new_value, rid);
          GAMMA_RETURN_NOT_OK(
              sm.file(index.per_amp_file[static_cast<size_t>(amp_index)])
                  .Append(internal::SerializeIndexEntry(query.new_value, rid))
                  .status());
          sm.charge().DiskWrite(config_.page_size, AccessIntent::kRandom);
        }
        sm.charge().DiskWrite(config_.page_size, AccessIntent::kRandom);
        sm.charge().Cpu(config_.instr_per_insert_logging);
      }
      ++modified;
    }
    GAMMA_RETURN_NOT_OK(FlushAllPools());
    tracker.ChargeControlMessage(0, config_.ifp_node(), true);
    tracker.EndPhase();
    return Status::OK();
  };
  if (Status status = run(); !status.ok()) {
    return AbandonResult(nullptr, status);
  }

  QueryResult result;
  result.result_tuples = modified;
  BindAll(nullptr);
  result.metrics = tracker.Finish();
  return FinalizeObs("modify", std::move(result));
}

Result<std::vector<std::vector<uint8_t>>> TeradataMachine::ReadRelation(
    const std::string& name) {
  GAMMA_ASSIGN_OR_RETURN(const RelationMeta* meta, catalog_.Get(name));
  std::vector<std::vector<uint8_t>> out;
  out.reserve(meta->num_tuples);
  for (int i = 0; i < config_.num_amps; ++i) {
    GAMMA_RETURN_NOT_OK(
        amps_[static_cast<size_t>(i)]
            ->file(meta->per_node_file[static_cast<size_t>(i)])
            .Scan([&](Rid, std::span<const uint8_t> tuple) {
              out.emplace_back(tuple.begin(), tuple.end());
              return true;
            }));
  }
  return out;
}

Result<uint64_t> TeradataMachine::CountTuples(const std::string& name) {
  GAMMA_ASSIGN_OR_RETURN(const RelationMeta* meta, catalog_.Get(name));
  uint64_t count = 0;
  for (int i = 0; i < config_.num_amps; ++i) {
    count += amps_[static_cast<size_t>(i)]
                 ->file(meta->per_node_file[static_cast<size_t>(i)])
                 .num_tuples();
  }
  return count;
}

}  // namespace gammadb::teradata
