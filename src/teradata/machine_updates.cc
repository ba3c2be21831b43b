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

// --- Write steps (DESIGN.md §20) ---

void TeradataMachine::Link(Rel rel, int amp, Rid rid,
                           std::span<const uint8_t> image, bool add) {
  const auto at = static_cast<size_t>(amp);
  const auto apply = [&](Directory& dir, int attr) {
    const int32_t key = IntAttr(rel.meta->schema, image, attr);
    if (add) {
      dir.Add(key, rid);
    } else {
      dir.Erase(key, rid);
    }
  };
  apply(rel.state->key_dir[at], rel.key_attr());
  for (SecondaryIndex& index : rel.state->indices) {
    apply(index.dir[at], index.attr);
  }
}

Result<std::vector<std::pair<int, Rid>>> TeradataMachine::Locate(
    Rel rel, int attr, int32_t key) {
  std::vector<std::pair<int, Rid>> rows;
  const auto probe = [&](int amp, const Directory& dir) {
    amps_[static_cast<size_t>(amp)]->charge().DiskRead(config_.page_size,
                                                      AccessIntent::kRandom);
    for (const Rid rid : dir.Find(key)) rows.emplace_back(amp, rid);
  };
  if (attr == rel.key_attr()) {
    // Primary key: one AMP, one hash access.
    const int home = AmpForKey(key);
    probe(home, rel.state->key_dir[static_cast<size_t>(home)]);
    return rows;
  }
  for (const SecondaryIndex& index : rel.state->indices) {
    if (index.attr != attr) continue;
    // Secondary attribute: the hash index gives the rids in one access per
    // AMP.
    for (int amp = 0; amp < config_.num_amps; ++amp) {
      probe(amp, index.dir[static_cast<size_t>(amp)]);
    }
    return rows;
  }
  // No index: a full scan of every fragment.
  const exec::Predicate pred = exec::Predicate::Eq(attr, key);
  for (int amp = 0; amp < config_.num_amps; ++amp) {
    storage::StorageManager& sm = *amps_[static_cast<size_t>(amp)];
    GAMMA_RETURN_NOT_OK(
        sm.file(rel.meta->per_node_file[static_cast<size_t>(amp)])
            .Scan([&](Rid rid, std::span<const uint8_t> tuple) {
              sm.charge().Cpu(config_.hw.cost.instr_per_tuple_scan +
                              config_.hw.cost.instr_per_attr_compare);
              if (pred.Eval(tuple, rel.meta->schema)) {
                rows.emplace_back(amp, rid);
              }
              return true;
            }));
  }
  return rows;
}

Result<Rid> TeradataMachine::Insert(InsertMode mode, int amp,
                                    storage::FileId file,
                                    std::span<const uint8_t> tuple) {
  storage::StorageManager& sm = *amps_[static_cast<size_t>(amp)];
  if (mode == InsertMode::kRecovery) {
    // Full-recovery insert path: transient-journal and index-maintenance
    // I/Os plus the logging CPU ([DEWI87]; the paper's §4 cost analysis).
    for (uint32_t i = 0; i < kInsertRecoveryIos; ++i) {
      sm.charge().DiskWrite(config_.page_size, AccessIntent::kRandom);
    }
    sm.charge().Cpu(kInstrPerInsertLogging);
  } else {
    sm.charge().Cpu(kInstrPerSpoolTuple);
  }
  return sm.file(file).Append(tuple);
}

Result<Rid> TeradataMachine::Insert(InsertMode mode, Rel rel, int amp,
                                    std::span<const uint8_t> tuple) {
  const auto at = static_cast<size_t>(amp);
  GAMMA_ASSIGN_OR_RETURN(
      const Rid rid, Insert(mode, amp, rel.meta->per_node_file[at], tuple));
  Link(rel, amp, rid, tuple, /*add=*/true);
  for (const SecondaryIndex& index : rel.state->indices) {
    const Status status =
        amps_[at]
            ->file(index.per_amp_file[at])
            .Append(internal::SerializeIndexEntry(
                IntAttr(rel.meta->schema, tuple, index.attr), rid))
            .status();
    if (!status.ok()) {
      (void)Remove(rel, amp, rid, tuple);
      return status;
    }
  }
  rel.meta->num_tuples += 1;
  return rid;
}

Status TeradataMachine::Remove(Rel rel, int amp, Rid rid,
                               std::span<const uint8_t> image) {
  storage::StorageManager& sm = *amps_[static_cast<size_t>(amp)];
  GAMMA_RETURN_NOT_OK(
      sm.file(rel.meta->per_node_file[static_cast<size_t>(amp)]).Delete(rid));
  Link(rel, amp, rid, image, /*add=*/false);
  for (size_t i = 0; i < rel.state->indices.size(); ++i) {
    sm.charge().DiskWrite(config_.page_size, AccessIntent::kRandom);
  }
  return Status::OK();
}

Status TeradataMachine::Restore(Rel rel, int amp, Rid rid,
                                std::span<const uint8_t> image) {
  GAMMA_RETURN_NOT_OK(
      amps_[static_cast<size_t>(amp)]
          ->file(rel.meta->per_node_file[static_cast<size_t>(amp)])
          .Restore(rid, image));
  Link(rel, amp, rid, image, /*add=*/true);
  return Status::OK();
}

// --- Statements ---

Result<QueryResult> TeradataMachine::RunAppend(const TdAppendQuery& query) {
  GAMMA_ASSIGN_OR_RETURN(const Rel rel, GetRel(query.relation));
  if (query.tuple.size() != rel.meta->schema.tuple_size()) {
    return Status::InvalidArgument("tuple size does not match schema");
  }
  Statement stmt(*this, 1, /*single_tuple=*/true);
  sim::CostTracker& tracker = stmt.tracker();
  tracker.BeginPhase("append", sim::PhaseKind::kSequential);
  const int amp =
      AmpForKey(IntAttr(rel.meta->schema, query.tuple, rel.key_attr()));
  tracker.ChargeDataPacket(config_.host_node(), amp, query.tuple.size());
  GAMMA_RETURN_NOT_OK(
      Insert(InsertMode::kRecovery, rel, amp, query.tuple).status());
  GAMMA_RETURN_NOT_OK(FlushAllPools());
  tracker.ChargeControlMessage(amp, config_.ifp_node(), true);
  tracker.EndPhase();
  stmt.result().result_tuples = 1;
  return stmt.Finish("append");
}

Result<QueryResult> TeradataMachine::RunDelete(const TdDeleteQuery& query) {
  GAMMA_ASSIGN_OR_RETURN(const Rel rel, GetRel(query.relation));
  if (query.key_attr < 0 ||
      static_cast<size_t>(query.key_attr) >= rel.meta->schema.num_attrs()) {
    return Status::InvalidArgument("delete key attribute out of range");
  }
  Statement stmt(*this, 1, /*single_tuple=*/true);
  sim::CostTracker& tracker = stmt.tracker();
  tracker.BeginPhase("delete", sim::PhaseKind::kSequential);
  GAMMA_ASSIGN_OR_RETURN(const auto located,
                         Locate(rel, query.key_attr, query.key));
  for (const auto& [amp, rid] : located) {
    storage::StorageManager& sm = *amps_[static_cast<size_t>(amp)];
    GAMMA_ASSIGN_OR_RETURN(
        const std::vector<uint8_t> tuple,
        sm.file(rel.meta->per_node_file[static_cast<size_t>(amp)])
            .Fetch(rid, AccessIntent::kRandom));
    // Full recovery: the index leaf rewrites, then the transient journal's
    // logging CPU and the data page.
    GAMMA_RETURN_NOT_OK(Remove(rel, amp, rid, tuple));
    sm.charge().Cpu(kInstrPerInsertLogging);
    sm.charge().DiskWrite(config_.page_size, AccessIntent::kRandom);
    rel.meta->num_tuples -= 1;
    stmt.result().result_tuples += 1;
  }
  if (query.key_attr == rel.key_attr()) {
    tracker.ChargeControlMessage(AmpForKey(query.key), config_.ifp_node(),
                                 true);
  }
  GAMMA_RETURN_NOT_OK(FlushAllPools());
  tracker.EndPhase();
  return stmt.Finish("delete");
}

Result<QueryResult> TeradataMachine::RunModify(const TdModifyQuery& query) {
  GAMMA_ASSIGN_OR_RETURN(const Rel rel, GetRel(query.relation));
  const catalog::Schema& schema = rel.meta->schema;
  if (query.locate_attr < 0 ||
      static_cast<size_t>(query.locate_attr) >= schema.num_attrs() ||
      query.target_attr < 0 ||
      static_cast<size_t>(query.target_attr) >= schema.num_attrs()) {
    return Status::InvalidArgument("modify attribute out of range");
  }
  Statement stmt(*this, 1, /*single_tuple=*/true);
  sim::CostTracker& tracker = stmt.tracker();
  tracker.BeginPhase("modify", sim::PhaseKind::kSequential);
  GAMMA_ASSIGN_OR_RETURN(const auto located,
                         Locate(rel, query.locate_attr, query.locate_key));
  const bool relocates = query.target_attr == rel.key_attr();
  if (relocates && !located.empty()) {
    // Changing the primary key moves the tuple between AMPs: a multi-AMP
    // transaction with two-phase commit, coordinated by the IFP (the
    // reason Table 3's key-modify row is the most expensive Teradata
    // update).
    tracker.ChargeSerialSec(config_.ifp_node(), kStepOverheadSec);
  }
  for (const auto& [amp, rid] : located) {
    const auto at = static_cast<size_t>(amp);
    storage::StorageManager& sm = *amps_[at];
    storage::HeapFile& fragment = sm.file(rel.meta->per_node_file[at]);
    GAMMA_ASSIGN_OR_RETURN(const std::vector<uint8_t> old_tuple,
                           fragment.Fetch(rid, AccessIntent::kRandom));
    std::vector<uint8_t> new_tuple = old_tuple;
    std::memcpy(new_tuple.data() +
                    schema.offset(static_cast<size_t>(query.target_attr)),
                &query.new_value, sizeof(query.new_value));

    if (relocates) {
      // The tuple hashes to a new AMP: delete + insert with full recovery
      // at both ends, fixing every secondary index.
      GAMMA_RETURN_NOT_OK(Remove(rel, amp, rid, old_tuple));
      sm.charge().DiskWrite(config_.page_size, AccessIntent::kRandom);
      sm.charge().Cpu(kInstrPerInsertLogging);
      rel.meta->num_tuples -= 1;
      const int new_amp = AmpForKey(query.new_value);
      if (new_amp != amp) {
        tracker.ChargeDataPacket(amp, new_amp, new_tuple.size());
      }
      if (auto moved = Insert(InsertMode::kRecovery, rel, new_amp, new_tuple);
          !moved.ok()) {
        // Put the tuple back where it was before reporting.
        GAMMA_RETURN_NOT_OK(Restore(rel, amp, rid, old_tuple));
        rel.meta->num_tuples += 1;
        return moved.status();
      }
    } else {
      GAMMA_RETURN_NOT_OK(fragment.Update(rid, new_tuple));
      for (SecondaryIndex& index : rel.state->indices) {
        if (index.attr != query.target_attr) continue;
        Directory& dir = index.dir[at];
        dir.Erase(IntAttr(schema, old_tuple, index.attr), rid);
        dir.Add(query.new_value, rid);
        GAMMA_RETURN_NOT_OK(
            sm.file(index.per_amp_file[at])
                .Append(internal::SerializeIndexEntry(query.new_value, rid))
                .status());
        sm.charge().DiskWrite(config_.page_size, AccessIntent::kRandom);
      }
      sm.charge().DiskWrite(config_.page_size, AccessIntent::kRandom);
      sm.charge().Cpu(kInstrPerInsertLogging);
    }
    stmt.result().result_tuples += 1;
  }
  GAMMA_RETURN_NOT_OK(FlushAllPools());
  tracker.ChargeControlMessage(0, config_.ifp_node(), true);
  tracker.EndPhase();
  return stmt.Finish("modify");
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
