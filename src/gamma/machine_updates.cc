// Update-query execution of GammaMachine (paper §7, Table 3): single-tuple
// appends, deletes, and modifies, with partial recovery through deferred
// update files for the index structures and full concurrency control.
//
// Updates always run against the primary copy and mirror into the chained
// backup when one exists; they never fail over (a dead primary makes the
// write Unavailable). A failed append rolls its tuple back before reporting.

#include <cstring>

#include "common/macros.h"
#include "exec/select.h"
#include "gamma/machine.h"
#include "gamma/recovery_log.h"
#include "storage/deferred_update.h"

namespace gammadb::gamma {

using catalog::IndexMeta;
using catalog::PartitionStrategy;
using catalog::RelationMeta;
using catalog::TupleView;
using exec::Predicate;
using storage::AccessIntent;
using storage::DeferredUpdateFile;
using storage::Rid;

namespace {

int32_t AttrOf(const catalog::Schema& schema,
               std::span<const uint8_t> tuple, int attr) {
  return TupleView(&schema, tuple).GetInt(static_cast<size_t>(attr));
}

}  // namespace

Status GammaMachine::DeleteFromBackup(const RelationMeta& meta, int fragment,
                                      std::span<const uint8_t> tuple,
                                      sim::CostTracker* tracker,
                                      Rid* deleted_rid) {
  const int host = (fragment + 1) % config_.num_disk_nodes;
  if (faults_->IsDead(host)) {
    return Status::Unavailable("backup site " + std::to_string(host) +
                               " of fragment " + std::to_string(fragment) +
                               " of " + meta.name + " is down");
  }
  storage::StorageManager& sm = *nodes_[static_cast<size_t>(host)];
  storage::HeapFile& backup =
      sm.file(meta.per_node_backup_file[static_cast<size_t>(fragment)]);
  // Ship the pre-image over, then locate the copy by content: backups carry
  // no indexes. The primary's page lock already covers the logical tuple.
  tracker->ChargeDataPacket(fragment, host, tuple.size());
  Rid match{};
  bool found = false;
  GAMMA_RETURN_NOT_OK(backup.Scan([&](Rid rid, std::span<const uint8_t> t) {
    sm.charge().Cpu(config_.hw.cost.instr_per_tuple_scan);
    if (t.size() == tuple.size() &&
        std::memcmp(t.data(), tuple.data(), t.size()) == 0) {
      match = rid;
      found = true;
      return false;
    }
    return true;
  }));
  if (!found) {
    return Status::Corruption("backup of fragment " +
                              std::to_string(fragment) + " of " + meta.name +
                              " is missing a tuple");
  }
  if (deleted_rid != nullptr) *deleted_rid = match;
  return backup.Delete(match);
}

Status GammaMachine::UpdateInBackup(const RelationMeta& meta, int fragment,
                                    std::span<const uint8_t> old_tuple,
                                    std::span<const uint8_t> new_tuple,
                                    sim::CostTracker* tracker,
                                    Rid* updated_rid) {
  const int host = (fragment + 1) % config_.num_disk_nodes;
  if (faults_->IsDead(host)) {
    return Status::Unavailable("backup site " + std::to_string(host) +
                               " of fragment " + std::to_string(fragment) +
                               " of " + meta.name + " is down");
  }
  storage::StorageManager& sm = *nodes_[static_cast<size_t>(host)];
  storage::HeapFile& backup =
      sm.file(meta.per_node_backup_file[static_cast<size_t>(fragment)]);
  tracker->ChargeDataPacket(fragment, host, new_tuple.size());
  Rid match{};
  bool found = false;
  GAMMA_RETURN_NOT_OK(backup.Scan([&](Rid rid, std::span<const uint8_t> t) {
    sm.charge().Cpu(config_.hw.cost.instr_per_tuple_scan);
    if (t.size() == old_tuple.size() &&
        std::memcmp(t.data(), old_tuple.data(), t.size()) == 0) {
      match = rid;
      found = true;
      return false;
    }
    return true;
  }));
  if (!found) {
    return Status::Corruption("backup of fragment " +
                              std::to_string(fragment) + " of " + meta.name +
                              " is missing a tuple");
  }
  if (updated_rid != nullptr) *updated_rid = match;
  return backup.Update(match, new_tuple);
}

Result<QueryResult> GammaMachine::RunAppend(const AppendQuery& query,
                                            uint64_t external_txn) {
  if (crashed_) {
    return Status::Unavailable(
        "machine crashed: run Recover() before issuing queries");
  }
  GAMMA_ASSIGN_OR_RETURN(RelationMeta * meta, catalog_.Get(query.relation));
  if (query.tuple.size() != meta->schema.tuple_size()) {
    return Status::InvalidArgument("tuple size does not match schema");
  }

  int target;
  if (meta->partitioning.strategy == PartitionStrategy::kRoundRobin) {
    target = static_cast<int>(meta->num_tuples %
                              static_cast<uint64_t>(config_.num_disk_nodes));
  } else {
    catalog::Partitioner partitioner(&meta->partitioning, &meta->schema,
                                     config_.num_disk_nodes);
    target = partitioner.NodeFor(query.tuple);
  }
  // Writes always go to the primary copy; no failover for updates.
  if (faults_->IsDead(target)) {
    return Status::Unavailable("append to " + query.relation +
                               ": home site " + std::to_string(target) +
                               " is down");
  }
  const int backup_host = (target + 1) % config_.num_disk_nodes;
  // Without the replayable log, a dead backup host blocks the write (the
  // mirror would silently diverge). With logging on, the write proceeds and
  // its records carry mirrored=false — reintegration replays them into the
  // stale backup when the host returns.
  const bool mirror = meta->backed_up && !faults_->IsDead(backup_host);
  if (meta->backed_up && !mirror && wal_ == nullptr) {
    return Status::Unavailable("append to " + query.relation +
                               ": backup site " + std::to_string(backup_host) +
                               " is down");
  }

  if (external_txn != 0 && !txns_.IsActive(external_txn)) {
    return Status::FailedPrecondition("append under unknown transaction " +
                                      std::to_string(external_txn));
  }

  Statement stmt(this, meta->name, external_txn);
  sim::CostTracker& tracker = stmt.tracker();
  RecoveryLog& log = stmt.log();
  const uint64_t txn = stmt.txn();
  const uint64_t wal_txn = stmt.wal_txn();
  const uint32_t wal_rel = stmt.wal_rel();

  // Host submits to the scheduler, which initiates one update operator at
  // the tuple's home site.
  tracker.ChargeControlMessage(config_.host_node(), config_.scheduler_node(),
                               /*blocking=*/true);
  tracker.ChargeScheduling(1, 1);

  tracker.BeginPhase("append", sim::PhaseKind::kSequential);

  // 2PL footprint: intention-exclusive on relation and home fragment; the
  // page-level X lock follows once the append picks the page.
  const uint32_t rel = txns_.RelationId(meta->name);
  GAMMA_RETURN_NOT_OK(AcquireTxnLock(&tracker, txn, config_.scheduler_node(),
                                     txn::LockId::Relation(rel),
                                     txn::LockMode::kIX));
  {
    const txn::LockId fl =
        txn::LockId::Fragment(rel, static_cast<uint32_t>(target));
    GAMMA_RETURN_NOT_OK(AcquireTxnLock(&tracker, txn, txns_.TableFor(fl), fl,
                                       txn::LockMode::kIX));
  }

  storage::StorageManager& sm = *nodes_[static_cast<size_t>(target)];
  const uint32_t fid = meta->per_node_file[static_cast<size_t>(target)];
  storage::HeapFile& fragment = sm.file(fid);
  // The tuple itself travels host -> home site.
  tracker.ChargeDataPacket(config_.host_node(), target, query.tuple.size());
  sm.charge().Cpu(config_.hw.cost.instr_per_lock);
  sm.charge().Cpu(config_.hw.cost.instr_per_tuple_store);
  GAMMA_ASSIGN_OR_RETURN(const Rid rid, fragment.Append(query.tuple));
  {
    const txn::LockId pl = txn::LockId::Page(
        rel, static_cast<uint32_t>(target), rid.page_index);
    if (Status st = AcquireTxnLock(&tracker, txn, txns_.TableFor(pl), pl,
                                   txn::LockMode::kX);
        !st.ok()) {
      // Another open transaction holds the page: take the tuple back out.
      fragment.Delete(rid);
      return st;
    }
  }
  DeferredUpdateFile deferred(&sm.charge(), config_.page_size);
  for (const IndexMeta& index : meta->indices) {
    deferred.LogInsert(
        &sm.index(index.per_node_index[static_cast<size_t>(target)]),
        AttrOf(meta->schema, query.tuple, index.attr), rid);
  }
  if (Status st = deferred.Commit(); !st.ok()) {
    // Atomicity: take the appended tuple back out before reporting.
    fragment.Delete(rid);
    return st;
  }
  storage::HeapFile* backup_file = nullptr;
  Rid backup_rid{};
  if (mirror) {
    // Mirror into the chained backup at (target + 1) % n.
    storage::StorageManager& bsm = *nodes_[static_cast<size_t>(backup_host)];
    const uint32_t bfid =
        meta->per_node_backup_file[static_cast<size_t>(target)];
    tracker.ChargeDataPacket(target, backup_host, query.tuple.size());
    bsm.charge().Cpu(config_.hw.cost.instr_per_lock);
    bsm.charge().Cpu(config_.hw.cost.instr_per_tuple_store);
    auto brid_or = bsm.file(bfid).Append(query.tuple);
    if (!brid_or.ok()) {
      fragment.Delete(rid);
      return brid_or.status();
    }
    backup_file = &bsm.file(bfid);
    backup_rid = *brid_or;
  }
  if (config_.enable_logging) {
    // Write-ahead: the record and the force precede the page flushes below.
    log.LogInsert(target, wal_txn, wal_rel, target, rid, query.tuple, mirror,
                  backup_rid);
    log.ForceTail(target);
  }
  if (Status st = FlushAllPools(); !st.ok()) {
    // The commit-time force failed: tombstone this append (both copies)
    // while its pages are still cached so nothing partial survives.
    if (backup_file != nullptr) backup_file->Delete(backup_rid);
    fragment.Delete(rid);
    return st;
  }
  GAMMA_RETURN_NOT_OK(
      stmt.CommitWrites({target}, "append to " + query.relation));
  tracker.ChargeControlMessage(target, config_.scheduler_node(), true);
  tracker.ChargeControlMessage(config_.scheduler_node(), config_.host_node(),
                               true);
  tracker.EndPhase();

  meta->num_tuples += 1;
  stats_.OnAppend(query.relation, meta->schema, query.tuple);
  QueryResult result;
  result.result_tuples = 1;
  return FinalizeObs("append", stmt.Finish(std::move(result)));
}

Result<QueryResult> GammaMachine::RunDelete(const DeleteQuery& query,
                                            uint64_t external_txn) {
  if (crashed_) {
    return Status::Unavailable(
        "machine crashed: run Recover() before issuing queries");
  }
  GAMMA_ASSIGN_OR_RETURN(RelationMeta * meta, catalog_.Get(query.relation));
  if (query.key_attr < 0 ||
      static_cast<size_t>(query.key_attr) >= meta->schema.num_attrs()) {
    return Status::InvalidArgument("delete key attribute out of range");
  }

  const Predicate pred = Predicate::Eq(query.key_attr, query.key);
  const std::vector<int> parts = ParticipatingNodes(*meta, pred);
  const IndexMeta* index = meta->FindIndex(query.key_attr);
  for (int node : parts) {
    if (faults_->IsDead(node)) {
      return Status::Unavailable("delete from " + query.relation +
                                 ": primary site " + std::to_string(node) +
                                 " is down");
    }
  }

  if (external_txn != 0 && !txns_.IsActive(external_txn)) {
    return Status::FailedPrecondition("delete under unknown transaction " +
                                      std::to_string(external_txn));
  }

  Statement stmt(this, meta->name, external_txn);
  sim::CostTracker& tracker = stmt.tracker();
  RecoveryLog& log = stmt.log();
  const uint64_t txn = stmt.txn();
  const uint64_t wal_txn = stmt.wal_txn();
  const uint32_t wal_rel = stmt.wal_rel();

  tracker.ChargeControlMessage(config_.host_node(), config_.scheduler_node(),
                               true);
  tracker.ChargeScheduling(1, static_cast<uint32_t>(parts.size()));

  uint64_t deleted = 0;
  tracker.BeginPhase("delete", sim::PhaseKind::kSequential);
  const uint32_t rel = txns_.RelationId(meta->name);
  GAMMA_RETURN_NOT_OK(AcquireTxnLock(&tracker, txn, config_.scheduler_node(),
                                     txn::LockId::Relation(rel),
                                     txn::LockMode::kIX));
  for (int node : parts) {
    storage::StorageManager& sm = *nodes_[static_cast<size_t>(node)];
    storage::HeapFile& fragment =
        sm.file(meta->per_node_file[static_cast<size_t>(node)]);

    std::vector<Rid> rids;
    if (index != nullptr) {
      GAMMA_ASSIGN_OR_RETURN(
          rids, sm.index(index->per_node_index[static_cast<size_t>(node)])
                    .RangeLookup(query.key, query.key));
    } else {
      GAMMA_RETURN_NOT_OK(
          fragment.Scan([&](Rid rid, std::span<const uint8_t> tuple) {
            sm.charge().Cpu(config_.hw.cost.instr_per_tuple_scan +
                            config_.hw.cost.instr_per_attr_compare);
            if (pred.Eval(tuple, meta->schema)) rids.push_back(rid);
            return true;
          }));
    }
    {
      const txn::LockId fl =
          txn::LockId::Fragment(rel, static_cast<uint32_t>(node));
      GAMMA_RETURN_NOT_OK(AcquireTxnLock(&tracker, txn, txns_.TableFor(fl),
                                         fl, txn::LockMode::kIX));
    }
    DeferredUpdateFile deferred(&sm.charge(), config_.page_size);
    for (const Rid rid : rids) {
      GAMMA_ASSIGN_OR_RETURN(const std::vector<uint8_t> tuple,
                             fragment.Fetch(rid, AccessIntent::kRandom));
      sm.charge().Cpu(config_.hw.cost.instr_per_lock);
      {
        const txn::LockId pl = txn::LockId::Page(
            rel, static_cast<uint32_t>(node), rid.page_index);
        GAMMA_RETURN_NOT_OK(AcquireTxnLock(&tracker, txn, txns_.TableFor(pl),
                                           pl, txn::LockMode::kX));
      }
      GAMMA_RETURN_NOT_OK(fragment.Delete(rid));
      for (const IndexMeta& idx : meta->indices) {
        deferred.LogDelete(
            &sm.index(idx.per_node_index[static_cast<size_t>(node)]),
            AttrOf(meta->schema, tuple, idx.attr), rid);
      }
      bool mirrored = false;
      Rid backup_rid{};
      if (meta->backed_up) {
        const int bhost = (node + 1) % config_.num_disk_nodes;
        if (wal_ == nullptr || !faults_->IsDead(bhost)) {
          GAMMA_RETURN_NOT_OK(
              DeleteFromBackup(*meta, node, tuple, &tracker, &backup_rid));
          mirrored = true;
        }
        // else: the backup host is down but the log keeps the record with
        // mirrored=false; reintegration replays it into the stale copy.
      }
      if (config_.enable_logging) {
        log.LogDelete(node, wal_txn, wal_rel, node, rid, tuple, mirrored,
                      backup_rid);
      }
      ++deleted;
    }
    GAMMA_RETURN_NOT_OK(deferred.Commit());
    if (config_.enable_logging && deleted > 0) log.ForceTail(node);
    tracker.ChargeControlMessage(node, config_.scheduler_node(), true);
  }
  GAMMA_RETURN_NOT_OK(FlushAllPools());
  if (deleted > 0) {
    GAMMA_RETURN_NOT_OK(stmt.CommitWrites(parts, "delete from " + query.relation));
  }
  tracker.ChargeControlMessage(config_.scheduler_node(), config_.host_node(),
                               true);
  tracker.EndPhase();

  meta->num_tuples -= deleted;
  stats_.OnDelete(query.relation, deleted);
  QueryResult result;
  result.result_tuples = deleted;
  return FinalizeObs("delete", stmt.Finish(std::move(result)));
}

Result<QueryResult> GammaMachine::RunModify(const ModifyQuery& query,
                                            uint64_t external_txn) {
  if (crashed_) {
    return Status::Unavailable(
        "machine crashed: run Recover() before issuing queries");
  }
  GAMMA_ASSIGN_OR_RETURN(RelationMeta * meta, catalog_.Get(query.relation));
  if (query.locate_attr < 0 ||
      static_cast<size_t>(query.locate_attr) >= meta->schema.num_attrs() ||
      query.target_attr < 0 ||
      static_cast<size_t>(query.target_attr) >= meta->schema.num_attrs()) {
    return Status::InvalidArgument("modify attribute out of range");
  }
  if (meta->schema.attr(static_cast<size_t>(query.target_attr)).type !=
      catalog::AttrType::kInt32) {
    return Status::InvalidArgument("modify supports integer attributes");
  }

  const Predicate pred = Predicate::Eq(query.locate_attr, query.locate_key);
  const std::vector<int> parts = ParticipatingNodes(*meta, pred);
  const IndexMeta* locate_index = meta->FindIndex(query.locate_attr);
  const bool relocates =
      meta->partitioning.strategy != PartitionStrategy::kRoundRobin &&
      meta->partitioning.key_attr == query.target_attr;
  for (int node : parts) {
    if (faults_->IsDead(node)) {
      return Status::Unavailable("modify of " + query.relation +
                                 ": primary site " + std::to_string(node) +
                                 " is down");
    }
  }

  if (external_txn != 0 && !txns_.IsActive(external_txn)) {
    return Status::FailedPrecondition("modify under unknown transaction " +
                                      std::to_string(external_txn));
  }

  Statement stmt(this, meta->name, external_txn);
  sim::CostTracker& tracker = stmt.tracker();
  RecoveryLog& log = stmt.log();
  const uint64_t txn = stmt.txn();
  const uint64_t wal_txn = stmt.wal_txn();
  const uint32_t wal_rel = stmt.wal_rel();

  tracker.ChargeControlMessage(config_.host_node(), config_.scheduler_node(),
                               true);
  tracker.ChargeScheduling(1, static_cast<uint32_t>(parts.size()));

  uint64_t modified = 0;
  tracker.BeginPhase("modify", sim::PhaseKind::kSequential);
  const uint32_t rel = txns_.RelationId(meta->name);
  GAMMA_RETURN_NOT_OK(AcquireTxnLock(&tracker, txn, config_.scheduler_node(),
                                     txn::LockId::Relation(rel),
                                     txn::LockMode::kIX));
  for (int node : parts) {
    storage::StorageManager& sm = *nodes_[static_cast<size_t>(node)];
    storage::HeapFile& fragment =
        sm.file(meta->per_node_file[static_cast<size_t>(node)]);

    std::vector<Rid> rids;
    if (locate_index != nullptr) {
      GAMMA_ASSIGN_OR_RETURN(
          rids,
          sm.index(locate_index->per_node_index[static_cast<size_t>(node)])
              .RangeLookup(query.locate_key, query.locate_key));
    } else {
      GAMMA_RETURN_NOT_OK(
          fragment.Scan([&](Rid rid, std::span<const uint8_t> tuple) {
            sm.charge().Cpu(config_.hw.cost.instr_per_tuple_scan +
                            config_.hw.cost.instr_per_attr_compare);
            if (pred.Eval(tuple, meta->schema)) rids.push_back(rid);
            return true;
          }));
    }

    {
      const txn::LockId fl =
          txn::LockId::Fragment(rel, static_cast<uint32_t>(node));
      GAMMA_RETURN_NOT_OK(AcquireTxnLock(&tracker, txn, txns_.TableFor(fl),
                                         fl, txn::LockMode::kIX));
    }
    for (const Rid rid : rids) {
      GAMMA_ASSIGN_OR_RETURN(const std::vector<uint8_t> old_tuple,
                             fragment.Fetch(rid, AccessIntent::kRandom));
      std::vector<uint8_t> new_tuple = old_tuple;
      const int32_t new_value = query.new_value;
      std::memcpy(new_tuple.data() +
                      meta->schema.offset(static_cast<size_t>(query.target_attr)),
                  &new_value, sizeof(new_value));
      sm.charge().Cpu(config_.hw.cost.instr_per_lock);
      {
        const txn::LockId pl = txn::LockId::Page(
            rel, static_cast<uint32_t>(node), rid.page_index);
        GAMMA_RETURN_NOT_OK(AcquireTxnLock(&tracker, txn, txns_.TableFor(pl),
                                           pl, txn::LockMode::kX));
      }

      if (relocates) {
        // The partitioning attribute changed: delete here, re-insert at the
        // new home site, and maintain every index at both ends through the
        // deferred-update files (Halloween-safe, §7). The scheduler must
        // initiate a second operator at the new home and run the commit
        // protocol across both sites.
        tracker.ChargeScheduling(1, 1);
        tracker.ChargeControlMessage(config_.scheduler_node(), node, true);
        tracker.ChargeControlMessage(node, config_.scheduler_node(), true);
        DeferredUpdateFile deferred_old(&sm.charge(), config_.page_size);
        GAMMA_RETURN_NOT_OK(fragment.Delete(rid));
        for (const IndexMeta& idx : meta->indices) {
          deferred_old.LogDelete(
              &sm.index(idx.per_node_index[static_cast<size_t>(node)]),
              AttrOf(meta->schema, old_tuple, idx.attr), rid);
        }
        GAMMA_RETURN_NOT_OK(deferred_old.Commit());

        catalog::Partitioner partitioner(&meta->partitioning, &meta->schema,
                                         config_.num_disk_nodes);
        const int new_home = partitioner.NodeFor(new_tuple);
        if (faults_->IsDead(new_home)) {
          return Status::Unavailable("modify of " + query.relation +
                                     ": relocation target site " +
                                     std::to_string(new_home) + " is down");
        }
        storage::StorageManager& dst = *nodes_[static_cast<size_t>(new_home)];
        if (new_home != node) {
          tracker.ChargeDataPacket(node, new_home, new_tuple.size());
        }
        dst.charge().Cpu(config_.hw.cost.instr_per_lock);
        {
          const txn::LockId fl =
              txn::LockId::Fragment(rel, static_cast<uint32_t>(new_home));
          GAMMA_RETURN_NOT_OK(AcquireTxnLock(&tracker, txn,
                                             txns_.TableFor(fl), fl,
                                             txn::LockMode::kIX));
        }
        dst.charge().Cpu(config_.hw.cost.instr_per_tuple_store);
        storage::HeapFile& dst_fragment =
            dst.file(meta->per_node_file[static_cast<size_t>(new_home)]);
        GAMMA_ASSIGN_OR_RETURN(const Rid new_rid,
                               dst_fragment.Append(new_tuple));
        {
          const txn::LockId pl = txn::LockId::Page(
              rel, static_cast<uint32_t>(new_home), new_rid.page_index);
          if (Status st = AcquireTxnLock(&tracker, txn, txns_.TableFor(pl),
                                         pl, txn::LockMode::kX);
              !st.ok()) {
            // Another open transaction holds the target page: put the
            // tuple back where it was (the abort discards the index edits).
            dst_fragment.Delete(new_rid);
            fragment.Restore(rid, old_tuple);
            return st;
          }
        }
        DeferredUpdateFile deferred_new(&dst.charge(), config_.page_size);
        for (const IndexMeta& idx : meta->indices) {
          deferred_new.LogInsert(
              &dst.index(idx.per_node_index[static_cast<size_t>(new_home)]),
              AttrOf(meta->schema, new_tuple, idx.attr), new_rid);
        }
        GAMMA_RETURN_NOT_OK(deferred_new.Commit());
        bool old_mirrored = false;
        bool new_mirrored = false;
        Rid old_backup_rid{};
        Rid new_backup_rid{};
        if (meta->backed_up) {
          // The backup copy moves with the tuple: out of this fragment's
          // chain, into the new home fragment's chain. A dead backup host on
          // either end blocks the write unless the log can carry the
          // mirrored=false record for reintegration to replay.
          const int old_backup_host = (node + 1) % config_.num_disk_nodes;
          if (wal_ == nullptr || !faults_->IsDead(old_backup_host)) {
            GAMMA_RETURN_NOT_OK(DeleteFromBackup(*meta, node, old_tuple,
                                                 &tracker, &old_backup_rid));
            old_mirrored = true;
          }
          const int new_backup_host =
              (new_home + 1) % config_.num_disk_nodes;
          if (faults_->IsDead(new_backup_host)) {
            if (wal_ == nullptr) {
              return Status::Unavailable(
                  "modify of " + query.relation + ": backup site " +
                  std::to_string(new_backup_host) + " is down");
            }
          } else {
            storage::StorageManager& bsm =
                *nodes_[static_cast<size_t>(new_backup_host)];
            tracker.ChargeDataPacket(new_home, new_backup_host,
                                     new_tuple.size());
            bsm.charge().Cpu(config_.hw.cost.instr_per_tuple_store);
            auto brid_or =
                bsm.file(meta->per_node_backup_file[static_cast<size_t>(
                             new_home)])
                    .Append(new_tuple);
            GAMMA_RETURN_NOT_OK(brid_or.status());
            new_backup_rid = *brid_or;
            new_mirrored = true;
          }
        }
        if (config_.enable_logging) {
          // A relocation is logically delete-here + insert-there; two
          // records keep undo and reintegration site-local.
          log.LogDelete(node, wal_txn, wal_rel, node, rid, old_tuple,
                        old_mirrored, old_backup_rid);
          log.LogInsert(new_home, wal_txn, wal_rel, new_home, new_rid,
                        new_tuple, new_mirrored, new_backup_rid);
        }
      } else {
        GAMMA_RETURN_NOT_OK(fragment.Update(rid, new_tuple));
        // Pre-image record for the statement, forced at commit (Gamma's
        // partial recovery covers in-place modifies too).
        sm.charge().DiskWrite(config_.page_size, AccessIntent::kRandom);
        DeferredUpdateFile deferred(&sm.charge(), config_.page_size);
        for (const IndexMeta& idx : meta->indices) {
          if (idx.attr != query.target_attr) continue;
          storage::BTree& tree =
              sm.index(idx.per_node_index[static_cast<size_t>(node)]);
          deferred.LogDelete(&tree,
                             AttrOf(meta->schema, old_tuple, idx.attr), rid);
          deferred.LogInsert(&tree,
                             AttrOf(meta->schema, new_tuple, idx.attr), rid);
        }
        GAMMA_RETURN_NOT_OK(deferred.Commit());
        bool mirrored = false;
        Rid backup_rid{};
        if (meta->backed_up) {
          const int bhost = (node + 1) % config_.num_disk_nodes;
          if (wal_ == nullptr || !faults_->IsDead(bhost)) {
            GAMMA_RETURN_NOT_OK(UpdateInBackup(*meta, node, old_tuple,
                                               new_tuple, &tracker,
                                               &backup_rid));
            mirrored = true;
          }
        }
        if (config_.enable_logging) {
          // Before and after images.
          log.LogModify(node, wal_txn, wal_rel, node, rid, old_tuple,
                        new_tuple, mirrored, backup_rid);
        }
      }
      ++modified;
    }
    if (config_.enable_logging && modified > 0) log.ForceTail(node);
    tracker.ChargeControlMessage(node, config_.scheduler_node(), true);
  }
  GAMMA_RETURN_NOT_OK(FlushAllPools());
  if (modified > 0) {
    GAMMA_RETURN_NOT_OK(stmt.CommitWrites(parts, "modify of " + query.relation));
  }
  tracker.ChargeControlMessage(config_.scheduler_node(), config_.host_node(),
                               true);
  tracker.EndPhase();

  if (modified > 0) {
    stats_.OnModify(query.relation, meta->schema, query.target_attr,
                    query.new_value);
  }
  QueryResult result;
  result.result_tuples = modified;
  return FinalizeObs("modify", stmt.Finish(std::move(result)));
}

Result<std::vector<std::vector<uint8_t>>> GammaMachine::ReadRelation(
    const std::string& name) {
  GAMMA_ASSIGN_OR_RETURN(const RelationMeta* meta, catalog_.Get(name));
  std::vector<std::vector<uint8_t>> out;
  out.reserve(meta->num_tuples);
  for (int f = 0; f < config_.num_disk_nodes; ++f) {
    // kNoFile: a result relation created while this node was dead holds no
    // fragment here at all (nothing was ever routed to it).
    if (meta->per_node_file[static_cast<size_t>(f)] == catalog::kNoFile) {
      continue;
    }
    GAMMA_ASSIGN_OR_RETURN(const FragmentCopy copy, ServingCopy(*meta, f));
    GAMMA_RETURN_NOT_OK(
        nodes_[static_cast<size_t>(copy.node)]
            ->file(copy.file)
            .Scan([&](Rid, std::span<const uint8_t> tuple) {
              out.emplace_back(tuple.begin(), tuple.end());
              return true;
            }));
  }
  return out;
}

Status GammaMachine::RecomputeStatistics(const std::string& name) {
  GAMMA_ASSIGN_OR_RETURN(const RelationMeta* meta, catalog_.Get(name));
  GAMMA_ASSIGN_OR_RETURN(const auto tuples, ReadRelation(name));
  stats_.Recompute(name, meta->schema, tuples);
  return Status::OK();
}

Result<uint64_t> GammaMachine::CountTuples(const std::string& name) {
  GAMMA_ASSIGN_OR_RETURN(const RelationMeta* meta, catalog_.Get(name));
  uint64_t count = 0;
  for (int f = 0; f < config_.num_disk_nodes; ++f) {
    if (meta->per_node_file[static_cast<size_t>(f)] == catalog::kNoFile) {
      continue;
    }
    GAMMA_ASSIGN_OR_RETURN(const FragmentCopy copy, ServingCopy(*meta, f));
    count += nodes_[static_cast<size_t>(copy.node)]
                 ->file(copy.file)
                 .num_tuples();
  }
  return count;
}

}  // namespace gammadb::gamma
