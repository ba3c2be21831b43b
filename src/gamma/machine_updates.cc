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
using catalog::IntAttr;
using catalog::PartitionStrategy;
using catalog::RelationMeta;
using exec::Predicate;
using storage::AccessIntent;
using storage::DeferredUpdateFile;
using storage::Rid;

Status GammaMachine::RefuseIfCrashed(const char* action,
                                     Status (*make)(std::string)) const {
  if (!crashed_) return Status::OK();
  return make(std::string("machine crashed: run Recover() before ") + action);
}

Status GammaMachine::CheckWrite(const char* kind, const std::string& what,
                                const std::vector<int>& homes,
                                uint64_t external_txn,
                                const char* role) const {
  // Writes always go to the primary copy; no failover for updates.
  for (int node : homes) {
    if (faults_->IsDead(node)) {
      return Status::Unavailable(what + ": " + role + " site " +
                                 std::to_string(node) + " is down");
    }
  }
  if (external_txn != 0 && !txns_.IsActive(external_txn)) {
    return Status::FailedPrecondition(std::string(kind) +
                                      " under unknown transaction " +
                                      std::to_string(external_txn));
  }
  return Status::OK();
}

Result<bool> GammaMachine::MirrorsTo(const RelationMeta& meta,
                                     int home) const {
  if (!meta.backed_up) return false;
  const int host = (home + 1) % config_.num_disk_nodes;
  if (!faults_->IsDead(host)) return true;
  // Without the recovery server a dead backup host blocks the write (the
  // mirror would silently diverge). With it the write proceeds and its
  // record carries mirrored=false; reintegration replays it into the stale
  // backup when the host returns.
  if (!config_.enable_logging) {
    return Status::Unavailable("backup site " + std::to_string(host) +
                               " of fragment " + std::to_string(home) +
                               " of " + meta.name + " is down");
  }
  return false;
}

Result<std::optional<Rid>> GammaMachine::FindByContent(
    storage::StorageManager& sm, storage::HeapFile& file,
    std::span<const uint8_t> bytes) const {
  // A page at a time: the tuples a page examined are charged in one
  // CpuTimes call (the same sequential additions as one charge per tuple)
  // before the next pin, and the walk stops at the first match.
  std::optional<Rid> found;
  GAMMA_RETURN_NOT_OK(file.VisitPages(
      [&](uint32_t page_index, const storage::SlottedPage& page) {
        uint64_t examined = 0;
        for (uint16_t slot = 0; slot < page.slot_count(); ++slot) {
          const std::span<const uint8_t> t = page.Get(slot);
          if (t.empty()) continue;
          ++examined;
          if (t.size() == bytes.size() &&
              std::memcmp(t.data(), bytes.data(), t.size()) == 0) {
            found = Rid{page_index, slot};
            break;
          }
        }
        sm.charge().CpuTimes(config_.hw.cost.instr_per_tuple_scan, examined);
        return !found.has_value();
      }));
  return found;
}

GammaMachine::WriteStatement::WriteStatement(GammaMachine* machine,
                                             RelationMeta* meta,
                                             uint64_t external_txn)
    : Statement(machine, meta->name, external_txn),
      m_(*machine),
      meta_(*meta) {}

Status GammaMachine::WriteStatement::Open(const char* phase,
                                          size_t operators) {
  // The host submits to the scheduler, which initiates the update
  // operators at the participating sites.
  tracker().ChargeControlMessage(m_.config_.host_node(),
                                 m_.config_.scheduler_node(),
                                 /*blocking=*/true);
  tracker().ChargeScheduling(1, static_cast<uint32_t>(operators));
  tracker().BeginPhase(phase, sim::PhaseKind::kSequential);
  // 2PL footprint: IX on the relation, then IX (or X) on each written
  // fragment and X on each written page.
  rel_ = m_.txns_.RelationId(meta_.name);
  return m_.AcquireTxnLock(&tracker(), txn(), m_.config_.scheduler_node(),
                           txn::LockId::Relation(rel_), txn::LockMode::kIX);
}

Status GammaMachine::WriteStatement::LockFragment(int node,
                                                  txn::LockMode mode) {
  const txn::LockId fl =
      txn::LockId::Fragment(rel_, static_cast<uint32_t>(node));
  return m_.AcquireTxnLock(&tracker(), txn(), m_.txns_.TableFor(fl), fl,
                           mode);
}

Result<std::vector<Rid>> GammaMachine::WriteStatement::Locate(
    int node, const Predicate& pred, const IndexMeta* index) {
  storage::StorageManager& sm = *m_.nodes_[static_cast<size_t>(node)];
  std::vector<Rid> rids;
  if (index != nullptr) {
    GAMMA_ASSIGN_OR_RETURN(
        rids, sm.index(index->per_node_index[static_cast<size_t>(node)])
                  .RangeLookup(pred.lo(), pred.hi()));
  } else {
    const auto& cost = m_.config_.hw.cost;
    GAMMA_RETURN_NOT_OK(
        sm.file(meta_.per_node_file[static_cast<size_t>(node)])
            .Scan([&](Rid rid, std::span<const uint8_t> tuple) {
              sm.charge().Cpu(cost.instr_per_tuple_scan +
                              cost.instr_per_attr_compare);
              if (pred.Eval(tuple, meta_.schema)) rids.push_back(rid);
              return true;
            }));
  }
  GAMMA_RETURN_NOT_OK(LockFragment(node, txn::LockMode::kIX));
  return rids;
}

Result<std::vector<uint8_t>> GammaMachine::WriteStatement::FetchForUpdate(
    int node, Rid rid) {
  storage::StorageManager& sm = *m_.nodes_[static_cast<size_t>(node)];
  GAMMA_ASSIGN_OR_RETURN(
      std::vector<uint8_t> tuple,
      sm.file(meta_.per_node_file[static_cast<size_t>(node)])
          .Fetch(rid, AccessIntent::kRandom));
  sm.charge().Cpu(m_.config_.hw.cost.instr_per_lock);
  const txn::LockId pl =
      txn::LockId::Page(rel_, static_cast<uint32_t>(node), rid.page_index);
  GAMMA_RETURN_NOT_OK(m_.AcquireTxnLock(&tracker(), txn(),
                                        m_.txns_.TableFor(pl), pl,
                                        txn::LockMode::kX));
  return tuple;
}

Status GammaMachine::WriteStatement::RemoveAtHome(
    int node, Rid rid, std::span<const uint8_t> tuple,
    DeferredUpdateFile* deferred) {
  storage::StorageManager& sm = *m_.nodes_[static_cast<size_t>(node)];
  GAMMA_RETURN_NOT_OK(
      sm.file(meta_.per_node_file[static_cast<size_t>(node)]).Delete(rid));
  for (const IndexMeta& idx : meta_.indices) {
    deferred->LogDelete(
        &sm.index(idx.per_node_index[static_cast<size_t>(node)]),
        IntAttr(meta_.schema, tuple, idx.attr), rid);
  }
  return Status::OK();
}

Result<Rid> GammaMachine::WriteStatement::InsertAtHome(
    int home, std::span<const uint8_t> tuple,
    const std::function<void()>& undo) {
  storage::StorageManager& sm = *m_.nodes_[static_cast<size_t>(home)];
  storage::HeapFile& fragment =
      sm.file(meta_.per_node_file[static_cast<size_t>(home)]);
  sm.charge().Cpu(m_.config_.hw.cost.instr_per_tuple_store);
  GAMMA_ASSIGN_OR_RETURN(const Rid rid, fragment.Append(tuple));
  // Atomicity: a failure past the append takes the tuple back out (another
  // open transaction holding the page, or the index maintenance failing).
  const auto take_back = [&](Status st) {
    fragment.Delete(rid);
    if (undo) undo();
    return st;
  };
  const txn::LockId pl =
      txn::LockId::Page(rel_, static_cast<uint32_t>(home), rid.page_index);
  if (Status st = m_.AcquireTxnLock(&tracker(), txn(), m_.txns_.TableFor(pl),
                                    pl, txn::LockMode::kX);
      !st.ok()) {
    return take_back(st);
  }
  DeferredUpdateFile deferred(&sm.charge(), m_.config_.page_size);
  for (const IndexMeta& idx : meta_.indices) {
    deferred.LogInsert(
        &sm.index(idx.per_node_index[static_cast<size_t>(home)]),
        IntAttr(meta_.schema, tuple, idx.attr), rid);
  }
  if (Status st = deferred.Commit(); !st.ok()) return take_back(st);
  return rid;
}

Result<Rid> GammaMachine::WriteStatement::MirrorInsert(
    int home, std::span<const uint8_t> tuple, bool charge_lock) {
  const int host = (home + 1) % m_.config_.num_disk_nodes;
  storage::StorageManager& bsm = *m_.nodes_[static_cast<size_t>(host)];
  tracker().ChargeDataPacket(home, host, tuple.size());
  if (charge_lock) bsm.charge().Cpu(m_.config_.hw.cost.instr_per_lock);
  bsm.charge().Cpu(m_.config_.hw.cost.instr_per_tuple_store);
  return bsm.file(meta_.per_node_backup_file[static_cast<size_t>(home)])
      .Append(tuple);
}

Result<GammaMachine::Mirror> GammaMachine::WriteStatement::MirrorChange(
    int node, std::span<const uint8_t> before,
    std::span<const uint8_t> after) {
  GAMMA_ASSIGN_OR_RETURN(const bool mirror, m_.MirrorsTo(meta_, node));
  if (!mirror) return Mirror{};
  const int host = (node + 1) % m_.config_.num_disk_nodes;
  storage::StorageManager& sm = *m_.nodes_[static_cast<size_t>(host)];
  storage::HeapFile& backup =
      sm.file(meta_.per_node_backup_file[static_cast<size_t>(node)]);
  // Ship the pre-image over, then locate the copy by content. The primary's
  // page lock already covers the logical tuple.
  tracker().ChargeDataPacket(node, host, before.size());
  GAMMA_ASSIGN_OR_RETURN(const std::optional<Rid> match,
                         m_.FindByContent(sm, backup, before));
  if (!match.has_value()) {
    return Status::Corruption("backup of fragment " + std::to_string(node) +
                              " of " + meta_.name + " is missing a tuple");
  }
  GAMMA_RETURN_NOT_OK(after.empty() ? backup.Delete(*match)
                                    : backup.Update(*match, after));
  return Mirror{true, *match};
}

void GammaMachine::WriteStatement::Log(WalKind kind, int node, Rid rid,
                                       std::span<const uint8_t> before,
                                       std::span<const uint8_t> after,
                                       const Mirror& mirror) {
  const bool partition = kind == WalKind::kPartition;
  WalRecord header;
  header.txn = wal_txn();
  header.kind = kind;
  header.rel = wal_rel();
  header.fragment = partition ? -1 : node;
  header.rid = rid;
  header.backup_rid = mirror.backup_rid;
  header.mirrored = partition || mirror.mirrored;
  log().Log(node, std::move(header), before, after);
}

Result<uint64_t> GammaMachine::WriteStatement::RewriteMatches(
    const std::vector<int>& parts, const Predicate& pred,
    const IndexMeta* index, const std::string& what, const MatchBody& body) {
  const int scheduler = m_.config_.scheduler_node();
  uint64_t changed = 0;
  for (int node : parts) {
    GAMMA_ASSIGN_OR_RETURN(const std::vector<Rid> rids,
                           Locate(node, pred, index));
    DeferredUpdateFile deferred(
        &m_.nodes_[static_cast<size_t>(node)]->charge(), m_.config_.page_size);
    for (const Rid rid : rids) {
      GAMMA_ASSIGN_OR_RETURN(const std::vector<uint8_t> tuple,
                             FetchForUpdate(node, rid));
      GAMMA_RETURN_NOT_OK(body(node, rid, tuple, deferred));
      ++changed;
    }
    GAMMA_RETURN_NOT_OK(deferred.Commit());
    // The force follows the statement-wide count, not this node's.
    if (changed > 0) log().ForceTail(node);
    tracker().ChargeControlMessage(node, scheduler, /*blocking=*/true);
  }
  GAMMA_RETURN_NOT_OK(m_.FlushAllPools());
  if (changed > 0) GAMMA_RETURN_NOT_OK(CommitWrites(parts, what));
  tracker().ChargeControlMessage(scheduler, m_.config_.host_node(),
                                 /*blocking=*/true);
  tracker().EndPhase();
  return changed;
}

Result<QueryResult> GammaMachine::RunAppend(const AppendQuery& query,
                                            uint64_t external_txn) {
  GAMMA_RETURN_NOT_OK(RefuseIfCrashed("issuing queries"));
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
  const std::string what = "append to " + query.relation;
  GAMMA_RETURN_NOT_OK(
      CheckWrite("append", what, {target}, external_txn, "home"));
  GAMMA_ASSIGN_OR_RETURN(const bool mirror, MirrorsTo(*meta, target));

  WriteStatement stmt(this, meta, external_txn);
  GAMMA_RETURN_NOT_OK(stmt.Open("append", 1));
  GAMMA_RETURN_NOT_OK(stmt.LockFragment(target, txn::LockMode::kIX));
  storage::StorageManager& sm = *nodes_[static_cast<size_t>(target)];
  storage::HeapFile& fragment =
      sm.file(meta->per_node_file[static_cast<size_t>(target)]);
  // The tuple itself travels host -> home site.
  stmt.tracker().ChargeDataPacket(config_.host_node(), target,
                                  query.tuple.size());
  sm.charge().Cpu(config_.hw.cost.instr_per_lock);
  GAMMA_ASSIGN_OR_RETURN(const Rid rid,
                         stmt.InsertAtHome(target, query.tuple, nullptr));
  Mirror backup;
  if (mirror) {
    auto brid_or =
        stmt.MirrorInsert(target, query.tuple, /*charge_lock=*/true);
    if (!brid_or.ok()) {
      fragment.Delete(rid);
      return brid_or.status();
    }
    backup = Mirror{true, *brid_or};
  }
  // Write-ahead: the record and the force precede the page flushes below.
  stmt.Log(WalKind::kInsert, target, rid, {}, query.tuple, backup);
  stmt.log().ForceTail(target);
  // A failed flush leaves the append on the disks whose flush task
  // completed; the statement's undo takes it back out.
  GAMMA_RETURN_NOT_OK(FlushAllPools());
  GAMMA_RETURN_NOT_OK(stmt.CommitWrites({target}, what));
  stmt.tracker().ChargeControlMessage(target, config_.scheduler_node(), true);
  stmt.tracker().ChargeControlMessage(config_.scheduler_node(),
                                      config_.host_node(), true);
  stmt.tracker().EndPhase();

  meta->num_tuples += 1;
  stats_.OnAppend(query.relation, query.tuple);
  QueryResult result;
  result.result_tuples = 1;
  return FinalizeObs("append", stmt.Finish(std::move(result)));
}

Result<QueryResult> GammaMachine::RunDelete(const DeleteQuery& query,
                                            uint64_t external_txn) {
  GAMMA_RETURN_NOT_OK(RefuseIfCrashed("issuing queries"));
  GAMMA_ASSIGN_OR_RETURN(RelationMeta * meta, catalog_.Get(query.relation));
  if (query.key_attr < 0 ||
      static_cast<size_t>(query.key_attr) >= meta->schema.num_attrs()) {
    return Status::InvalidArgument("delete key attribute out of range");
  }
  const Predicate pred = Predicate::Eq(query.key_attr, query.key);
  const std::vector<int> parts = ParticipatingNodes(*meta, pred);
  const std::string what = "delete from " + query.relation;
  GAMMA_RETURN_NOT_OK(CheckWrite("delete", what, parts, external_txn));

  WriteStatement stmt(this, meta, external_txn);
  GAMMA_RETURN_NOT_OK(stmt.Open("delete", parts.size()));
  GAMMA_ASSIGN_OR_RETURN(
      const uint64_t deleted,
      stmt.RewriteMatches(
          parts, pred, meta->FindIndex(query.key_attr), what,
          [&](int node, Rid rid, const std::vector<uint8_t>& tuple,
              DeferredUpdateFile& deferred) -> Status {
            GAMMA_RETURN_NOT_OK(
                stmt.RemoveAtHome(node, rid, tuple, &deferred));
            GAMMA_ASSIGN_OR_RETURN(const Mirror mirror,
                                   stmt.MirrorChange(node, tuple, {}));
            stmt.Log(WalKind::kDelete, node, rid, tuple, {}, mirror);
            return Status::OK();
          }));

  meta->num_tuples -= deleted;
  QueryResult result;
  result.result_tuples = deleted;
  return FinalizeObs("delete", stmt.Finish(std::move(result)));
}

Status GammaMachine::Relocate(WriteStatement& stmt, int node, Rid rid,
                              const std::vector<uint8_t>& old_tuple,
                              const std::vector<uint8_t>& new_tuple,
                              const std::string& what) {
  // The partitioning attribute changed: delete here, re-insert at the new
  // home site, and maintain every index at both ends through the
  // deferred-update files (Halloween-safe, §7). The scheduler must initiate
  // a second operator at the new home and run the commit protocol across
  // both sites.
  RelationMeta& meta = stmt.meta();
  sim::CostTracker& tracker = stmt.tracker();
  storage::StorageManager& sm = *nodes_[static_cast<size_t>(node)];
  tracker.ChargeScheduling(1, 1);
  tracker.ChargeControlMessage(config_.scheduler_node(), node, true);
  tracker.ChargeControlMessage(node, config_.scheduler_node(), true);
  DeferredUpdateFile deferred_old(&sm.charge(), config_.page_size);
  GAMMA_RETURN_NOT_OK(stmt.RemoveAtHome(node, rid, old_tuple, &deferred_old));
  GAMMA_RETURN_NOT_OK(deferred_old.Commit());

  catalog::Partitioner partitioner(&meta.partitioning, &meta.schema,
                                   config_.num_disk_nodes);
  const int new_home = partitioner.NodeFor(new_tuple);
  if (faults_->IsDead(new_home)) {
    return Status::Unavailable(what + ": relocation target site " +
                               std::to_string(new_home) + " is down");
  }
  if (new_home != node) {
    tracker.ChargeDataPacket(node, new_home, new_tuple.size());
  }
  // Unlike append, the lock-path CPU precedes the fragment lock here.
  nodes_[static_cast<size_t>(new_home)]->charge().Cpu(
      config_.hw.cost.instr_per_lock);
  GAMMA_RETURN_NOT_OK(stmt.LockFragment(new_home, txn::LockMode::kIX));
  storage::HeapFile& fragment =
      sm.file(meta.per_node_file[static_cast<size_t>(node)]);
  // A failed store puts the tuple back where it was (the abort discards
  // the index edits).
  GAMMA_ASSIGN_OR_RETURN(
      const Rid new_rid,
      stmt.InsertAtHome(new_home, new_tuple,
                        [&] { fragment.Restore(rid, old_tuple); }));

  // The backup copy moves with the tuple: out of this fragment's chain,
  // into the new home fragment's chain. The new-side mirror charges no
  // lock-path CPU (DESIGN.md "Write path").
  GAMMA_ASSIGN_OR_RETURN(const Mirror old_mirror,
                         stmt.MirrorChange(node, old_tuple, {}));
  GAMMA_ASSIGN_OR_RETURN(const bool mirror_new, MirrorsTo(meta, new_home));
  Mirror new_mirror;
  if (mirror_new) {
    GAMMA_ASSIGN_OR_RETURN(
        new_mirror.backup_rid,
        stmt.MirrorInsert(new_home, new_tuple, /*charge_lock=*/false));
    new_mirror.mirrored = true;
  }
  // A relocation is logically delete-here + insert-there; two records keep
  // undo and reintegration site-local.
  stmt.Log(WalKind::kDelete, node, rid, old_tuple, {}, old_mirror);
  stmt.Log(WalKind::kInsert, new_home, new_rid, {}, new_tuple, new_mirror);
  return Status::OK();
}

Status GammaMachine::ModifyInPlace(WriteStatement& stmt, int node, Rid rid,
                                   const std::vector<uint8_t>& old_tuple,
                                   const std::vector<uint8_t>& new_tuple,
                                   int target_attr) {
  const RelationMeta& meta = stmt.meta();
  storage::StorageManager& sm = *nodes_[static_cast<size_t>(node)];
  GAMMA_RETURN_NOT_OK(sm.file(meta.per_node_file[static_cast<size_t>(node)])
                          .Update(rid, new_tuple));
  // Pre-image record for the statement, forced at commit (Gamma's partial
  // recovery covers in-place modifies too).
  sm.charge().DiskWrite(config_.page_size, AccessIntent::kRandom);
  DeferredUpdateFile deferred(&sm.charge(), config_.page_size);
  for (const IndexMeta& idx : meta.indices) {
    if (idx.attr != target_attr) continue;
    storage::BTree& tree =
        sm.index(idx.per_node_index[static_cast<size_t>(node)]);
    deferred.LogDelete(&tree, IntAttr(meta.schema, old_tuple, idx.attr), rid);
    deferred.LogInsert(&tree, IntAttr(meta.schema, new_tuple, idx.attr), rid);
  }
  GAMMA_RETURN_NOT_OK(deferred.Commit());
  GAMMA_ASSIGN_OR_RETURN(const Mirror mirror,
                         stmt.MirrorChange(node, old_tuple, new_tuple));
  stmt.Log(WalKind::kModify, node, rid, old_tuple, new_tuple, mirror);
  return Status::OK();
}

Result<QueryResult> GammaMachine::RunModify(const ModifyQuery& query,
                                            uint64_t external_txn) {
  GAMMA_RETURN_NOT_OK(RefuseIfCrashed("issuing queries"));
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
  const std::string what = "modify of " + query.relation;
  GAMMA_RETURN_NOT_OK(CheckWrite("modify", what, parts, external_txn));
  const bool relocates =
      meta->partitioning.strategy != PartitionStrategy::kRoundRobin &&
      meta->partitioning.key_attr == query.target_attr;
  const size_t target_offset =
      meta->schema.offset(static_cast<size_t>(query.target_attr));

  WriteStatement stmt(this, meta, external_txn);
  GAMMA_RETURN_NOT_OK(stmt.Open("modify", parts.size()));
  GAMMA_ASSIGN_OR_RETURN(
      const uint64_t modified,
      stmt.RewriteMatches(
          parts, pred, meta->FindIndex(query.locate_attr), what,
          [&](int node, Rid rid, const std::vector<uint8_t>& old_tuple,
              DeferredUpdateFile&) -> Status {
            std::vector<uint8_t> new_tuple = old_tuple;
            std::memcpy(new_tuple.data() + target_offset, &query.new_value,
                        sizeof(query.new_value));
            return relocates ? Relocate(stmt, node, rid, old_tuple,
                                        new_tuple, what)
                             : ModifyInPlace(stmt, node, rid, old_tuple,
                                             new_tuple, query.target_attr);
          }));

  if (modified > 0) {
    stats_.OnModify(query.relation, query.target_attr, query.new_value);
  }
  QueryResult result;
  result.result_tuples = modified;
  return FinalizeObs("modify", stmt.Finish(std::move(result)));
}

Result<std::vector<std::vector<uint8_t>>> GammaMachine::ReadRelation(
    const std::string& name) {
  GAMMA_ASSIGN_OR_RETURN(const opt::FragmentFiles files,
                         StoredFragments(name));
  std::vector<std::vector<uint8_t>> out;
  for (const storage::HeapFile* file : files) {
    GAMMA_RETURN_NOT_OK(file->Scan([&](Rid, std::span<const uint8_t> tuple) {
      out.emplace_back(tuple.begin(), tuple.end());
      return true;
    }));
  }
  return out;
}

Status GammaMachine::RecomputeStatistics(const std::string& name) {
  GAMMA_ASSIGN_OR_RETURN(RelationMeta * meta, catalog_.Get(name));
  GAMMA_ASSIGN_OR_RETURN(const opt::FragmentFiles files,
                         StoredFragments(name));
  // One sweep over ReadRelation's pages in ReadRelation's order (the same
  // pins), counting the live slots.
  uint64_t live = 0;
  for (const storage::HeapFile* file : files) {
    GAMMA_RETURN_NOT_OK(
        file->VisitPages([&](uint32_t, const storage::SlottedPage& page) {
          live += page.live_count();
          return true;
        }));
  }
  // Only a complete sweep replaces the count and drops the folded
  // statistics; each attribute refolds on its next read.
  meta->num_tuples = live;
  stats_.Reset(name, meta->schema);
  return Status::OK();
}

Result<opt::FragmentFiles> GammaMachine::StoredFragments(
    const std::string& name) const {
  GAMMA_ASSIGN_OR_RETURN(const RelationMeta* meta, catalog_.Get(name));
  opt::FragmentFiles files;
  for (int f = 0; f < config_.num_disk_nodes; ++f) {
    // kNoFile: a result relation created while this node was dead holds no
    // fragment here at all (nothing was ever routed to it).
    if (meta->per_node_file[static_cast<size_t>(f)] == catalog::kNoFile) {
      continue;
    }
    GAMMA_ASSIGN_OR_RETURN(const FragmentCopy copy, ServingCopy(*meta, f));
    files.push_back(&nodes_[static_cast<size_t>(copy.node)]->file(copy.file));
  }
  return files;
}

Result<uint64_t> GammaMachine::CountTuples(const std::string& name) {
  GAMMA_ASSIGN_OR_RETURN(const opt::FragmentFiles files,
                         StoredFragments(name));
  uint64_t count = 0;
  for (const storage::HeapFile* file : files) {
    count += file->num_tuples();
  }
  return count;
}

}  // namespace gammadb::gamma
