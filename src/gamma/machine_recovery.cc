// Crash, restart recovery and failed-node reintegration for GammaMachine.
//
// The replayable log (gamma/wal.h) carries logical tuple images, so every
// pass here is test-and-apply: a record is re-applied (redo) or reversed
// (undo) only when the serving copy does not already show its effect. That
// makes the passes idempotent — safe to run after a whole-machine crash,
// after a single node death, and again after both.
//
// The machine forces the log tail and every dirty page at each statement's
// commit point, so redo is normally pure verification; the substantive pass
// is undo, which reverses statements that died between the log force and
// the commit record (kCrashAtCommit) and explicit transactions that never
// reached CommitTxn.

#include <algorithm>
#include <cstring>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/macros.h"
#include "elastic/fragment_rebuild.h"
#include "gamma/machine.h"
#include "gamma/recovery_log.h"
#include "obs/metrics_registry.h"

namespace gammadb::gamma {

using catalog::IndexMeta;
using catalog::IntAttr;
using catalog::RelationMeta;
using storage::AccessIntent;
using storage::Rid;

namespace {

bool IsData(WalKind kind) {
  // kPartition counts: a migration's catalog flip is replayed (redo) or
  // rolled back (undo) exactly like its tuple moves.
  return kind == WalKind::kInsert || kind == WalKind::kDelete ||
         kind == WalKind::kModify || kind == WalKind::kPartition;
}

/// Applies a serialized PartitionSpec image to the catalog when it differs
/// from the current spec (test-and-apply, keyed on the serialized bytes).
/// Returns true when the catalog changed; a malformed image is skipped.
bool ApplyPartitionImage(RelationMeta* meta,
                         std::span<const uint8_t> image) {
  catalog::PartitionSpec spec;
  if (!catalog::PartitionSpec::Deserialize(image, &spec)) return false;
  if (meta->partitioning.Serialize() == std::vector<uint8_t>(image.begin(),
                                                             image.end())) {
    return false;
  }
  meta->partitioning = std::move(spec);
  return true;
}

/// True when the fetch succeeded and returned exactly `want`.
bool Holds(const Result<std::vector<uint8_t>>& cur,
           std::span<const uint8_t> want) {
  return cur.ok() && cur->size() == want.size() &&
         std::memcmp(cur->data(), want.data(), want.size()) == 0;
}

Status EnsureIndexEntry(storage::BTree& tree, int32_t key, Rid rid) {
  GAMMA_ASSIGN_OR_RETURN(const std::vector<Rid> rids,
                         tree.RangeLookup(key, key));
  for (const Rid& r : rids) {
    if (r == rid) return Status::OK();
  }
  return tree.Insert(key, rid);
}

Status RemoveIndexEntry(storage::BTree& tree, int32_t key, Rid rid) {
  return tree.Delete(key, rid).status();
}

}  // namespace

void GammaMachine::Crash() {
  // The flight recorder survives the crash (it models the post-mortem a
  // real operator would pull off stable storage); capture the dump before
  // any volatile state goes, so the evidence is exactly what the machine
  // saw at the moment of death.
  journal_.Emit(config_.recovery_node(), obs::JournalEventKind::kCrash);
  CapturePostMortem("crash");
  // Volatile state vanishes: buffered (dirty) pages, the 2PL lock tables,
  // open transactions. Disk contents and the recovery server's sealed log
  // survive.
  for (auto& node : nodes_) node->pool().Discard();
  txns_.CrashReset();
  if (wal_ != nullptr) wal_->DiscardStaged();
  crashed_ = true;
}

Result<uint64_t> GammaMachine::Checkpoint() {
  if (wal_ == nullptr) {
    return Status::FailedPrecondition(
        "checkpointing requires enable_logging");
  }
  return wal_->Checkpoint();
}

void GammaMachine::MaybeAutoCheckpoint(RecoveryLog* log, int src_node) {
  if (wal_ == nullptr || config_.checkpoint_every_commits == 0) return;
  if (wal_->commits_since_checkpoint() < config_.checkpoint_every_commits) {
    return;
  }
  wal_->Checkpoint();
  log->ChargeCheckpoint(src_node);
}

void GammaMachine::RecountRelation(const std::string& name) {
  auto meta_or = catalog_.Get(name);
  if (!meta_or.ok()) return;
  auto count_or = CountTuples(name);
  if (!count_or.ok()) return;
  (*meta_or)->num_tuples = *count_or;
  // Undo changed tuple contents too; refresh the planner statistics from
  // the surviving copies (best effort — a missing fragment keeps the old
  // statistics).
  (void)RecomputeStatistics(name);
}

Status GammaMachine::RedoRecord(const WalRecord& record, uint64_t* applied,
                                std::set<std::string>* touched) {
  const std::string& name = wal_->RelationName(record.rel);
  auto meta_or = catalog_.Get(name);
  if (!meta_or.ok()) return Status::OK();  // relation dropped since
  RelationMeta* meta = *meta_or;
  if (record.kind == WalKind::kPartition) {
    // Committed migration: make sure the catalog shows the new placement
    // (the crash may have landed between the commit record and the flip).
    if (ApplyPartitionImage(meta, record.after)) {
      ++*applied;
      if (touched != nullptr) touched->insert(name);
    }
    return Status::OK();
  }
  const int node = record.fragment;
  if (node < 0 || node >= config_.num_disk_nodes) return Status::OK();
  bool changed = false;

  if (!faults_->IsDead(node) &&
      meta->per_node_file[static_cast<size_t>(node)] != catalog::kNoFile) {
    storage::StorageManager& sm = *nodes_[static_cast<size_t>(node)];
    storage::HeapFile& file =
        sm.file(meta->per_node_file[static_cast<size_t>(node)]);
    switch (record.kind) {
      case WalKind::kInsert: {
        const auto cur = file.Fetch(record.rid, AccessIntent::kRandom);
        Rid at = record.rid;
        bool present = Holds(cur, record.after);
        if (!present) {
          GAMMA_ASSIGN_OR_RETURN(const std::optional<Rid> match,
                                 FindByContent(sm, file, record.after));
          if (match.has_value()) {
            present = true;
          } else {
            if (!cur.ok() && file.Restore(record.rid, record.after).ok()) {
              at = record.rid;
            } else {
              GAMMA_ASSIGN_OR_RETURN(at, file.Append(record.after));
            }
            changed = true;
          }
        }
        if (changed) {
          for (const IndexMeta& idx : meta->indices) {
            GAMMA_RETURN_NOT_OK(EnsureIndexEntry(
                sm.index(idx.per_node_index[static_cast<size_t>(node)]),
                IntAttr(meta->schema, record.after, idx.attr), at));
          }
        }
        break;
      }
      case WalKind::kDelete: {
        const auto cur = file.Fetch(record.rid, AccessIntent::kRandom);
        std::optional<Rid> victim;
        if (Holds(cur, record.before)) {
          victim = record.rid;
        } else if (cur.ok()) {
          // The slot holds something else (renumbered after a rebuild);
          // locate the image by value. A failed fetch is a tombstone: the
          // delete already happened, no scan needed.
          GAMMA_ASSIGN_OR_RETURN(
              victim, FindByContent(sm, file, record.before));
        }
        if (victim.has_value()) {
          for (const IndexMeta& idx : meta->indices) {
            GAMMA_RETURN_NOT_OK(RemoveIndexEntry(
                sm.index(idx.per_node_index[static_cast<size_t>(node)]),
                IntAttr(meta->schema, record.before, idx.attr), *victim));
          }
          GAMMA_RETURN_NOT_OK(file.Delete(*victim));
          changed = true;
        }
        break;
      }
      case WalKind::kModify: {
        const auto cur = file.Fetch(record.rid, AccessIntent::kRandom);
        std::optional<Rid> stale;
        if (Holds(cur, record.before)) {
          stale = record.rid;
        } else if (!Holds(cur, record.after)) {
          GAMMA_ASSIGN_OR_RETURN(const std::optional<Rid> done,
                                 FindByContent(sm, file, record.after));
          if (!done.has_value()) {
            GAMMA_ASSIGN_OR_RETURN(
                stale, FindByContent(sm, file, record.before));
          }
        }
        if (stale.has_value()) {
          GAMMA_RETURN_NOT_OK(file.Update(*stale, record.after));
          for (const IndexMeta& idx : meta->indices) {
            const int32_t before_key =
                IntAttr(meta->schema, record.before, idx.attr);
            const int32_t after_key =
                IntAttr(meta->schema, record.after, idx.attr);
            if (before_key == after_key) continue;
            storage::BTree& tree =
                sm.index(idx.per_node_index[static_cast<size_t>(node)]);
            GAMMA_RETURN_NOT_OK(RemoveIndexEntry(tree, before_key, *stale));
            GAMMA_RETURN_NOT_OK(EnsureIndexEntry(tree, after_key, *stale));
          }
          changed = true;
        }
        break;
      }
      default:
        break;
    }
  }

  if (record.mirrored && meta->backed_up &&
      meta->per_node_backup_file[static_cast<size_t>(node)] !=
          catalog::kNoFile) {
    const int host = (node + 1) % config_.num_disk_nodes;
    if (!faults_->IsDead(host)) {
      storage::StorageManager& sm = *nodes_[static_cast<size_t>(host)];
      storage::HeapFile& backup =
          sm.file(meta->per_node_backup_file[static_cast<size_t>(node)]);
      switch (record.kind) {
        case WalKind::kInsert: {
          const auto cur = backup.Fetch(record.backup_rid,
                                        AccessIntent::kRandom);
          if (!Holds(cur, record.after)) {
            GAMMA_ASSIGN_OR_RETURN(const std::optional<Rid> match,
                                   FindByContent(sm, backup, record.after));
            if (!match.has_value()) {
              if (cur.ok() ||
                  !backup.Restore(record.backup_rid, record.after).ok()) {
                GAMMA_RETURN_NOT_OK(backup.Append(record.after).status());
              }
              changed = true;
            }
          }
          break;
        }
        case WalKind::kDelete: {
          const auto cur = backup.Fetch(record.backup_rid,
                                        AccessIntent::kRandom);
          std::optional<Rid> victim;
          if (Holds(cur, record.before)) {
            victim = record.backup_rid;
          } else if (cur.ok()) {
            GAMMA_ASSIGN_OR_RETURN(
                victim, FindByContent(sm, backup, record.before));
          }
          if (victim.has_value()) {
            GAMMA_RETURN_NOT_OK(backup.Delete(*victim));
            changed = true;
          }
          break;
        }
        case WalKind::kModify: {
          const auto cur = backup.Fetch(record.backup_rid,
                                        AccessIntent::kRandom);
          std::optional<Rid> stale;
          if (Holds(cur, record.before)) {
            stale = record.backup_rid;
          } else if (!Holds(cur, record.after)) {
            GAMMA_ASSIGN_OR_RETURN(const std::optional<Rid> done,
                                   FindByContent(sm, backup, record.after));
            if (!done.has_value()) {
              GAMMA_ASSIGN_OR_RETURN(
                  stale, FindByContent(sm, backup, record.before));
            }
          }
          if (stale.has_value()) {
            GAMMA_RETURN_NOT_OK(backup.Update(*stale, record.after));
            changed = true;
          }
          break;
        }
        default:
          break;
      }
    }
  }

  if (changed) {
    ++*applied;
    if (touched != nullptr) touched->insert(name);
  }
  return Status::OK();
}

Status GammaMachine::UndoRecord(const WalRecord& record, uint64_t* undone,
                                std::set<std::string>* touched) {
  const std::string& name = wal_->RelationName(record.rel);
  auto meta_or = catalog_.Get(name);
  if (!meta_or.ok()) return Status::OK();
  RelationMeta* meta = *meta_or;
  if (record.kind == WalKind::kPartition) {
    // Loser migration: restore the old placement (a no-op when the crash
    // came before the flip was applied).
    if (ApplyPartitionImage(meta, record.before)) {
      ++*undone;
      if (touched != nullptr) touched->insert(name);
    }
    return Status::OK();
  }
  const int node = record.fragment;
  if (node < 0 || node >= config_.num_disk_nodes) return Status::OK();
  bool changed = false;

  if (!faults_->IsDead(node) &&
      meta->per_node_file[static_cast<size_t>(node)] != catalog::kNoFile) {
    storage::StorageManager& sm = *nodes_[static_cast<size_t>(node)];
    storage::HeapFile& file =
        sm.file(meta->per_node_file[static_cast<size_t>(node)]);
    switch (record.kind) {
      case WalKind::kInsert: {
        const auto cur = file.Fetch(record.rid, AccessIntent::kRandom);
        std::optional<Rid> victim;
        if (Holds(cur, record.after)) {
          victim = record.rid;
        } else {
          GAMMA_ASSIGN_OR_RETURN(
              victim, FindByContent(sm, file, record.after));
        }
        if (victim.has_value()) {
          for (const IndexMeta& idx : meta->indices) {
            GAMMA_RETURN_NOT_OK(RemoveIndexEntry(
                sm.index(idx.per_node_index[static_cast<size_t>(node)]),
                IntAttr(meta->schema, record.after, idx.attr), *victim));
          }
          GAMMA_RETURN_NOT_OK(file.Delete(*victim));
          changed = true;
        }
        break;
      }
      case WalKind::kDelete: {
        // Restore at the original rid keeps the fragment byte-identical to
        // one that never deleted (later appends land after the revived
        // slot, exactly as they would have).
        GAMMA_ASSIGN_OR_RETURN(const std::optional<Rid> present,
                               FindByContent(sm, file, record.before));
        if (!present.has_value()) {
          Rid at = record.rid;
          if (!file.Restore(record.rid, record.before).ok()) {
            GAMMA_ASSIGN_OR_RETURN(at, file.Append(record.before));
          }
          for (const IndexMeta& idx : meta->indices) {
            GAMMA_RETURN_NOT_OK(EnsureIndexEntry(
                sm.index(idx.per_node_index[static_cast<size_t>(node)]),
                IntAttr(meta->schema, record.before, idx.attr), at));
          }
          changed = true;
        }
        break;
      }
      case WalKind::kModify: {
        const auto cur = file.Fetch(record.rid, AccessIntent::kRandom);
        std::optional<Rid> stale;
        if (Holds(cur, record.after)) {
          stale = record.rid;
        } else if (!Holds(cur, record.before)) {
          GAMMA_ASSIGN_OR_RETURN(const std::optional<Rid> done,
                                 FindByContent(sm, file, record.before));
          if (!done.has_value()) {
            GAMMA_ASSIGN_OR_RETURN(
                stale, FindByContent(sm, file, record.after));
          }
        }
        if (stale.has_value()) {
          GAMMA_RETURN_NOT_OK(file.Update(*stale, record.before));
          for (const IndexMeta& idx : meta->indices) {
            const int32_t before_key =
                IntAttr(meta->schema, record.before, idx.attr);
            const int32_t after_key =
                IntAttr(meta->schema, record.after, idx.attr);
            if (before_key == after_key) continue;
            storage::BTree& tree =
                sm.index(idx.per_node_index[static_cast<size_t>(node)]);
            GAMMA_RETURN_NOT_OK(RemoveIndexEntry(tree, after_key, *stale));
            GAMMA_RETURN_NOT_OK(EnsureIndexEntry(tree, before_key, *stale));
          }
          changed = true;
        }
        break;
      }
      default:
        break;
    }
  }

  if (record.mirrored && meta->backed_up &&
      meta->per_node_backup_file[static_cast<size_t>(node)] !=
          catalog::kNoFile) {
    const int host = (node + 1) % config_.num_disk_nodes;
    if (!faults_->IsDead(host)) {
      storage::StorageManager& sm = *nodes_[static_cast<size_t>(host)];
      storage::HeapFile& backup =
          sm.file(meta->per_node_backup_file[static_cast<size_t>(node)]);
      switch (record.kind) {
        case WalKind::kInsert: {
          const auto cur = backup.Fetch(record.backup_rid,
                                        AccessIntent::kRandom);
          std::optional<Rid> victim;
          if (Holds(cur, record.after)) {
            victim = record.backup_rid;
          } else {
            GAMMA_ASSIGN_OR_RETURN(
                victim, FindByContent(sm, backup, record.after));
          }
          if (victim.has_value()) {
            GAMMA_RETURN_NOT_OK(backup.Delete(*victim));
            changed = true;
          }
          break;
        }
        case WalKind::kDelete: {
          GAMMA_ASSIGN_OR_RETURN(const std::optional<Rid> present,
                                 FindByContent(sm, backup, record.before));
          if (!present.has_value()) {
            if (!backup.Restore(record.backup_rid, record.before).ok()) {
              GAMMA_RETURN_NOT_OK(backup.Append(record.before).status());
            }
            changed = true;
          }
          break;
        }
        case WalKind::kModify: {
          const auto cur = backup.Fetch(record.backup_rid,
                                        AccessIntent::kRandom);
          std::optional<Rid> stale;
          if (Holds(cur, record.after)) {
            stale = record.backup_rid;
          } else if (!Holds(cur, record.before)) {
            GAMMA_ASSIGN_OR_RETURN(const std::optional<Rid> done,
                                   FindByContent(sm, backup, record.before));
            if (!done.has_value()) {
              GAMMA_ASSIGN_OR_RETURN(
                  stale, FindByContent(sm, backup, record.after));
            }
          }
          if (stale.has_value()) {
            GAMMA_RETURN_NOT_OK(backup.Update(*stale, record.before));
            changed = true;
          }
          break;
        }
        default:
          break;
      }
    }
  }

  if (changed) {
    ++*undone;
    if (touched != nullptr) touched->insert(name);
  }
  return Status::OK();
}

void GammaMachine::UndoTransaction(uint64_t wal_txn, bool close) {
  if (wal_ == nullptr || wal_txn == 0) return;
  const std::deque<WalRecord>& log = wal_->records();
  uint64_t undone = 0;
  for (auto it = log.rbegin(); it != log.rend(); ++it) {
    if (it->txn != wal_txn || !IsData(it->kind)) continue;
    // Best effort: an unreachable copy (dead node) is picked up by
    // Recover()/ReintegrateNode() later.
    (void)UndoRecord(*it, &undone, nullptr);
  }
  if (close) wal_->NoteCleanAbort(wal_txn);
}

Result<GammaMachine::RecoveryReport> GammaMachine::Recover() {
  if (wal_ == nullptr) {
    return Status::FailedPrecondition("Recover requires enable_logging");
  }
  sim::CostTracker tracker(config_.hw, config_.tracker_nodes());
  tracker.AttachFaultInjector(faults_.get());
  BindAll(&tracker);
  tracker.BeginPhase("recovery", sim::PhaseKind::kSequential);
  RecoveryReport report;

  // --- Analysis: one sequential sweep of the retained log classifies every
  // transaction as winner (sealed commit record), already-compensated
  // (clean abort) or loser.
  const std::deque<WalRecord>& log = wal_->records();
  std::set<uint64_t> winners;
  std::set<uint64_t> losers;
  for (const WalRecord& r : log) {
    ++report.log_records_scanned;
    report.log_bytes_replayed += r.bytes();
    if (!IsData(r.kind)) continue;
    if (wal_->IsCommitted(r.txn)) {
      winners.insert(r.txn);
    } else if (!wal_->IsAborted(r.txn)) {
      // A transaction still active in the lock manager is live, not a loser
      // (Recover on an un-crashed machine is a pure verification pass; a
      // real crash cleared the transaction table).
      const bool statement_txn = (r.txn >> 63) != 0;
      if (statement_txn || !txns_.IsActive(r.txn)) losers.insert(r.txn);
    }
  }
  const uint64_t log_pages =
      (report.log_bytes_replayed + config_.page_size - 1) / config_.page_size;
  for (uint64_t p = 0; p < log_pages; ++p) {
    tracker.ChargeDiskRead(config_.recovery_node(), config_.page_size,
                           /*sequential=*/true);
  }

  // --- Redo (forward): committed effects missing from the serving copies.
  // Pages are forced at every commit point, so this normally verifies.
  std::set<std::string> touched;
  for (const WalRecord& r : log) {
    if (!IsData(r.kind) || !winners.contains(r.txn)) continue;
    GAMMA_RETURN_NOT_OK(RedoRecord(r, &report.records_redone, &touched));
  }

  // --- Undo (backward): reverse every loser record, then close the losers
  // in the log so a second restart skips them.
  for (auto it = log.rbegin(); it != log.rend(); ++it) {
    if (!IsData(it->kind) || !losers.contains(it->txn)) continue;
    GAMMA_RETURN_NOT_OK(UndoRecord(*it, &report.records_undone, &touched));
  }
  for (const uint64_t txn : losers) wal_->NoteCleanAbort(txn);

  report.winners = winners.size();
  report.losers = losers.size();
  GAMMA_RETURN_NOT_OK(FlushAllPools());
  tracker.EndPhase();
  BindAll(nullptr);
  for (const std::string& name : touched) RecountRelation(name);
  crashed_ = false;
  report.recovery_sec = tracker.Finish().TotalSec();
  // Flight recorder: the restart occupies [now, now + recovery_sec) on the
  // simulated clock, and the pending post-mortem dump (captured at crash
  // time) rides out on the report.
  journal_.Emit(config_.recovery_node(),
                obs::JournalEventKind::kRecoverBegin);
  journal_.EmitAt(config_.recovery_node(),
                  journal_.now() + report.recovery_sec,
                  obs::JournalEventKind::kRecoverEnd,
                  static_cast<int64_t>(report.winners),
                  static_cast<int64_t>(report.losers));
  journal_.Advance(report.recovery_sec);
  report.post_mortem_json = std::move(post_mortem_);
  post_mortem_.clear();
  // Coordinator-serial path: histogram observation order is deterministic.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Instance();
  registry.counter("recovery.restarts").Inc();
  registry.counter("recovery.records_redone").Inc(report.records_redone);
  registry.counter("recovery.records_undone").Inc(report.records_undone);
  registry.counter("recovery.losers").Inc(report.losers);
  registry
      .histogram("recovery.seconds", {0.01, 0.1, 1.0, 10.0, 100.0, 1000.0})
      .Observe(report.recovery_sec);
  return report;
}

Result<GammaMachine::RebuildReport> GammaMachine::ReintegrateNode(int node) {
  if (wal_ == nullptr) {
    return Status::FailedPrecondition(
        "node reintegration requires enable_logging");
  }
  if (node < 0 || node >= config_.num_disk_nodes) {
    return Status::InvalidArgument("no such disk node");
  }
  GAMMA_RETURN_NOT_OK(
      RefuseIfCrashed("reintegrating a node", &Status::FailedPrecondition));
  if (!faults_->IsDead(node)) {
    return Status::FailedPrecondition("disk node " + std::to_string(node) +
                                      " is alive");
  }

  sim::CostTracker tracker(config_.hw, config_.tracker_nodes());
  tracker.AttachFaultInjector(faults_.get());
  faults_->ReviveNode(node);
  BindAll(&tracker);
  tracker.BeginPhase("reintegrate", sim::PhaseKind::kSequential);
  RebuildReport report;
  report.node = node;
  std::set<std::string> touched;

  // --- 1) Reverse non-committed effects stranded on the revived disk:
  // statements that died at this node's commit point flushed their pages
  // before the death, and every undo so far skipped the unreachable node.
  // Test-and-apply makes the global sweep a no-op everywhere else.
  {
    const std::deque<WalRecord>& log = wal_->records();
    for (auto it = log.rbegin(); it != log.rend(); ++it) {
      if (!IsData(it->kind) || wal_->IsCommitted(it->txn)) continue;
      GAMMA_RETURN_NOT_OK(
          UndoRecord(*it, &report.records_undone, &touched));
    }
  }

  // --- 2) Rebuild the node's primary fragments from their chained backups
  // (the Gamma procedure: a replacement disk is filled from the surviving
  // copy). Mirrored writes land in primary order, so the copy reproduces
  // the fragment's logical order; a clustered fragment is re-sorted on its
  // key (order-exact provided no appends landed after the clustering).
  for (const std::string& name : catalog_.Names()) {
    auto meta_or = catalog_.Get(name);
    if (!meta_or.ok()) continue;
    RelationMeta* meta = *meta_or;
    if (!meta->backed_up) continue;
    const uint32_t old_fid = meta->per_node_file[static_cast<size_t>(node)];
    const uint32_t bfid =
        meta->per_node_backup_file[static_cast<size_t>(node)];
    if (old_fid == catalog::kNoFile || bfid == catalog::kNoFile) continue;
    const int host = (node + 1) % config_.num_disk_nodes;
    if (faults_->IsDead(host)) continue;  // no source; the old copy stands

    storage::StorageManager& src = *nodes_[static_cast<size_t>(host)];
    storage::StorageManager& dst = *nodes_[static_cast<size_t>(node)];
    std::vector<std::vector<uint8_t>> tuples;
    GAMMA_RETURN_NOT_OK(
        src.file(bfid).Scan([&](Rid, std::span<const uint8_t> t) {
          src.charge().Cpu(config_.hw.cost.instr_per_tuple_scan);
          tuples.emplace_back(t.begin(), t.end());
          return true;
        }));
    // Ship the surviving copy host -> rebuilt node, then hand the stream to
    // the shared rebuilder (fresh heap file in clustered-key order,
    // BulkLoad'ed B-trees, catalog flip) — the one charged implementation,
    // shared with the elastic migrator.
    for (const std::vector<uint8_t>& tuple : tuples) {
      tracker.ChargeDataPacket(host, node, tuple.size());
      report.bytes_shipped += tuple.size();
      ++report.tuples_copied;
    }
    GAMMA_RETURN_NOT_OK(
        elastic::RebuildFragment(dst, node, meta, std::move(tuples),
                                 config_.hw)
            .status());
    ++report.fragments_rebuilt;
    touched.insert(name);
  }

  // --- 3) Catch the node's stale backup fragments up: replay the committed
  // records that could not be mirrored while the node was dead, stamping
  // each with its landing rid so the log regains the mirrored invariant
  // (and the checkpoint can truncate them).
  const int pred =
      (node + config_.num_disk_nodes - 1) % config_.num_disk_nodes;
  for (WalRecord& r : wal_->mutable_records()) {
    if (!IsData(r.kind) || r.mirrored || r.fragment != pred) continue;
    if (!wal_->IsCommitted(r.txn)) continue;
    const std::string& name = wal_->RelationName(r.rel);
    auto meta_or = catalog_.Get(name);
    if (!meta_or.ok()) continue;
    RelationMeta* meta = *meta_or;
    if (!meta->backed_up) continue;
    const uint32_t bfid =
        meta->per_node_backup_file[static_cast<size_t>(pred)];
    if (bfid == catalog::kNoFile) continue;
    storage::StorageManager& sm = *nodes_[static_cast<size_t>(node)];
    storage::HeapFile& backup = sm.file(bfid);
    // The recovery server ships the retained record to the rebuilt host.
    tracker.ChargeDiskRead(config_.recovery_node(), config_.page_size,
                           /*sequential=*/true);
    tracker.ChargeDataPacket(config_.recovery_node(), node,
                             r.before.size() + r.after.size());
    switch (r.kind) {
      case WalKind::kInsert: {
        GAMMA_ASSIGN_OR_RETURN(std::optional<Rid> at,
                               FindByContent(sm, backup, r.after));
        if (!at.has_value()) {
          GAMMA_ASSIGN_OR_RETURN(const Rid rid, backup.Append(r.after));
          at = rid;
        }
        r.backup_rid = *at;
        break;
      }
      case WalKind::kDelete: {
        GAMMA_ASSIGN_OR_RETURN(const std::optional<Rid> victim,
                               FindByContent(sm, backup, r.before));
        if (victim.has_value()) {
          GAMMA_RETURN_NOT_OK(backup.Delete(*victim));
          r.backup_rid = *victim;
        }
        break;
      }
      case WalKind::kModify: {
        GAMMA_ASSIGN_OR_RETURN(std::optional<Rid> at,
                               FindByContent(sm, backup, r.before));
        if (at.has_value()) {
          GAMMA_RETURN_NOT_OK(backup.Update(*at, r.after));
        } else {
          GAMMA_ASSIGN_OR_RETURN(
              at, FindByContent(sm, backup, r.after));
        }
        if (at.has_value()) r.backup_rid = *at;
        break;
      }
      default:
        break;
    }
    r.mirrored = true;
    ++report.log_records_replayed;
  }

  // A loser whose every copy is now reachable has been fully reversed;
  // close it so restarts and checkpoints stop carrying it.
  if (static_cast<int>(LiveDiskNodes().size()) == config_.num_disk_nodes) {
    for (const uint64_t txn : wal_->OpenTxns()) {
      const bool statement_txn = (txn >> 63) != 0;
      if (statement_txn || !txns_.IsActive(txn)) wal_->NoteCleanAbort(txn);
    }
  }

  GAMMA_RETURN_NOT_OK(FlushAllPools());
  tracker.EndPhase();
  BindAll(nullptr);
  for (const std::string& name : touched) RecountRelation(name);
  report.rebuild_sec = tracker.Finish().TotalSec();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Instance();
  registry.counter("recovery.reintegrations").Inc();
  registry.counter("recovery.fragments_rebuilt").Inc(report.fragments_rebuilt);
  registry.counter("recovery.tuples_copied").Inc(report.tuples_copied);
  registry
      .histogram("recovery.rebuild_seconds",
                 {0.01, 0.1, 1.0, 10.0, 100.0, 1000.0})
      .Observe(report.rebuild_sec);
  return report;
}

}  // namespace gammadb::gamma
