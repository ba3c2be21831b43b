// Crash, restart recovery and failed-node reintegration for GammaMachine.
//
// The replayable log (gamma/wal.h) carries logical tuple images, so every
// pass here is test-and-apply: a record is re-applied (redo) or reversed
// (undo) only when the serving copy does not already show its effect. That
// makes the passes idempotent — safe to run after a whole-machine crash,
// after a single node death, and again after both.
//
// Redo, undo and reintegration's catch-up share one replay step,
// ApplyTransition: the image transition from → to on one fragment copy.
// Undo is redo with the images swapped; the modes differ only in how they
// locate images (kLocateRules, DESIGN.md §12).
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

/// Moves `rid`'s entries in a primary's indexes on `node` from image `from`
/// to image `to` (an empty image has no entry): every index whose key
/// differs drops the `from` entry and gains the `to` entry. A backup
/// (`meta` null) has no indexes.
Status MoveIndexEntries(storage::StorageManager& sm, const RelationMeta* meta,
                        int node, std::span<const uint8_t> from,
                        std::span<const uint8_t> to, Rid rid) {
  if (meta == nullptr) return Status::OK();
  const auto key = [&](std::span<const uint8_t> image,
                       int attr) -> std::optional<int32_t> {
    if (image.empty()) return std::nullopt;
    return IntAttr(meta->schema, image, attr);
  };
  for (const IndexMeta& idx : meta->indices) {
    const std::optional<int32_t> from_key = key(from, idx.attr);
    const std::optional<int32_t> to_key = key(to, idx.attr);
    if (from_key == to_key) continue;
    storage::BTree& tree =
        sm.index(idx.per_node_index[static_cast<size_t>(node)]);
    if (from_key.has_value()) {
      GAMMA_RETURN_NOT_OK(RemoveIndexEntry(tree, *from_key, rid));
    }
    if (to_key.has_value()) {
      GAMMA_RETURN_NOT_OK(EnsureIndexEntry(tree, *to_key, rid));
    }
  }
  return Status::OK();
}

/// The rid a record's backup copy landed at; unset when the write never
/// reached the backup.
std::optional<Rid> BackupHint(const WalRecord& record) {
  if (!record.mirrored) return std::nullopt;
  return record.backup_rid;
}

/// How a replay step locates images on a fragment copy (DESIGN.md §12,
/// "The replay step"). The modes differ only where the simulated clock sees
/// it: a hint probe charges a page pin, a content scan charges every tuple
/// it visits.
struct LocateRules {
  /// Making an image present: probe the hint first and restore at the hint
  /// only if the probe found a dead slot. Without: scan, then try to restore
  /// at the hint, then append.
  bool probe_to_make_present;
  /// Making an image absent: a dead hint slot means it is already gone.
  /// Without: scan anyway.
  bool dead_hint_is_absent;
  /// Changing an image: scan for the source image before the target.
  bool source_first;
};

/// Indexed by GammaMachine::Replay. Catch-up is redo without a hint, except
/// that it scans for the source image first.
constexpr LocateRules kLocateRules[] = {
    /*kRedo=*/{.probe_to_make_present = true,
               .dead_hint_is_absent = true,
               .source_first = false},
    /*kUndo=*/{.probe_to_make_present = false,
               .dead_hint_is_absent = false,
               .source_first = false},
    /*kCatchUp=*/{.probe_to_make_present = true,
                  .dead_hint_is_absent = true,
                  .source_first = true},
};

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
  crashed_ = true;
}

Result<uint64_t> GammaMachine::Checkpoint() {
  if (!config_.enable_logging) {
    return Status::FailedPrecondition(
        "checkpointing requires enable_logging");
  }
  return wal_.Checkpoint();
}

void GammaMachine::MaybeAutoCheckpoint(RecoveryLog* log, int src_node) {
  if (!config_.enable_logging) {
    // Nothing replays or reintegrates committed records: keep only the
    // open transactions', with no checkpoint records and no charge.
    wal_.Truncate(/*keep_unmirrored=*/false);
    return;
  }
  if (config_.checkpoint_every_commits == 0 ||
      wal_.commits_since_checkpoint() < config_.checkpoint_every_commits) {
    return;
  }
  wal_.Checkpoint();
  if (log != nullptr) log->ChargeCheckpoint(src_node);
}

struct GammaMachine::ReplayCopy {
  storage::StorageManager& sm;
  storage::HeapFile& file;
  /// The record's rid on this copy, if it has one (unset for a write that
  /// never reached the backup). A rebuild renumbers rids, so it is a hint.
  std::optional<Rid> hint;
  /// The primary's relation, whose indexes on `node` follow the tuple; null
  /// for a backup, which has no indexes.
  const RelationMeta* indexed = nullptr;
  int node = -1;
};

struct GammaMachine::Landing {
  /// The slot that holds `to` (or held `from`, for a removal); unset when
  /// neither image was found.
  std::optional<Rid> at;
  bool changed = false;
};

Result<GammaMachine::Landing> GammaMachine::ApplyTransition(
    const ReplayCopy& copy, Replay mode, std::span<const uint8_t> from,
    std::span<const uint8_t> to) {
  const LocateRules& rules = kLocateRules[static_cast<size_t>(mode)];
  storage::HeapFile& file = copy.file;
  const auto find = [&](std::span<const uint8_t> image) {
    return FindByContent(copy.sm, file, image);
  };
  const auto reindex = [&](Rid rid) {
    return MoveIndexEntries(copy.sm, copy.indexed, copy.node, from, to, rid);
  };
  std::optional<Result<std::vector<uint8_t>>> probe;
  if (copy.hint.has_value() && (!from.empty() || rules.probe_to_make_present)) {
    probe.emplace(file.Fetch(*copy.hint, AccessIntent::kRandom));
  }
  const bool dead_hint = probe.has_value() && !probe->ok();

  if (from.empty()) {  // make `to` present
    if (probe.has_value() && Holds(*probe, to)) return Landing{copy.hint};
    GAMMA_ASSIGN_OR_RETURN(const std::optional<Rid> found, find(to));
    if (found.has_value()) return Landing{found};
    Rid at;
    if (copy.hint.has_value() && (!probe.has_value() || dead_hint) &&
        file.Restore(*copy.hint, to).ok()) {
      at = *copy.hint;
    } else {
      GAMMA_ASSIGN_OR_RETURN(at, file.Append(to));
    }
    GAMMA_RETURN_NOT_OK(reindex(at));
    return Landing{at, true};
  }

  std::optional<Rid> stale;  // the slot holding `from`
  std::optional<Rid> done;   // the slot already holding `to`
  if (probe.has_value() && Holds(*probe, from)) {
    stale = copy.hint;
  } else if (to.empty()) {  // make `from` absent
    if (dead_hint && rules.dead_hint_is_absent) return Landing{};
    GAMMA_ASSIGN_OR_RETURN(stale, find(from));
  } else if (probe.has_value() && Holds(*probe, to)) {
    done = copy.hint;
  } else if (rules.source_first) {
    GAMMA_ASSIGN_OR_RETURN(stale, find(from));
    if (!stale.has_value()) {
      GAMMA_ASSIGN_OR_RETURN(done, find(to));
    }
  } else {
    GAMMA_ASSIGN_OR_RETURN(done, find(to));
    if (!done.has_value()) {
      GAMMA_ASSIGN_OR_RETURN(stale, find(from));
    }
  }
  if (!stale.has_value()) return Landing{done};
  if (to.empty()) {
    GAMMA_RETURN_NOT_OK(reindex(*stale));
    GAMMA_RETURN_NOT_OK(file.Delete(*stale));
  } else {
    GAMMA_RETURN_NOT_OK(file.Update(*stale, to));
    GAMMA_RETURN_NOT_OK(reindex(*stale));
  }
  return Landing{stale, true};
}

Status GammaMachine::ReplayRecord(const WalRecord& record, Replay direction,
                                  uint64_t* applied,
                                  std::set<std::string>* touched) {
  const std::string& name = wal_.RelationName(record.rel);
  auto meta_or = catalog_.Get(name);
  if (!meta_or.ok()) return Status::OK();  // relation dropped since
  RelationMeta* meta = *meta_or;
  const bool redo = direction == Replay::kRedo;
  const std::span<const uint8_t> from = redo ? record.before : record.after;
  const std::span<const uint8_t> to = redo ? record.after : record.before;
  bool changed = false;
  if (record.kind == WalKind::kPartition) {
    // A migration's catalog flip: redo shows the new placement (the crash
    // may have landed between the commit record and the flip), undo
    // restores the old one.
    changed = ApplyPartitionImage(meta, to);
  } else {
    const int node = record.fragment;
    if (node < 0 || node >= config_.num_disk_nodes) return Status::OK();
    const size_t frag = static_cast<size_t>(node);
    if (!faults_->IsDead(node) &&
        meta->per_node_file[frag] != catalog::kNoFile) {
      storage::StorageManager& sm = *nodes_[frag];
      GAMMA_ASSIGN_OR_RETURN(
          const Landing primary,
          ApplyTransition({sm, sm.file(meta->per_node_file[frag]), record.rid,
                           meta, node},
                          direction, from, to));
      changed = primary.changed;
    }
    const int host = (node + 1) % config_.num_disk_nodes;
    if (record.mirrored && meta->backed_up &&
        meta->per_node_backup_file[frag] != catalog::kNoFile &&
        !faults_->IsDead(host)) {
      storage::StorageManager& sm = *nodes_[static_cast<size_t>(host)];
      GAMMA_ASSIGN_OR_RETURN(
          const Landing backup,
          ApplyTransition({sm, sm.file(meta->per_node_backup_file[frag]),
                           BackupHint(record)},
                          direction, from, to));
      changed = changed || backup.changed;
    }
  }
  if (changed) {
    ++*applied;
    touched->insert(name);
  }
  return Status::OK();
}

void GammaMachine::UndoTransaction(uint64_t wal_txn, bool close) {
  if (wal_txn == 0) return;
  const std::deque<WalRecord>& log = wal_.records();
  bool logged = false;
  uint64_t undone = 0;
  std::set<std::string> touched;
  for (auto it = log.rbegin(); it != log.rend(); ++it) {
    if (it->txn != wal_txn || !IsData(it->kind)) continue;
    logged = true;
    // Best effort: an unreachable copy (dead node) is picked up by
    // Recover()/ReintegrateNode() later.
    (void)ReplayRecord(*it, Replay::kUndo, &undone, &touched);
  }
  if (!logged) return;
  if (close) wal_.NoteCleanAbort(wal_txn);
  // Best effort too: a relation with an unreachable fragment keeps its
  // count and statistics until the copy comes back.
  for (const std::string& name : touched) (void)RecomputeStatistics(name);
  // The undo ran uncharged; settle its pages off-budget so the next
  // measured query does not pay for them. An undo that changed nothing
  // dirtied nothing, so this only drops the pages it read.
  for (auto& node : nodes_) node->pool().Invalidate();
}

GammaMachine::MaintenanceScope::MaintenanceScope(GammaMachine* machine,
                                                 const char* phase)
    : machine_(machine),
      tracker_(machine->config_.hw, machine->config_.tracker_nodes()) {
  tracker_.AttachFaultInjector(machine_->faults_.get());
  machine_->BindAll(&tracker_);
  tracker_.BeginPhase(phase, sim::PhaseKind::kSequential);
}

GammaMachine::MaintenanceScope::~MaintenanceScope() {
  machine_->BindAll(nullptr);
}

Result<double> GammaMachine::MaintenanceScope::Finish() {
  GAMMA_RETURN_NOT_OK(machine_->FlushAllPools());
  tracker_.EndPhase();
  machine_->BindAll(nullptr);
  return tracker_.Finish().TotalSec();
}

bool GammaMachine::IsLoser(uint64_t wal_txn) const {
  // A transaction still active in the lock manager is live (Recover on an
  // un-crashed machine is a pure verification pass; a real crash cleared
  // the transaction table).
  return !wal_.IsCommitted(wal_txn) && !wal_.IsAborted(wal_txn) &&
         (IsStatementTxn(wal_txn) || !txns_.IsActive(wal_txn));
}

Result<GammaMachine::RecoveryReport> GammaMachine::Recover() {
  if (!config_.enable_logging) {
    return Status::FailedPrecondition("Recover requires enable_logging");
  }
  MaintenanceScope scope(this, "recovery");
  RecoveryReport report;

  // --- Analysis: one sequential sweep of the retained log classifies every
  // transaction as winner (sealed commit record), already-compensated
  // (clean abort) or loser.
  const std::deque<WalRecord>& log = wal_.records();
  std::set<uint64_t> winners;
  std::set<uint64_t> losers;
  for (const WalRecord& r : log) {
    ++report.log_records_scanned;
    report.log_bytes_replayed += r.bytes();
    if (!IsData(r.kind)) continue;
    if (wal_.IsCommitted(r.txn)) {
      winners.insert(r.txn);
    } else if (IsLoser(r.txn)) {
      losers.insert(r.txn);
    }
  }
  const uint64_t log_pages =
      (report.log_bytes_replayed + config_.page_size - 1) / config_.page_size;
  for (uint64_t p = 0; p < log_pages; ++p) {
    scope.tracker().ChargeDiskRead(config_.recovery_node(), config_.page_size,
                                   /*sequential=*/true);
  }

  // --- Redo (forward): committed effects missing from the serving copies.
  // Pages are forced at every commit point, so this normally verifies.
  std::set<std::string> touched;
  for (const WalRecord& r : log) {
    if (!IsData(r.kind) || !winners.contains(r.txn)) continue;
    GAMMA_RETURN_NOT_OK(
        ReplayRecord(r, Replay::kRedo, &report.records_redone, &touched));
  }

  // --- Undo (backward): reverse every loser record.
  for (auto it = log.rbegin(); it != log.rend(); ++it) {
    if (!IsData(it->kind) || !losers.contains(it->txn)) continue;
    GAMMA_RETURN_NOT_OK(
        ReplayRecord(*it, Replay::kUndo, &report.records_undone, &touched));
  }
  report.winners = winners.size();
  report.losers = losers.size();
  GAMMA_ASSIGN_OR_RETURN(report.recovery_sec, scope.Finish());

  // The reversals are on disk: close the losers in the log so a second
  // restart skips them. A failed restart leaves them for the next one.
  for (const uint64_t txn : losers) wal_.NoteCleanAbort(txn);
  for (const std::string& name : touched) (void)RecomputeStatistics(name);
  crashed_ = false;
  NoteRestart(&report);
  return report;
}

void GammaMachine::NoteRestart(RecoveryReport* report) {
  // Flight recorder: the restart occupies [now, now + recovery_sec) on the
  // simulated clock, and the pending post-mortem dump (captured at crash
  // time) rides out on the report.
  journal_.Emit(config_.recovery_node(),
                obs::JournalEventKind::kRecoverBegin);
  journal_.EmitAt(config_.recovery_node(),
                  journal_.now() + report->recovery_sec,
                  obs::JournalEventKind::kRecoverEnd,
                  static_cast<int64_t>(report->winners),
                  static_cast<int64_t>(report->losers));
  journal_.Advance(report->recovery_sec);
  report->post_mortem_json = std::move(post_mortem_);
  post_mortem_.clear();
  // Coordinator-serial path: histogram observation order is deterministic.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Instance();
  registry.counter("recovery.restarts").Inc();
  registry.counter("recovery.records_redone").Inc(report->records_redone);
  registry.counter("recovery.records_undone").Inc(report->records_undone);
  registry.counter("recovery.losers").Inc(report->losers);
  registry
      .histogram("recovery.seconds", {0.01, 0.1, 1.0, 10.0, 100.0, 1000.0})
      .Observe(report->recovery_sec);
}

Result<GammaMachine::RebuildReport> GammaMachine::ReintegrateNode(int node) {
  if (!config_.enable_logging) {
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

  MaintenanceScope scope(this, "reintegrate");
  faults_->ReviveNode(node);
  RebuildReport report;
  report.node = node;
  std::set<std::string> touched;
  std::vector<CatchUpStamp> stamps;
  Status status = UndoStrandedLosers(&report, &touched);
  if (status.ok()) {
    status = RebuildPrimaries(node, scope.tracker(), &report, &touched);
  }
  if (status.ok()) {
    status = CatchUpBackups(node, scope.tracker(), &report, &stamps);
  }
  Result<double> sec = status.ok() ? scope.Finish() : Result<double>(status);
  if (!sec.ok()) {
    // Put the node back down with the log unstamped, so a retry redoes
    // every step (each is test-and-apply).
    faults_->KillNode(node);
    return sec.status();
  }
  report.rebuild_sec = *sec;

  // Every step is on disk: stamp the caught-up records mirrored (the
  // checkpoint may now truncate them) and close the reversed losers.
  for (const auto& [record, backup_rid] : stamps) {
    record->mirrored = true;
    if (backup_rid.has_value()) record->backup_rid = *backup_rid;
  }
  CloseReachableLosers();
  for (const std::string& name : touched) (void)RecomputeStatistics(name);
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

Status GammaMachine::UndoStrandedLosers(RebuildReport* report,
                                        std::set<std::string>* touched) {
  // Statements that died at the node's commit point flushed their pages
  // before the death, and every undo so far skipped the unreachable node.
  // Test-and-apply makes the global sweep a no-op everywhere else.
  const std::deque<WalRecord>& log = wal_.records();
  for (auto it = log.rbegin(); it != log.rend(); ++it) {
    if (!IsData(it->kind) || wal_.IsCommitted(it->txn)) continue;
    GAMMA_RETURN_NOT_OK(
        ReplayRecord(*it, Replay::kUndo, &report->records_undone, touched));
  }
  return Status::OK();
}

Status GammaMachine::RebuildPrimaries(int node, sim::CostTracker& tracker,
                                      RebuildReport* report,
                                      std::set<std::string>* touched) {
  // The Gamma procedure: a replacement disk is filled from the surviving
  // copy. Mirrored writes land in primary order, so the copy reproduces the
  // fragment's logical order; a clustered fragment is re-sorted on its key
  // (order-exact provided no appends landed after the clustering).
  const int host = (node + 1) % config_.num_disk_nodes;
  for (const std::string& name : catalog_.Names()) {
    auto meta_or = catalog_.Get(name);
    if (!meta_or.ok()) continue;
    RelationMeta* meta = *meta_or;
    if (!meta->backed_up) continue;
    const uint32_t old_fid = meta->per_node_file[static_cast<size_t>(node)];
    const uint32_t bfid =
        meta->per_node_backup_file[static_cast<size_t>(node)];
    if (old_fid == catalog::kNoFile || bfid == catalog::kNoFile) continue;
    if (faults_->IsDead(host)) continue;  // no source; the old copy stands

    // Ship the surviving copy host -> rebuilt node, then write it as the
    // fragment through the one fragment build.
    std::vector<uint8_t> tuples;
    GAMMA_RETURN_NOT_OK(CopyFile(host, bfid, &tuples));
    const size_t tuple_size = meta->schema.tuple_size();
    for (size_t at = 0; at < tuples.size(); at += tuple_size) {
      tracker.ChargeDataPacket(host, node, tuple_size);
      report->bytes_shipped += tuple_size;
      ++report->tuples_copied;
    }
    GAMMA_ASSIGN_OR_RETURN(
        const FragmentBuild build,
        BuildFragment(node, meta->schema, meta->indices, tuples));
    SwapInFragment(node, meta, build);
    ++report->fragments_rebuilt;
    touched->insert(name);
  }
  return Status::OK();
}

Status GammaMachine::CatchUpBackups(int node, sim::CostTracker& tracker,
                                    RebuildReport* report,
                                    std::vector<CatchUpStamp>* stamps) {
  // Replays the committed records that could not be mirrored while the node
  // was dead into its stale backup of its predecessor's fragment, noting
  // each record's landing rid for the stamp.
  const int pred =
      (node + config_.num_disk_nodes - 1) % config_.num_disk_nodes;
  storage::StorageManager& sm = *nodes_[static_cast<size_t>(node)];
  for (WalRecord& r : wal_.mutable_records()) {
    if (!IsData(r.kind) || r.mirrored || r.fragment != pred) continue;
    if (!wal_.IsCommitted(r.txn)) continue;
    auto meta_or = catalog_.Get(wal_.RelationName(r.rel));
    if (!meta_or.ok()) continue;
    const RelationMeta* meta = *meta_or;
    if (!meta->backed_up) continue;
    const uint32_t bfid =
        meta->per_node_backup_file[static_cast<size_t>(pred)];
    if (bfid == catalog::kNoFile) continue;
    // The recovery server ships the retained record to the rebuilt host.
    tracker.ChargeDiskRead(config_.recovery_node(), config_.page_size,
                           /*sequential=*/true);
    tracker.ChargeDataPacket(config_.recovery_node(), node,
                             r.before.size() + r.after.size());
    GAMMA_ASSIGN_OR_RETURN(
        const Landing landing,
        ApplyTransition({sm, sm.file(bfid), BackupHint(r)}, Replay::kCatchUp,
                        r.before, r.after));
    stamps->emplace_back(&r, landing.at);
    ++report->log_records_replayed;
  }
  return Status::OK();
}

void GammaMachine::CloseReachableLosers() {
  // A loser whose every copy is reachable has been fully reversed; close it
  // so restarts and checkpoints stop carrying it.
  if (static_cast<int>(LiveDiskNodes().size()) != config_.num_disk_nodes) {
    return;
  }
  for (const uint64_t txn : wal_.OpenTxns()) {
    if (IsLoser(txn)) wal_.NoteCleanAbort(txn);
  }
}

}  // namespace gammadb::gamma
