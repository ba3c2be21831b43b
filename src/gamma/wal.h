#ifndef GAMMA_GAMMA_WAL_H_
#define GAMMA_GAMMA_WAL_H_

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "obs/journal.h"
#include "storage/heap_file.h"

namespace gammadb::gamma {

/// Kind of one write-ahead-log record kept by the recovery server.
enum class WalKind : uint8_t {
  /// Tuple appended (store operator, append statement, relocation insert).
  kInsert,
  /// Tuple deleted; `before` is the pre-image.
  kDelete,
  /// Tuple rewritten in place; `before`/`after` are the two images.
  kModify,
  /// Transaction commit point (the force of this record makes it a winner).
  kCommit,
  /// Transaction rolled back cleanly by the machine (its effects were
  /// physically reversed before this record was written; recovery skips it).
  kAbort,
  /// Fuzzy checkpoint begin: carries the active-transaction table.
  kCheckpointBegin,
  /// Fuzzy checkpoint end: replay starts at the matching begin record.
  kCheckpointEnd,
  /// Catalog partition-spec flip of an elastic migration (`fragment` = -1;
  /// `before`/`after` are PartitionSpec::Serialize images). Redo of a winner
  /// completes the flip; undo of a loser restores the old placement — so a
  /// crash between the data moves and the flip recovers to either side of
  /// the migration, never in between.
  kPartition,
};

/// The WAL transaction id of an auto-commit statement: its counter with the
/// high bit set, so it never collides with a TxnManager id (explicit
/// transactions log under their own id).
inline constexpr uint64_t StatementTxn(uint64_t counter) {
  return (uint64_t{1} << 63) | counter;
}
inline constexpr bool IsStatementTxn(uint64_t wal_txn) {
  return (wal_txn >> 63) != 0;
}

/// One replayable log record. Payload images are logical tuple copies —
/// redo and undo are test-and-apply (idempotent) against the serving copy,
/// so records survive file rebuilds that renumber rids.
struct WalRecord {
  uint64_t lsn = 0;
  uint64_t txn = 0;
  WalKind kind = WalKind::kInsert;
  /// Interned relation id (WalStore::InternRelation).
  uint32_t rel = 0;
  /// Home fragment (primary node index) the record targets.
  int32_t fragment = -1;
  /// Rid on the primary at log time — a fast path for redo verification;
  /// content match is the fallback after a rebuild renumbers pages.
  storage::Rid rid;
  /// Rid of the mirrored copy in the chained backup file (valid only when
  /// `mirrored`); lets undo restore the backup byte-identically.
  storage::Rid backup_rid;
  /// Whether the effect also reached the fragment's chained backup. Unset
  /// when the backup host was down (reintegration replays these).
  bool mirrored = true;
  /// Pre-image (delete/modify) and post-image (insert/modify).
  std::vector<uint8_t> before;
  std::vector<uint8_t> after;

  /// Logged size: fixed header plus the tuple images.
  uint64_t bytes() const {
    return kHeaderBytes + before.size() + after.size();
  }
  static constexpr uint64_t kHeaderBytes = 32;
};

/// \brief The recovery server's durable log contents.
///
/// `RecoveryLog` (per statement) charges the simulated cost of shipping and
/// forcing log records; this machine-lifetime store keeps the records
/// themselves so every abort can be undone, a crashed machine restored and a
/// rebuilt node caught up. Every machine has one; with logging off nothing
/// is charged for it and every commit truncates it. Every data record
/// arrives through `RecoveryLog::Log` and every marker through NoteCommit,
/// NoteCleanAbort or Checkpoint, all on the coordinator thread and sealed at
/// once, so records seal in program order and LSNs are byte-identical for
/// any GAMMA_HOST_THREADS. Store operators only charge their records;
/// nothing replayable comes from a parallel task.
///
/// Stage/Seal are a per-node staging path for records produced inside
/// host-parallel tasks (stage under the one-task-per-node rule, seal in
/// canonical node order at a barrier). The machine never stages, so its
/// buffers stay empty; the path stays because perfbench measures its host
/// cost as the `gamma.wal.stage_seal_ns` layer.
class WalStore {
 public:
  explicit WalStore(int num_nodes);

  WalStore(const WalStore&) = delete;
  WalStore& operator=(const WalStore&) = delete;

  /// Wires the machine's flight recorder in: commit forces and checkpoints
  /// are journaled on `ring` (the recovery server's). Both happen on the
  /// coordinator path only. Null detaches.
  void AttachJournal(obs::Journal* journal, int ring) {
    journal_ = journal;
    journal_ring_ = ring;
  }

  /// Stable small id for a relation name (first use assigns).
  uint32_t InternRelation(const std::string& name);
  /// Name for an interned id ("" when unknown — never interned).
  const std::string& RelationName(uint32_t id) const;

  /// Stages one record from `src_node` (single writer per node while a
  /// parallel step runs). The LSN is assigned at Seal time.
  void Stage(int src_node, WalRecord record);

  /// Coordinator barrier: moves every staged record into the log in
  /// ascending node order, assigning LSNs.
  void Seal();

  /// Appends a record on the coordinator path, sealing immediately.
  /// Returns its LSN.
  uint64_t Append(WalRecord record);

  /// Transaction `txn` committed: append the kCommit record. Winners are
  /// exactly the transactions with a sealed commit record.
  void NoteCommit(uint64_t txn);

  /// Transaction `txn` was rolled back *cleanly* — the machine physically
  /// reversed (or never flushed) its effects. Its sealed records are marked
  /// compensated so recovery neither redoes nor undoes them, and an abort
  /// record closes the transaction in the log.
  void NoteCleanAbort(uint64_t txn);

  bool IsCommitted(uint64_t txn) const {
    return committed_.contains(txn);
  }

  bool IsAborted(uint64_t txn) const { return aborted_.contains(txn); }

  /// True when `txn` has at least one sealed insert/delete/modify record in
  /// the retained log.
  bool HasDataRecords(uint64_t txn) const;

  // --- Checkpointing ---

  /// Writes a fuzzy checkpoint (begin + end records snapshotting the
  /// transactions with sealed-but-uncommitted records) after
  /// Truncate(/*keep_unmirrored=*/true). Returns the checkpoint's begin LSN.
  uint64_t Checkpoint();

  /// Drops the prefix no pass can need: everything below the oldest record
  /// of an open transaction and, when `keep_unmirrored` (reintegration
  /// replays them), the oldest committed-but-unmirrored record.
  void Truncate(bool keep_unmirrored);

  /// LSN of the last complete checkpoint's begin record (0 = none yet).
  uint64_t checkpoint_lsn() const { return checkpoint_lsn_; }

  /// Statement/transaction commits sealed since the last checkpoint.
  uint64_t commits_since_checkpoint() const {
    return commits_since_checkpoint_;
  }

  // --- Recovery access ---

  /// Retained records in LSN order (the truncated prefix is gone).
  const std::deque<WalRecord>& records() const { return log_; }
  std::deque<WalRecord>& mutable_records() { return log_; }

  uint64_t next_lsn() const { return next_lsn_; }
  /// Total sealed bytes, including truncated history (cost reporting).
  uint64_t total_bytes() const { return total_bytes_; }
  uint64_t retained_bytes() const { return retained_bytes_; }

  /// Transactions with sealed data records and no commit/clean-abort record
  /// — recovery's losers.
  std::vector<uint64_t> OpenTxns() const;

 private:
  void SealOne(WalRecord&& record);

  int num_nodes_;
  std::vector<std::vector<WalRecord>> staged_;
  std::deque<WalRecord> log_;
  uint64_t next_lsn_ = 1;
  uint64_t total_bytes_ = 0;
  uint64_t retained_bytes_ = 0;
  uint64_t checkpoint_lsn_ = 0;
  uint64_t commits_since_checkpoint_ = 0;
  /// Transactions with a sealed commit record (survives truncation).
  std::set<uint64_t> committed_;
  /// Transactions closed by a clean abort (records compensated).
  std::set<uint64_t> aborted_;
  std::map<std::string, uint32_t> relation_ids_;
  std::vector<std::string> relation_names_;
  /// Flight recorder (null until the machine attaches it).
  obs::Journal* journal_ = nullptr;
  int journal_ring_ = 0;
};

}  // namespace gammadb::gamma

#endif  // GAMMA_GAMMA_WAL_H_
