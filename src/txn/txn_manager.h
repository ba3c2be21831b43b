#ifndef GAMMA_TXN_TXN_MANAGER_H_
#define GAMMA_TXN_TXN_MANAGER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "obs/journal.h"
#include "txn/lock_manager.h"

namespace gammadb::txn {

/// Per-transaction concurrency-control counters (surfaced into
/// QueryResult::metrics next to the recovery-log stats).
struct TxnStats {
  uint64_t locks_acquired = 0;
  uint64_t lock_waits = 0;
  double lock_wait_sec = 0;
  uint64_t deadlocks = 0;
  uint64_t aborts = 0;
};

/// \brief Machine-wide transaction coordinator: strict multi-granularity 2PL
/// with local deadlock detection.
///
/// One lock table per disk node holds that node's fragment and page locks
/// (the paper's per-node lock managers); relation-level locks live in the
/// scheduler's table. Every call happens on the query coordinator thread —
/// node tasks never touch this class — so the iteration order of the
/// ordered containers is the only order there is, and results are
/// deterministic for any host-pool width.
///
/// Blocked requests enqueue; each new wait runs a DFS over the waits-for
/// graph (edges from LockManager::Blockers across all tables) and aborts
/// the *youngest* transaction (largest id) of any cycle found, releasing
/// its locks and promoting waiters. The caller (the workload scheduler or
/// GammaMachine) learns about aborted victims and promoted grants from the
/// returned lists and resumes or retries accordingly.
class TxnManager {
 public:
  /// `num_tables` lock tables (indexed like tracker nodes); relation locks
  /// are kept in table `relation_table`.
  TxnManager(int num_tables, int relation_table);

  TxnManager(const TxnManager&) = delete;
  TxnManager& operator=(const TxnManager&) = delete;

  /// Elastic growth: widens to `num_tables` lock tables and moves the
  /// relation-lock table to `relation_table` (tracker-node ids shift when a
  /// disk node is added). Requires a quiescent manager — no active or
  /// waiting transactions, so every table is empty and nothing needs to be
  /// rehomed.
  void Grow(int num_tables, int relation_table);

  /// Wires the machine's flight recorder in: lock waits, deadlock victims
  /// and aborts are journaled on `ring` (the scheduler's). Safe because
  /// every TxnManager call is coordinator-serial (class comment). Null
  /// detaches.
  void AttachJournal(obs::Journal* journal, int ring) {
    journal_ = journal;
    journal_ring_ = ring;
  }

  /// Starts a transaction; ids are monotonic, so the largest id in a cycle
  /// is the youngest transaction (the victim policy).
  uint64_t Begin();

  bool IsActive(uint64_t txn) const {
    return active_.find(txn) != active_.end();
  }

  /// True when no transaction is active or waiting (the precondition Grow
  /// enforces; elastic growth checks it first to fail gracefully).
  bool quiescent() const { return active_.empty() && waiting_table_.empty(); }

  struct AcquireResult {
    enum class Outcome {
      kGranted,
      /// Enqueued behind a conflicting holder; the grant arrives later via
      /// some release's `grants` list.
      kBlocked,
      /// The requester itself was chosen as deadlock victim and aborted.
      kAbortedSelf,
    };
    Outcome outcome = Outcome::kGranted;
    /// Other transactions aborted to break deadlock cycles (their locks are
    /// already released; the owner must retry them).
    std::vector<uint64_t> aborted_victims;
    /// Waiting requests granted by a victim's release (never the requester).
    std::vector<LockManager::Grant> grants;
  };

  /// Requests `mode` on `id` for `txn` under strict 2PL. The lock table is
  /// chosen from the id (fragment/page -> the fragment's node table,
  /// relation -> the scheduler table).
  AcquireResult Acquire(uint64_t txn, LockId id, LockMode mode);

  /// Whether `txn` may commit now: InvalidArgument when it is not open
  /// (unknown, or already committed or aborted), FailedPrecondition while
  /// it waits on a lock request.
  Status CanCommit(uint64_t txn) const;

  /// Commit / abort: releases every lock `txn` holds in every table and
  /// returns the requests that became grantable. A commit CanCommit refuses
  /// fails with its status and changes nothing; aborting a transaction
  /// that is not open does nothing.
  Result<std::vector<LockManager::Grant>> Commit(uint64_t txn);
  std::vector<LockManager::Grant> Abort(uint64_t txn);

  /// Machine crash: every lock table and in-flight transaction vanishes
  /// with the volatile state. The id counter and lifetime totals survive
  /// (they model the recovery server's knowledge, not node memory).
  void CrashReset();

  /// Table index holding `id` (also where the lock CPU cost belongs).
  int TableFor(LockId id) const;

  /// Stable small id for a relation name (registry: first use assigns).
  uint32_t RelationId(const std::string& name);

  /// Counters for one transaction (zeros after commit/abort — snapshot
  /// before releasing). `AddWaitSec` is fed by the simulated-time scheduler,
  /// which alone knows how long a blocked request actually waited.
  TxnStats StatsFor(uint64_t txn) const;
  void AddWaitSec(uint64_t txn, double sec);

  /// Machine-lifetime totals across all transactions.
  const TxnStats& totals() const { return totals_; }

  const LockManager& table(int i) const {
    return *tables_.at(static_cast<size_t>(i));
  }
  bool IsWaiting(uint64_t txn) const {
    return waiting_table_.find(txn) != waiting_table_.end();
  }

 private:
  /// Transactions in a waits-for cycle through `txn` (empty if none).
  std::vector<uint64_t> FindCycleFrom(uint64_t txn) const;
  /// Aborts `victim` in place: cancels its wait, releases its locks
  /// everywhere, collects resulting grants.
  void AbortInternal(uint64_t victim, std::vector<LockManager::Grant>* grants);
  void NoteGrants(const std::vector<LockManager::Grant>& grants);

  std::vector<std::unique_ptr<LockManager>> tables_;
  int relation_table_;
  uint64_t next_txn_ = 1;
  std::map<uint64_t, TxnStats> active_;
  /// txn -> table index of its single waiting request.
  std::map<uint64_t, int> waiting_table_;
  std::map<std::string, uint32_t> relation_ids_;
  TxnStats totals_;
  /// Flight recorder (null until the machine attaches it).
  obs::Journal* journal_ = nullptr;
  int journal_ring_ = 0;
};

}  // namespace gammadb::txn

#endif  // GAMMA_TXN_TXN_MANAGER_H_
