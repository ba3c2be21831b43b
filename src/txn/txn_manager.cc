#include "txn/txn_manager.h"

#include <algorithm>
#include <functional>

#include "common/macros.h"
#include "obs/metrics_registry.h"

namespace gammadb::txn {

TxnManager::TxnManager(int num_tables, int relation_table)
    : relation_table_(relation_table) {
  GAMMA_CHECK(num_tables > 0);
  GAMMA_CHECK(relation_table >= 0 && relation_table < num_tables);
  tables_.reserve(static_cast<size_t>(num_tables));
  for (int i = 0; i < num_tables; ++i) {
    tables_.push_back(std::make_unique<LockManager>());
  }
}

void TxnManager::Grow(int num_tables, int relation_table) {
  GAMMA_CHECK(num_tables >= static_cast<int>(tables_.size()));
  GAMMA_CHECK(relation_table >= 0 && relation_table < num_tables);
  GAMMA_CHECK_MSG(active_.empty() && waiting_table_.empty(),
                  "TxnManager::Grow with transactions in flight");
  while (static_cast<int>(tables_.size()) < num_tables) {
    tables_.push_back(std::make_unique<LockManager>());
  }
  relation_table_ = relation_table;
}

uint64_t TxnManager::Begin() {
  const uint64_t txn = next_txn_++;
  active_.emplace(txn, TxnStats{});
  return txn;
}

int TxnManager::TableFor(LockId id) const {
  if (id.level == LockId::Level::kRelation) return relation_table_;
  GAMMA_CHECK(id.fragment < tables_.size());
  return static_cast<int>(id.fragment);
}

uint32_t TxnManager::RelationId(const std::string& name) {
  auto it = relation_ids_.find(name);
  if (it != relation_ids_.end()) return it->second;
  const uint32_t id = static_cast<uint32_t>(relation_ids_.size());
  relation_ids_.emplace(name, id);
  return id;
}

std::vector<uint64_t> TxnManager::FindCycleFrom(uint64_t txn) const {
  // DFS over waits-for edges starting at `txn`; only waiting transactions
  // have outgoing edges. All containers are ordered, so the first cycle
  // found is deterministic.
  std::vector<uint64_t> path;
  std::map<uint64_t, bool> visited;  // true = fully explored
  std::vector<uint64_t> cycle;
  const std::function<bool(uint64_t)> dfs = [&](uint64_t node) -> bool {
    auto wt = waiting_table_.find(node);
    if (wt == waiting_table_.end()) return false;  // running txn: sink
    visited[node] = false;
    path.push_back(node);
    for (const uint64_t blocker :
         tables_[static_cast<size_t>(wt->second)]->Blockers(node)) {
      if (blocker == txn) {
        cycle = path;  // every node on the path waits, transitively, on txn
        return true;
      }
      auto seen = visited.find(blocker);
      if (seen != visited.end()) continue;  // on path or explored: skip
      if (dfs(blocker)) return true;
    }
    path.pop_back();
    visited[node] = true;
    return false;
  };
  dfs(txn);
  return cycle;
}

void TxnManager::NoteGrants(const std::vector<LockManager::Grant>& grants) {
  for (const LockManager::Grant& g : grants) waiting_table_.erase(g.txn);
}

void TxnManager::AbortInternal(uint64_t victim,
                               std::vector<LockManager::Grant>* grants) {
  const size_t before = grants->size();
  for (auto& table : tables_) table->Release(victim, grants);
  waiting_table_.erase(victim);
  auto it = active_.find(victim);
  GAMMA_CHECK(it != active_.end());
  it->second.aborts += 1;
  totals_.aborts += 1;
  static obs::Counter& aborts =
      obs::MetricsRegistry::Instance().counter("txn.aborts");
  aborts.Inc();
  if (journal_ != nullptr) {
    journal_->Emit(journal_ring_, obs::JournalEventKind::kTxnAbort,
                   static_cast<int64_t>(victim));
  }
  active_.erase(it);
  NoteGrants({grants->begin() + static_cast<long>(before), grants->end()});
}

TxnManager::AcquireResult TxnManager::Acquire(uint64_t txn, LockId id,
                                              LockMode mode) {
  GAMMA_CHECK_MSG(IsActive(txn), "lock request from unknown transaction");
  GAMMA_CHECK_MSG(!IsWaiting(txn),
                  "transaction already waiting on another lock");
  AcquireResult res;
  const int table = TableFor(id);
  LockManager& lm = *tables_[static_cast<size_t>(table)];
  TxnStats& stats = active_.at(txn);
  stats.locks_acquired += 1;
  totals_.locks_acquired += 1;
  if (lm.Acquire(txn, id, mode) == LockManager::Outcome::kGranted) {
    res.outcome = AcquireResult::Outcome::kGranted;
    return res;
  }
  waiting_table_[txn] = table;
  stats.lock_waits += 1;
  totals_.lock_waits += 1;
  static obs::Counter& lock_waits =
      obs::MetricsRegistry::Instance().counter("txn.lock_waits");
  lock_waits.Inc();
  if (journal_ != nullptr) {
    journal_->Emit(journal_ring_, obs::JournalEventKind::kLockWait,
                   static_cast<int64_t>(txn), table);
  }

  // Each new wait edge can close at most cycles through the requester;
  // abort the youngest member until no cycle remains (or we are it).
  for (;;) {
    const std::vector<uint64_t> cycle = FindCycleFrom(txn);
    if (cycle.empty()) break;
    uint64_t victim = txn;
    for (const uint64_t member : cycle) victim = std::max(victim, member);
    totals_.deadlocks += 1;
    active_.at(victim).deadlocks += 1;
    static obs::Counter& deadlocks =
        obs::MetricsRegistry::Instance().counter("txn.deadlocks");
    deadlocks.Inc();
    if (journal_ != nullptr) {
      journal_->Emit(journal_ring_, obs::JournalEventKind::kDeadlockVictim,
                     static_cast<int64_t>(victim), static_cast<int64_t>(txn));
    }
    res.aborted_victims.push_back(victim);
    if (victim == txn) {
      AbortInternal(txn, &res.grants);
      res.outcome = AcquireResult::Outcome::kAbortedSelf;
      return res;
    }
    AbortInternal(victim, &res.grants);
    if (!IsWaiting(txn)) break;  // the victim's release granted our request
  }
  res.outcome = IsWaiting(txn) ? AcquireResult::Outcome::kBlocked
                               : AcquireResult::Outcome::kGranted;
  if (res.outcome == AcquireResult::Outcome::kGranted) {
    // Our own grant is an immediate return value, not a wakeup.
    res.grants.erase(std::remove_if(res.grants.begin(), res.grants.end(),
                                    [txn](const LockManager::Grant& g) {
                                      return g.txn == txn;
                                    }),
                     res.grants.end());
  }
  return res;
}

Status TxnManager::CanCommit(uint64_t txn) const {
  if (!IsActive(txn)) {
    return Status::InvalidArgument("commit of transaction " +
                                   std::to_string(txn) +
                                   ", which is not open");
  }
  if (IsWaiting(txn)) {
    return Status::FailedPrecondition("commit of transaction " +
                                      std::to_string(txn) +
                                      " with a lock request in flight");
  }
  return Status::OK();
}

Result<std::vector<LockManager::Grant>> TxnManager::Commit(uint64_t txn) {
  GAMMA_RETURN_NOT_OK(CanCommit(txn));
  std::vector<LockManager::Grant> grants;
  for (auto& table : tables_) table->Release(txn, &grants);
  active_.erase(txn);
  NoteGrants(grants);
  return grants;
}

void TxnManager::CrashReset() {
  for (auto& table : tables_) {
    table = std::make_unique<LockManager>();
  }
  active_.clear();
  waiting_table_.clear();
}

std::vector<LockManager::Grant> TxnManager::Abort(uint64_t txn) {
  std::vector<LockManager::Grant> grants;
  if (!IsActive(txn)) return grants;
  AbortInternal(txn, &grants);
  // AbortInternal counts deliberate aborts too; a caller-requested abort is
  // not a deadlock, so only `aborts` was bumped — which is what we want.
  return grants;
}

TxnStats TxnManager::StatsFor(uint64_t txn) const {
  auto it = active_.find(txn);
  return it == active_.end() ? TxnStats{} : it->second;
}

void TxnManager::AddWaitSec(uint64_t txn, double sec) {
  auto it = active_.find(txn);
  if (it != active_.end()) it->second.lock_wait_sec += sec;
  totals_.lock_wait_sec += sec;
  // Coordinator-serial (workload scheduler resolves waits in simulated-time
  // order), so the histogram's FP sum stays order-deterministic.
  static obs::Histogram& wait_seconds =
      obs::MetricsRegistry::Instance().histogram(
          "txn.lock_wait_seconds", obs::LogBuckets(1e-4, 1e4, 4));
  wait_seconds.Observe(sec);
}

}  // namespace gammadb::txn
