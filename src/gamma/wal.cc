#include "gamma/wal.h"

#include <algorithm>
#include <utility>

#include "common/macros.h"

namespace gammadb::gamma {

WalStore::WalStore(int num_nodes) : num_nodes_(num_nodes) {
  GAMMA_CHECK(num_nodes > 0);
  staged_.resize(static_cast<size_t>(num_nodes));
}

namespace {

/// Records the redo/undo passes act on — the ones whose presence keeps a
/// transaction open and whose retention the checkpoint must protect.
bool IsReplayable(WalKind kind) {
  switch (kind) {
    case WalKind::kInsert:
    case WalKind::kDelete:
    case WalKind::kModify:
    case WalKind::kPartition:
      return true;
    default:
      return false;
  }
}

}  // namespace

uint32_t WalStore::InternRelation(const std::string& name) {
  auto it = relation_ids_.find(name);
  if (it != relation_ids_.end()) return it->second;
  const uint32_t id = static_cast<uint32_t>(relation_names_.size());
  relation_ids_.emplace(name, id);
  relation_names_.push_back(name);
  return id;
}

const std::string& WalStore::RelationName(uint32_t id) const {
  static const std::string kUnknown;
  if (id >= relation_names_.size()) return kUnknown;
  return relation_names_[id];
}

void WalStore::Stage(int src_node, WalRecord record) {
  GAMMA_CHECK(src_node >= 0 && src_node < num_nodes_);
  staged_[static_cast<size_t>(src_node)].push_back(std::move(record));
}

void WalStore::SealOne(WalRecord&& record) {
  record.lsn = next_lsn_++;
  const uint64_t bytes = record.bytes();
  total_bytes_ += bytes;
  retained_bytes_ += bytes;
  if (record.kind == WalKind::kCommit) {
    committed_.insert(record.txn);
    ++commits_since_checkpoint_;
  }
  log_.push_back(std::move(record));
}

void WalStore::Seal() {
  for (std::vector<WalRecord>& buffer : staged_) {
    for (WalRecord& record : buffer) SealOne(std::move(record));
    buffer.clear();
  }
}

uint64_t WalStore::Append(WalRecord record) {
  SealOne(std::move(record));
  return next_lsn_ - 1;
}

void WalStore::NoteCommit(uint64_t txn) {
  WalRecord record;
  record.txn = txn;
  record.kind = WalKind::kCommit;
  const uint64_t lsn = Append(std::move(record));
  if (journal_ != nullptr) {
    journal_->Emit(journal_ring_, obs::JournalEventKind::kWalForce,
                   static_cast<int64_t>(txn), static_cast<int64_t>(lsn));
  }
}

void WalStore::NoteCleanAbort(uint64_t txn) {
  if (committed_.contains(txn)) return;  // too late: txn is a winner
  // Only transactions that actually logged something need closing.
  bool logged = false;
  for (const WalRecord& record : log_) {
    if (record.txn == txn && record.kind != WalKind::kAbort) {
      logged = true;
      break;
    }
  }
  if (!logged) return;
  aborted_.insert(txn);
  WalRecord record;
  record.txn = txn;
  record.kind = WalKind::kAbort;
  Append(std::move(record));
}

bool WalStore::HasDataRecords(uint64_t txn) const {
  for (const WalRecord& record : log_) {
    if (IsReplayable(record.kind) && record.txn == txn) return true;
  }
  return false;
}

std::vector<uint64_t> WalStore::OpenTxns() const {
  std::set<uint64_t> open;
  for (const WalRecord& record : log_) {
    if (IsReplayable(record.kind) && !committed_.contains(record.txn) &&
        !aborted_.contains(record.txn)) {
      open.insert(record.txn);
    }
  }
  return {open.begin(), open.end()};
}

void WalStore::Truncate(bool keep_unmirrored) {
  uint64_t keep_from = next_lsn_;
  for (const WalRecord& record : log_) {
    if (!IsReplayable(record.kind)) continue;
    const bool open_txn =
        !committed_.contains(record.txn) && !aborted_.contains(record.txn);
    const bool unmirrored_winner = keep_unmirrored &&
                                   committed_.contains(record.txn) &&
                                   !record.mirrored;
    if ((open_txn || unmirrored_winner) && record.lsn < keep_from) {
      keep_from = record.lsn;
    }
  }
  while (!log_.empty() && log_.front().lsn < keep_from) {
    retained_bytes_ -= log_.front().bytes();
    log_.pop_front();
  }
}

uint64_t WalStore::Checkpoint() {
  GAMMA_CHECK_MSG(
      std::all_of(staged_.begin(), staged_.end(),
                  [](const std::vector<WalRecord>& b) { return b.empty(); }),
      "checkpoint with staged (unsealed) log records");
  // The begin record carries the active-transaction table: the open
  // transactions whose records the undo pass must still reach. Recovery
  // also needs every committed record not yet mirrored into its chained
  // backup (reintegration replays those) and the checkpoint itself, which
  // lands after the truncation point.
  const std::vector<uint64_t> open = OpenTxns();
  Truncate(/*keep_unmirrored=*/true);
  WalRecord begin;
  begin.kind = WalKind::kCheckpointBegin;
  const uint64_t begin_lsn = Append(std::move(begin));

  WalRecord end;
  end.kind = WalKind::kCheckpointEnd;
  end.txn = static_cast<uint64_t>(open.size());
  Append(std::move(end));
  checkpoint_lsn_ = begin_lsn;
  commits_since_checkpoint_ = 0;
  if (journal_ != nullptr) {
    journal_->Emit(journal_ring_, obs::JournalEventKind::kCheckpoint,
                   static_cast<int64_t>(begin_lsn),
                   static_cast<int64_t>(log_.size()));
  }
  return begin_lsn;
}

}  // namespace gammadb::gamma
