#include "gamma/machine.h"

#include "gamma/recovery_log.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <utility>

#include "common/hash.h"
#include "common/macros.h"
#include "exec/exchange.h"
#include "exec/hash_join.h"
#include "exec/hybrid_join.h"
#include "exec/join_site.h"
#include "exec/merge_join.h"
#include "exec/select.h"
#include "exec/skew.h"
#include "exec/split_table.h"
#include "exec/store.h"
#include "obs/chrome_trace.h"
#include "obs/metrics_registry.h"
#include "obs/profile.h"
#include "sim/host_pool.h"
#include "storage/deferred_update.h"

namespace gammadb::gamma {

using catalog::IndexMeta;
using catalog::PartitionStrategy;
using catalog::RelationMeta;
using catalog::Schema;
using catalog::TupleView;
using exec::Predicate;
using exec::SplitTable;
using storage::AccessIntent;
using storage::Rid;

namespace {

/// Non-clustered index selections beat a file scan only below this
/// selectivity (the §5.1 optimizer chooses the scan for the 10% queries and
/// the index for the 1% queries).
constexpr double kNonClusteredIndexThreshold = 0.05;

/// Statement profiles kept for FlushProfileRing: one combined trace file
/// replaces the one-file-per-query pattern on long runs.
constexpr size_t kProfileRingCapacity = 64;

/// A statement that hits Unavailable mid-flight (a node died under it) is
/// retried against the surviving configuration up to this many times.
constexpr uint32_t kFailoverMaxRetries = 3;

/// Simulated reconfiguration wait before failover retry k:
/// base * 2^(k-1) seconds, charged to scheduling.
constexpr double kFailoverBackoffBaseSec = 0.05;

/// Loops that jump between scattered tuples ask for a tuple's cache lines
/// this many tuples before they read it.
constexpr size_t kPrefetchAhead = 8;

void PrefetchLines(const uint8_t* data, size_t size) {
  for (size_t line = 0; line < size; line += 64) {
    __builtin_prefetch(data + line);
  }
}

/// Stable LSD radix sort by a signed int32 key, one byte per pass. Flipping
/// the sign bit turns unsigned digit order into signed key order, and equal
/// keys keep their input order, as std::stable_sort by key would. A pass
/// whose digit every item shares moves nothing and is skipped.
template <typename T, typename Key>
void RadixSortByKey(std::vector<T>& items, Key key) {
  const auto digit = [&](const T& item, int pass) {
    return ((static_cast<uint32_t>(key(item)) ^ 0x80000000u) >> (8 * pass)) &
           0xFFu;
  };
  size_t counts[4][256] = {};
  for (const T& item : items) {
    for (int pass = 0; pass < 4; ++pass) ++counts[pass][digit(item, pass)];
  }
  std::vector<T> sorted(items.size());
  for (int pass = 0; pass < 4; ++pass) {
    size_t* count = counts[pass];
    if (items.empty() || count[digit(items[0], pass)] == items.size()) {
      continue;
    }
    size_t offset = 0;
    for (size_t d = 0; d < 256; ++d) {
      const size_t n = count[d];
      count[d] = offset;
      offset += n;
    }
    for (const T& item : items) sorted[count[digit(item, pass)]++] = item;
    items.swap(sorted);
  }
}

/// Bulk-loads a fresh B-tree on `sm` from `entries` made in rid order: the
/// stable sort by key leaves them in (key, rid) order. Entries already in
/// key order (a clustered index) skip the sort.
Result<storage::IndexId> BulkLoadIndex(
    storage::StorageManager& sm, std::vector<storage::BTree::Entry>& entries) {
  const auto by_key = [](const auto& a, const auto& b) { return a.key < b.key; };
  if (!std::is_sorted(entries.begin(), entries.end(), by_key)) {
    RadixSortByKey(entries, [](const auto& e) { return e.key; });
  }
  const storage::IndexId id = sm.CreateIndex();
  GAMMA_RETURN_NOT_OK(sm.index(id).BulkLoad(entries));
  return id;
}

}  // namespace

namespace {

/// Flight-recorder ring capacity: GAMMA_JOURNAL_RING events per tracker
/// node (default 256, 0 disables recording).
size_t JournalCapFromEnv() {
  size_t cap = 256;
  if (const char* env = std::getenv("GAMMA_JOURNAL_RING")) {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end != env && parsed >= 0) cap = static_cast<size_t>(parsed);
  }
  return cap;
}

}  // namespace

GammaMachine::GammaMachine(GammaConfig config)
    : config_(config),
      stats_([this](const std::string& name) {
        return StoredFragments(name);
      }),
      txns_(config.tracker_nodes(), config.scheduler_node()),
      wal_(config.tracker_nodes()),
      profile_ring_(kProfileRingCapacity),
      journal_(config.tracker_nodes(), JournalCapFromEnv()) {
  GAMMA_CHECK(config_.num_disk_nodes > 0);
  GAMMA_CHECK(config_.num_diskless_nodes >= 0);
  // Disk fault streams cover the disk nodes; packet-drop streams cover every
  // tracker node (diskless processors, scheduler, host and recovery server
  // all send data packets).
  faults_ = std::make_unique<sim::FaultInjector>(
      config_.fault, config_.num_disk_nodes, config_.tracker_nodes());
  for (int i = 0; i < config_.total_query_nodes(); ++i) {
    // Only the disk nodes are subject to the fault schedule; diskless query
    // processors use their StorageManager solely for join spool files.
    const bool disk_node = i < config_.num_disk_nodes;
    nodes_.push_back(std::make_unique<storage::StorageManager>(
        config_.page_size, config_.buffer_pool_bytes,
        disk_node ? faults_.get() : nullptr, disk_node ? i : -1));
  }
  // Wire the flight recorder into the layers that emit events from their
  // own call sites: fault draws (per-node rings), lock waits / deadlock
  // victims (scheduler ring), WAL forces / checkpoints (recovery ring, only
  // when the recovery server is modelled).
  faults_->AttachJournal(&journal_);
  txns_.AttachJournal(&journal_, config_.scheduler_node());
  if (config_.enable_logging) {
    wal_.AttachJournal(&journal_, config_.recovery_node());
  }
}

void GammaMachine::BindAll(sim::CostTracker* tracker) {
  for (int i = 0; i < config_.total_query_nodes(); ++i) {
    nodes_[static_cast<size_t>(i)]->BindTracker(tracker, i);
  }
}

Result<GammaMachine::FragmentCopy> GammaMachine::ServingCopy(
    const RelationMeta& meta, int fragment) const {
  const uint32_t primary = meta.per_node_file[static_cast<size_t>(fragment)];
  if (!faults_->IsDead(fragment)) {
    return FragmentCopy{fragment, primary, /*backup=*/false};
  }
  if (meta.backed_up) {
    const int host = (fragment + 1) % config_.num_disk_nodes;
    const uint32_t file =
        meta.per_node_backup_file[static_cast<size_t>(fragment)];
    if (file != catalog::kNoFile && !faults_->IsDead(host)) {
      return FragmentCopy{host, file, /*backup=*/true};
    }
  }
  return Status::Unavailable("fragment " + std::to_string(fragment) + " of " +
                             meta.name + " has no surviving copy");
}

Result<std::vector<GammaMachine::FragmentCopy>> GammaMachine::ServingCopies(
    const RelationMeta& meta, const std::vector<int>& fragments) const {
  std::vector<FragmentCopy> copies;
  copies.reserve(fragments.size());
  for (int f : fragments) {
    GAMMA_ASSIGN_OR_RETURN(const FragmentCopy copy, ServingCopy(meta, f));
    copies.push_back(copy);
  }
  return copies;
}

std::vector<int> GammaMachine::AllFragments() const {
  std::vector<int> all(static_cast<size_t>(config_.num_disk_nodes));
  for (int i = 0; i < config_.num_disk_nodes; ++i) {
    all[static_cast<size_t>(i)] = i;
  }
  return all;
}

std::vector<int> GammaMachine::LiveDiskNodes() const {
  std::vector<int> live;
  for (int i = 0; i < config_.num_disk_nodes; ++i) {
    if (!faults_->IsDead(i)) live.push_back(i);
  }
  return live;
}

Result<std::vector<txn::LockManager::Grant>> GammaMachine::CommitTxn(
    uint64_t txn) {
  GAMMA_RETURN_NOT_OK(txns_.CanCommit(txn));
  // The transaction's statements each forced their log records and pages at
  // statement end, so the commit point only seals the winner marker.
  if (!wal_.IsCommitted(txn) && wal_.HasDataRecords(txn)) {
    wal_.NoteCommit(txn);
    MaybeAutoCheckpoint(/*log=*/nullptr, /*src_node=*/0);
  }
  return txns_.Commit(txn);
}

std::vector<txn::LockManager::Grant> GammaMachine::AbortTxn(uint64_t txn) {
  if (!wal_.IsCommitted(txn)) UndoTransaction(txn, /*close=*/true);
  return txns_.Abort(txn);
}

Status GammaMachine::DropRelation(const std::string& name) {
  GAMMA_ASSIGN_OR_RETURN(RelationMeta * meta, catalog_.Get(name));
  for (int i = 0; i < config_.num_disk_nodes; ++i) {
    const uint32_t fid = meta->per_node_file[static_cast<size_t>(i)];
    if (fid != catalog::kNoFile) nodes_[static_cast<size_t>(i)]->DropFile(fid);
  }
  if (meta->backed_up) {
    for (int i = 0; i < config_.num_disk_nodes; ++i) {
      const uint32_t fid = meta->per_node_backup_file[static_cast<size_t>(i)];
      if (fid == catalog::kNoFile) continue;
      nodes_[static_cast<size_t>((i + 1) % config_.num_disk_nodes)]->DropFile(
          fid);
    }
  }
  catalog_.Drop(name);
  stats_.Drop(name);
  return Status::OK();
}

Status GammaMachine::AcquireTxnLock(sim::CostTracker* tracker, uint64_t txn,
                                    int charge_node, txn::LockId id,
                                    txn::LockMode mode) {
  if (tracker != nullptr) {
    tracker->ChargeCpu(charge_node, tracker->hw().cost.instr_per_lock);
  }
  const txn::TxnManager::AcquireResult res = txns_.Acquire(txn, id, mode);
  // The machine runs one statement at a time, so a conflict can only be with
  // another *open* transaction: under fail-fast 2PL that is a precondition
  // failure the caller resolves (the workload scheduler never lets real
  // execution reach a conflicting footprint).
  switch (res.outcome) {
    case txn::TxnManager::AcquireResult::Outcome::kGranted:
      return Status::OK();
    case txn::TxnManager::AcquireResult::Outcome::kAbortedSelf:
      return Status::FailedPrecondition(
          "transaction " + std::to_string(txn) +
          " aborted as deadlock victim requesting " + id.ToString());
    case txn::TxnManager::AcquireResult::Outcome::kBlocked:
    default:
      // Fail fast instead of blocking a real thread: cancel the queued wait
      // so the transaction can abort/retry.
      txns_.Abort(txn);
      return Status::FailedPrecondition(
          "lock conflict on " + id.ToString() + " (" + txn::ModeName(mode) +
          ") for transaction " + std::to_string(txn));
  }
}

Status GammaMachine::LockForRead(sim::CostTracker& tracker, uint64_t txn,
                                 const RelationMeta& meta,
                                 const std::vector<int>& fragments) {
  const uint32_t rel = txns_.RelationId(meta.name);
  GAMMA_RETURN_NOT_OK(AcquireTxnLock(&tracker, txn, config_.scheduler_node(),
                                     txn::LockId::Relation(rel),
                                     txn::LockMode::kIS));
  for (int f : fragments) {
    const txn::LockId id = txn::LockId::Fragment(rel, static_cast<uint32_t>(f));
    GAMMA_RETURN_NOT_OK(AcquireTxnLock(&tracker, txn, txns_.TableFor(id), id,
                                       txn::LockMode::kS));
  }
  return Status::OK();
}

Status GammaMachine::ScanSources(sim::CostTracker& tracker,
                                 const std::vector<FragmentCopy>& sources,
                                 const ScanBody& body) {
  std::vector<NodeTask> tasks;
  for (const NodeGroup& group : GroupByServingNode(sources)) {
    tasks.push_back(NodeTask{
        group.node, [&, group](sim::CostTracker& shard) -> Status {
          storage::StorageManager& sm =
              *nodes_[static_cast<size_t>(group.node)];
          for (size_t s : group.members) {
            const FragmentCopy& src = sources[s];
            sm.charge().Cpu(config_.hw.cost.instr_per_lock);
            GAMMA_RETURN_NOT_OK(body(s, src, sm, shard));
            shard.ChargeControlMessage(src.node, config_.scheduler_node(),
                                       /*blocking=*/false);
          }
          return Status::OK();
        }});
  }
  return RunNodeTasks(&tracker, std::move(tasks));
}

GammaMachine::Statement::Statement(GammaMachine* machine)
    : Statement(machine, /*external_txn=*/0) {}

GammaMachine::Statement::Statement(GammaMachine* machine,
                                   const std::string& relation,
                                   uint64_t external_txn)
    : Statement(machine, external_txn) {
  wal_txn_ = auto_commit_ ? StatementTxn(machine_->next_statement_txn_++)
                          : txn_;
  wal_rel_ = machine_->wal_.InternRelation(relation);
}

GammaMachine::Statement::Statement(GammaMachine* machine,
                                   uint64_t external_txn)
    : machine_(machine),
      tracker_(machine->config_.hw, machine->config_.tracker_nodes()),
      log_(machine->config_.enable_logging ? &tracker_ : nullptr,
           machine->config_.recovery_node(), machine->config_.page_size,
           machine->wal_),
      auto_commit_(external_txn == 0) {
  tracker_.AttachFaultInjector(machine_->faults_.get());
  machine_->BindAll(&tracker_);
  tracker_.ChargeHostSetup(kHostSetupSec);
  txn_ = auto_commit_ ? machine_->txns_.Begin() : external_txn;
}

GammaMachine::Statement::~Statement() {
  if (finished_) return;
  GammaMachine& m = *machine_;
  m.txns_.Abort(txn_);
  // A failed statement's dirty pages are not durable state; drop them
  // instead of flushing (a dead node could not accept them anyway).
  for (auto& node : m.nodes_) node->pool().Discard();
  m.BindAll(nullptr);
  // Reverse whatever the statement already sealed: the pool Discard above
  // dropped unflushed effects, but pages that were evicted (or force-flushed
  // before a later step failed) survived on disk. Undo is test-and-apply, so
  // already-dropped effects are skipped. After a death at the commit point
  // the records stay open as a loser: the dead node's copies are
  // unreachable until Recover()/ReintegrateNode() finishes the job.
  m.UndoTransaction(wal_txn_, /*close=*/!crashed_);
  if (!partial_result_.empty() && m.catalog_.Contains(partial_result_)) {
    auto meta_or = m.catalog_.Get(partial_result_);
    if (meta_or.ok()) {
      RelationMeta* meta = *meta_or;
      for (int i = 0; i < m.config_.num_disk_nodes; ++i) {
        const uint32_t fid = meta->per_node_file[static_cast<size_t>(i)];
        if (fid != catalog::kNoFile) {
          m.nodes_[static_cast<size_t>(i)]->DropFile(fid);
        }
      }
    }
    m.catalog_.Drop(partial_result_);
  }
  m.BindAll(nullptr);
}

Status GammaMachine::Statement::ReachCommitPoint(const std::vector<int>& sites,
                                                 const std::string& what) {
  for (int site : sites) {
    if (machine_->faults_->OnCommitPoint(site)) {
      crashed_ = true;
      return Status::Unavailable(what + ": site " + std::to_string(site) +
                                 " died at its commit point");
    }
  }
  return Status::OK();
}

Status GammaMachine::Statement::CommitWrites(const std::vector<int>& sites,
                                             const std::string& what) {
  const int commit_site = sites.empty() ? 0 : sites.front();
  if (!auto_commit_) {
    // The statement's records are forced; the commit marker waits for
    // CommitTxn.
    log_.Commit(commit_site);
    return Status::OK();
  }
  // Commit point: the log is forced and the pages are durable, but the
  // winner marker has not been sealed — a death here leaves a loser. The
  // evaluated Gamma had no commit point to die at.
  if (machine_->config_.enable_logging) {
    GAMMA_RETURN_NOT_OK(ReachCommitPoint(sites, what));
  }
  log_.LogCommit(commit_site, wal_txn_);
  machine_->MaybeAutoCheckpoint(&log_, commit_site);
  return Status::OK();
}

QueryResult GammaMachine::Statement::Finish(QueryResult result) {
  finished_ = true;
  machine_->BindAll(nullptr);
  result.metrics = tracker_.Finish();
  const RecoveryLog::Stats log_stats = log_.stats();
  result.metrics.log_records = log_stats.records;
  result.metrics.log_forced_flushes = log_stats.forced_flushes;
  // Lock counters are read before the commit: they vanish with the txn.
  const txn::TxnStats lock_stats = machine_->txns_.StatsFor(txn_);
  result.metrics.locks_acquired = lock_stats.locks_acquired;
  result.metrics.lock_waits = lock_stats.lock_waits;
  result.metrics.lock_wait_sec = lock_stats.lock_wait_sec;
  result.metrics.deadlocks = lock_stats.deadlocks;
  result.metrics.lock_aborts = lock_stats.aborts;
  if (auto_commit_) machine_->txns_.Commit(txn_);
  return result;
}

Result<QueryResult> GammaMachine::RunWithFailover(
    const std::function<Result<QueryResult>()>& attempt) {
  GAMMA_RETURN_NOT_OK(RefuseIfCrashed("issuing queries"));
  Result<QueryResult> result = attempt();
  uint32_t retries = 0;
  double backoff_sec = 0;
  while (!result.ok() && result.status().IsUnavailable() &&
         retries < kFailoverMaxRetries) {
    // A node died mid-flight: the attempt was aborted cleanly (locks
    // released, partial result dropped). Wait out the simulated
    // reconfiguration delay, then retry — fragment routing now resolves to
    // the chained backups. Unavailable after the final retry means some
    // fragment truly has no surviving copy, and is reported to the host.
    backoff_sec += kFailoverBackoffBaseSec * static_cast<double>(1u << retries);
    ++retries;
    result = attempt();
  }
  if (result.ok() && retries > 0) {
    result->failover_retries = retries;
    result->metrics.failover_retries = retries;
    result->metrics.failover_backoff_sec = backoff_sec;
    result->metrics.scheduling_sec += backoff_sec;
  }
  return result;
}

Result<QueryResult> GammaMachine::FinalizeObs(const char* label,
                                              Result<QueryResult> result) {
  if (result.ok()) {
    obs::FinalizeStatement(config_.trace, "gamma", label,
                           config_.hw.net.ring_bytes_per_sec, &*result);
    if (result->profile != nullptr) {
      profile_ring_.Push(result->profile);
    }
    // Flight recorder: place the statement's lifecycle inside its simulated
    // interval, then advance the machine clock past it. Strictly
    // post-accounting — recording costs no simulated time. Mid-statement
    // events (lock waits, fault draws) were stamped at the interval's
    // begin; phase markers land at their cumulative offsets.
    if (journal_.enabled()) {
      const sim::QueryMetrics& metrics = result->metrics;
      const int64_t ordinal = static_cast<int64_t>(++statement_ordinal_);
      const double begin = journal_.now();
      const int host = config_.host_node();
      const int scheduler = config_.scheduler_node();
      journal_.EmitAt(host, begin, obs::JournalEventKind::kStatementBegin,
                      ordinal, 0, label);
      if (metrics.failover_retries > 0) {
        journal_.EmitAt(
            scheduler, begin, obs::JournalEventKind::kFailoverRetry,
            static_cast<int64_t>(metrics.failover_retries),
            static_cast<int64_t>(metrics.failover_backoff_sec * 1e6), label);
      }
      double cursor = begin + metrics.scheduling_sec;
      for (const sim::PhaseMetrics& phase : metrics.phases) {
        journal_.EmitAt(scheduler, cursor, obs::JournalEventKind::kPhase,
                        ordinal, 0, phase.name);
        cursor += phase.elapsed_sec;
      }
      journal_.EmitAt(host, begin + metrics.TotalSec(),
                      obs::JournalEventKind::kStatementEnd, ordinal,
                      static_cast<int64_t>(result->result_tuples), label);
      journal_.Advance(metrics.TotalSec());
    }
  } else if (result.status().IsCorruption() || result.status().IsIOError()) {
    // A fatal storage error: snapshot the evidence while it is still hot,
    // exactly as a crash would.
    journal_.Emit(config_.host_node(), obs::JournalEventKind::kFatalError, 0,
                  0, result.status().ToString());
    CapturePostMortem("fatal storage error: " + result.status().ToString());
  }
  return result;
}

Status GammaMachine::DumpJournal(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IOError("cannot write journal to " + path);
  }
  const std::string json = journal_.EventsJson();
  std::fwrite(json.data(), 1, json.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  return Status::OK();
}

void GammaMachine::CapturePostMortem(const std::string& reason) {
  if (!journal_.enabled()) return;
  std::string out = "{\n  \"reason\": ";
  obs::AppendJsonString(reason, &out);
  out += ",\n";
  char buf[96];
  std::snprintf(buf, sizeof(buf), "  \"sim_sec\": %.9f,\n", journal_.now());
  out += buf;
  out += "  \"events\": ";
  out += journal_.EventsJson();
  out += ",\n  \"metrics\": {";
  const auto samples = obs::MetricsRegistry::Instance().Snapshot();
  for (size_t i = 0; i < samples.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\n    \"%s\": %.9g",
                  i == 0 ? "" : ",", samples[i].name.c_str(),
                  samples[i].value);
    out += buf;
  }
  out += "\n  }\n}\n";
  post_mortem_ = std::move(out);
}

Status GammaMachine::FlushProfileRing(const std::string& path) {
  std::vector<std::shared_ptr<const obs::Profile>> profiles;
  for (size_t i = 0; i < profile_ring_.size(); ++i) {
    profiles.push_back(profile_ring_[i]);
  }
  if (!obs::WriteChromeTraceAll(profiles, path)) {
    return Status::IOError("cannot write profile-ring trace to " + path);
  }
  profile_ring_.Clear();
  return Status::OK();
}

Status GammaMachine::CreateRelation(const std::string& name,
                                    catalog::Schema schema,
                                    catalog::PartitionSpec spec) {
  if (catalog_.Contains(name)) {
    return Status::AlreadyExists("relation " + name);
  }
  if (!storage::HeapFile::RecordFits(schema.tuple_size(), config_.page_size)) {
    return Status::InvalidArgument("a tuple of " + name +
                                   " does not fit on one page");
  }
  if (spec.strategy != PartitionStrategy::kRoundRobin &&
      (spec.key_attr < 0 ||
       static_cast<size_t>(spec.key_attr) >= schema.num_attrs() ||
       schema.attr(static_cast<size_t>(spec.key_attr)).type !=
           catalog::AttrType::kInt32)) {
    return Status::InvalidArgument(
        "partitioning attribute must be an int attribute of " + name);
  }
  for (int i = 0; i < config_.num_disk_nodes; ++i) {
    if (faults_->IsDead(i)) {
      return Status::Unavailable("cannot create relation " + name +
                                 " while disk node " + std::to_string(i) +
                                 " is down");
    }
  }
  RelationMeta meta;
  meta.name = name;
  meta.schema = std::move(schema);
  meta.partitioning = std::move(spec);
  for (int i = 0; i < config_.num_disk_nodes; ++i) {
    meta.per_node_file.push_back(nodes_[static_cast<size_t>(i)]->CreateFile());
  }
  if (config_.chained_declustering && config_.num_disk_nodes > 1) {
    meta.backed_up = true;
    for (int i = 0; i < config_.num_disk_nodes; ++i) {
      const int host = (i + 1) % config_.num_disk_nodes;
      meta.per_node_backup_file.push_back(
          nodes_[static_cast<size_t>(host)]->CreateFile());
    }
  }
  stats_.Reset(name, meta.schema);
  return catalog_.Register(std::move(meta));
}

Status GammaMachine::LoadTuples(
    const std::string& name, const std::vector<std::vector<uint8_t>>& tuples) {
  GAMMA_ASSIGN_OR_RETURN(RelationMeta * meta, catalog_.Get(name));
  // A node's append list holds 4-byte entries: input index << 1, with the
  // low bit set for a backup copy.
  GAMMA_CHECK(tuples.size() <= (size_t{1} << 31));
  const catalog::Partitioner partitioner(&meta->partitioning, &meta->schema,
                                         config_.num_disk_nodes);
  const auto num_disk = static_cast<size_t>(config_.num_disk_nodes);
  const size_t tuple_size = meta->schema.tuple_size();
  const size_t key_offset =
      meta->partitioning.strategy == PartitionStrategy::kRoundRobin
          ? 0
          : meta->schema.offset(
                static_cast<size_t>(meta->partitioning.key_attr));
  // Route on every host thread. Every tuple is validated before any
  // fragment is touched, so malformed input rejects the whole batch without
  // a single write. A node's list is in input order: exactly the
  // subsequence of tuples homed (or backed up) on it, with primaries and
  // backups interleaved as the input has them.
  std::vector<std::vector<uint32_t>> entries(num_disk);
  const bool routed = sim::RouteInChunks(
      tuples.size(), entries,
      [&](size_t i) -> std::optional<uint32_t> {
        if (i + kPrefetchAhead < tuples.size()) {
          __builtin_prefetch(tuples[i + kPrefetchAhead].data() + key_offset);
        }
        if (tuples[i].size() != tuple_size) return std::nullopt;
        return static_cast<uint32_t>(partitioner.NodeAt(i, tuples[i]));
      },
      [&](size_t i, uint32_t home, auto&& emit) {
        emit(home, static_cast<uint32_t>(i) << 1);
        if (meta->backed_up) {
          emit((home + 1) % num_disk, (static_cast<uint32_t>(i) << 1) | 1);
        }
      });
  if (!routed) {
    return Status::InvalidArgument("tuple size does not match schema");
  }
  std::vector<std::vector<Rid>> rids(num_disk);
  for (size_t n = 0; n < num_disk; ++n) rids[n].resize(entries[n].size());
  // One host task per disk node appends its list, a run of one file's
  // entries at a time, and records each rid for the rollback. The per-node
  // append sequence is the input's, so the stored pages are bit-identical
  // for any thread count.
  std::vector<size_t> appended(num_disk);
  const auto file_of = [&](size_t n, uint32_t entry) {
    return (entry & 1) != 0
               ? meta->per_node_backup_file[(n + num_disk - 1) % num_disk]
               : meta->per_node_file[n];
  };
  std::vector<NodeTask> tasks;
  tasks.reserve(num_disk);
  for (size_t n = 0; n < num_disk; ++n) {
    tasks.push_back(NodeTask{
        static_cast<int>(n), [&, n](sim::CostTracker&) -> Status {
          const std::vector<uint32_t>& mine = entries[n];
          for (size_t run = 0; run < mine.size();) {
            size_t end = run + 1;
            while (end < mine.size() && ((mine[end] ^ mine[run]) & 1) == 0) {
              ++end;
            }
            GAMMA_RETURN_NOT_OK(
                nodes_[n]->file(file_of(n, mine[run])).AppendBatch(
                    end - run,
                    [&](size_t j) -> std::span<const uint8_t> {
                      j += run;
                      if (j + kPrefetchAhead < mine.size()) {
                        const std::vector<uint8_t>& ahead =
                            tuples[mine[j + kPrefetchAhead] >> 1];
                        PrefetchLines(ahead.data(), ahead.size());
                      }
                      return tuples[mine[j] >> 1];
                    },
                    [&](size_t j, Rid rid) {
                      rids[n][run + j] = rid;
                      ++appended[n];
                    }));
            run = end;
          }
          return Status::OK();
        }});
  }
  Status failed = RunNodeTasks(nullptr, std::move(tasks));
  if (failed.ok()) {
    // Loading is not a measured query: settle the pools now (uncharged) so
    // no load-time dirty page is written back on a later query's budget,
    // and so measured queries start cold. A node dying during this settle
    // fails the load too — the caller must see that the batch didn't land.
    std::vector<NodeTask> settles;
    settles.reserve(nodes_.size());
    for (size_t i = 0; i < nodes_.size(); ++i) {
      settles.push_back(NodeTask{static_cast<int>(i),
                                 [this, i](sim::CostTracker&) {
                                   return nodes_[i]->pool().Invalidate();
                                 }});
    }
    failed = RunNodeTasks(nullptr, std::move(settles));
  }
  if (!failed.ok()) {
    // All-or-nothing: tombstone everything this call appended while the
    // touched pages are still cached, then settle the pools (best effort on
    // a node that died mid-load — its data is lost with it regardless).
    for (size_t n = 0; n < num_disk; ++n) {
      for (size_t j = appended[n]; j-- > 0;) {
        nodes_[n]->file(file_of(n, entries[n][j])).Delete(rids[n][j]);
      }
    }
    for (auto& node : nodes_) node->pool().Invalidate();
    return failed;
  }
  meta->num_tuples += tuples.size();
  stats_.Reset(name, meta->schema);
  return Status::OK();
}

Status GammaMachine::ScanFile(
    int node, uint32_t fid,
    const std::function<void(Rid, std::span<const uint8_t>)>& fn) {
  if (fid == catalog::kNoFile) return Status::OK();
  storage::StorageManager& sm = *nodes_[static_cast<size_t>(node)];
  const double scan_cpu = config_.hw.cost.instr_per_tuple_scan;
  return sm.file(fid).Scan([&](Rid rid, std::span<const uint8_t> tuple) {
    sm.charge().Cpu(scan_cpu);
    fn(rid, tuple);
    return true;
  });
}

Status GammaMachine::CopyFile(int node, uint32_t fid,
                              std::vector<uint8_t>* bytes) {
  return ScanFile(node, fid, [&](Rid, std::span<const uint8_t> tuple) {
    bytes->insert(bytes->end(), tuple.begin(), tuple.end());
  });
}

Result<GammaMachine::FragmentBuild> GammaMachine::BuildFragment(
    int node, const Schema& schema, std::span<const IndexMeta> indices,
    std::span<const uint8_t> tuples, std::vector<Rid>* rids) {
  storage::StorageManager& sm = *nodes_[static_cast<size_t>(node)];
  const size_t tuple_size = schema.tuple_size();
  const size_t count = tuples.size() / tuple_size;
  const auto tuple = [&](size_t position) {
    return tuples.subspan(position * tuple_size, tuple_size);
  };

  // Storage order: {key, input position} pairs, radix-sorted on the
  // clustered key, which keeps equal keys in input order (what a stable
  // sort of the tuples gives) without moving tuples. 8-byte pairs halve
  // the sort's memory traffic.
  const auto clustered =
      std::find_if(indices.begin(), indices.end(),
                   [](const IndexMeta& index) { return index.clustered; });
  const bool sort = clustered != indices.end();
  GAMMA_CHECK(count <= UINT32_MAX);
  std::vector<std::pair<int32_t, uint32_t>> order;
  order.reserve(count);
  for (size_t p = 0; p < count; ++p) {
    // The key reads stride across `tuples`; ask for them ahead.
    if (sort && p + 2 * kPrefetchAhead < count) {
      __builtin_prefetch(tuple(p + 2 * kPrefetchAhead).data() +
                         schema.offset(static_cast<size_t>(clustered->attr)));
    }
    order.emplace_back(
        sort ? catalog::IntAttr(schema, tuple(p), clustered->attr) : 0,
        static_cast<uint32_t>(p));
  }
  if (sort) RadixSortByKey(order, [](const auto& o) { return o.first; });

  // Appends run in rid order, so each index's entries are made in rid
  // order while the tuple is at hand.
  FragmentBuild build;
  build.file = sm.CreateFile();
  storage::HeapFile& file = sm.file(build.file);
  if (rids != nullptr) rids->resize(count);
  std::vector<std::vector<storage::BTree::Entry>> entries(indices.size());
  for (auto& index_entries : entries) index_entries.reserve(count);
  const double store_cpu = config_.hw.cost.instr_per_tuple_store;
  GAMMA_RETURN_NOT_OK(file.AppendBatch(
      count,
      [&](size_t j) {
        // The key-order gather jumps across `tuples`.
        if (j + kPrefetchAhead < count) {
          PrefetchLines(tuple(order[j + kPrefetchAhead].second).data(),
                        tuple_size);
        }
        sm.charge().Cpu(store_cpu);
        return tuple(order[j].second);
      },
      [&](size_t j, Rid rid) {
        if (rids != nullptr) (*rids)[order[j].second] = rid;
        const std::span<const uint8_t> bytes = tuple(order[j].second);
        for (size_t k = 0; k < indices.size(); ++k) {
          entries[k].push_back(storage::BTree::Entry{
              catalog::IntAttr(schema, bytes, indices[k].attr), rid});
        }
      }));
  for (auto& index_entries : entries) {
    GAMMA_ASSIGN_OR_RETURN(const storage::IndexId id,
                           BulkLoadIndex(sm, index_entries));
    build.indices.push_back(id);
  }
  return build;
}

void GammaMachine::SwapInFragment(int fragment, RelationMeta* meta,
                                  const FragmentBuild& build) {
  storage::StorageManager& sm = *nodes_[static_cast<size_t>(fragment)];
  const auto f = static_cast<size_t>(fragment);
  for (size_t k = 0; k < meta->indices.size(); ++k) {
    sm.DropIndex(meta->indices[k].per_node_index[f]);
    meta->indices[k].per_node_index[f] = build.indices[k];
  }
  if (meta->per_node_file[f] != catalog::kNoFile) {
    sm.DropFile(meta->per_node_file[f]);
  }
  meta->per_node_file[f] = build.file;
}

Status GammaMachine::BuildIndex(const std::string& name, int attr,
                                bool clustered) {
  GAMMA_ASSIGN_OR_RETURN(RelationMeta * meta, catalog_.Get(name));
  if (attr < 0 || static_cast<size_t>(attr) >= meta->schema.num_attrs()) {
    return Status::InvalidArgument("index attribute out of range");
  }
  if (clustered && !meta->indices.empty()) {
    return Status::FailedPrecondition(
        "build the clustered index before any non-clustered index: "
        "clustering rewrites every fragment and would invalidate rids");
  }
  if (clustered && meta->FindClusteredIndex() != nullptr) {
    return Status::AlreadyExists("clustered index already exists");
  }

  IndexMeta index;
  index.attr = attr;
  index.clustered = clustered;

  // Each node builds its fragment's index (and, for a clustered index, its
  // reordered fragment) independently; the builds land in preassigned
  // slots, so the catalog sees them in node order regardless of which host
  // thread finished first.
  std::vector<FragmentBuild> builds(
      static_cast<size_t>(config_.num_disk_nodes));
  std::vector<NodeTask> tasks;
  tasks.reserve(static_cast<size_t>(config_.num_disk_nodes));
  for (int i = 0; i < config_.num_disk_nodes; ++i) {
    tasks.push_back(NodeTask{i, [&, i](sim::CostTracker&) -> Status {
      storage::StorageManager& sm = *nodes_[static_cast<size_t>(i)];
      storage::HeapFile& fragment =
          sm.file(meta->per_node_file[static_cast<size_t>(i)]);
      FragmentBuild& build = builds[static_cast<size_t>(i)];
      if (clustered) {
        // Rewrite the fragment in key order with its index.
        std::vector<uint8_t> bytes;
        bytes.reserve(fragment.num_tuples() * meta->schema.tuple_size());
        GAMMA_RETURN_NOT_OK(
            fragment.Scan([&](Rid, std::span<const uint8_t> tuple) {
              bytes.insert(bytes.end(), tuple.begin(), tuple.end());
              return true;
            }));
        GAMMA_ASSIGN_OR_RETURN(build, BuildFragment(i, meta->schema,
                                                    {&index, 1}, bytes));
        return Status::OK();
      }
      // Only the index part: scan order is rid order.
      std::vector<storage::BTree::Entry> entries;
      entries.reserve(fragment.num_tuples());
      GAMMA_RETURN_NOT_OK(
          fragment.Scan([&](Rid rid, std::span<const uint8_t> tuple) {
            entries.push_back(storage::BTree::Entry{
                catalog::IntAttr(meta->schema, tuple, attr), rid});
            return true;
          }));
      GAMMA_ASSIGN_OR_RETURN(const storage::IndexId id,
                             BulkLoadIndex(sm, entries));
      build.indices.push_back(id);
      return Status::OK();
    }});
  }
  GAMMA_RETURN_NOT_OK(RunNodeTasks(nullptr, std::move(tasks)));

  // Commit the build on the coordinator, in node order.
  for (int i = 0; i < config_.num_disk_nodes; ++i) {
    const FragmentBuild& build = builds[static_cast<size_t>(i)];
    if (clustered) {
      storage::StorageManager& sm = *nodes_[static_cast<size_t>(i)];
      sm.DropFile(meta->per_node_file[static_cast<size_t>(i)]);
      meta->per_node_file[static_cast<size_t>(i)] = build.file;
    }
    index.per_node_index.push_back(build.indices.front());
  }

  meta->indices.push_back(std::move(index));
  for (auto& node : nodes_) node->pool().Invalidate();
  return Status::OK();
}

Result<GammaMachine::AccessDecision> GammaMachine::ChooseAccessPath(
    const RelationMeta& meta, const SelectQuery& query) const {
  const Predicate& pred = query.predicate;
  // Indexes usable by this (possibly compound) predicate: those whose key
  // attribute it constrains. The remaining conjunction terms run as residual
  // filters inside the index select.
  const IndexMeta* clustered = nullptr;
  const IndexMeta* non_clustered = nullptr;
  for (const IndexMeta& index : meta.indices) {
    if (!pred.BoundsOn(index.attr).has_value()) continue;
    if (index.clustered) {
      if (clustered == nullptr) clustered = &index;
    } else if (non_clustered == nullptr) {
      non_clustered = &index;
    }
  }

  switch (query.access) {
    case AccessPath::kFileScan:
      return AccessDecision{AccessPath::kFileScan, nullptr};
    case AccessPath::kClusteredIndex:
      if (clustered == nullptr) {
        return Status::InvalidArgument(
            "no clustered index of " + meta.name +
            " on a predicate attribute");
      }
      return AccessDecision{AccessPath::kClusteredIndex, clustered};
    case AccessPath::kNonClusteredIndex:
      if (non_clustered == nullptr) {
        return Status::InvalidArgument(
            "no non-clustered index of " + meta.name +
            " on a predicate attribute");
      }
      return AccessDecision{AccessPath::kNonClusteredIndex, non_clustered};
    case AccessPath::kAuto:
      break;
  }
  if (clustered != nullptr) {
    return AccessDecision{AccessPath::kClusteredIndex, clustered};
  }
  if (non_clustered == nullptr) {
    return AccessDecision{AccessPath::kFileScan, nullptr};
  }
  // Non-clustered: worthwhile only for low selectivity (§5.1).
  const auto bounds = *pred.BoundsOn(non_clustered->attr);
  const double span =
      static_cast<double>(bounds.second) - bounds.first + 1;
  const double selectivity =
      span / std::max<double>(1.0, static_cast<double>(meta.num_tuples));
  if (selectivity <= kNonClusteredIndexThreshold) {
    return AccessDecision{AccessPath::kNonClusteredIndex, non_clustered};
  }
  return AccessDecision{AccessPath::kFileScan, nullptr};
}

RelationMeta* GammaMachine::MakeResultRelation(
    const std::string& requested_name, catalog::Schema schema) {
  std::string name =
      requested_name.empty() ? catalog_.FreshResultName("result_")
                             : requested_name;
  RelationMeta meta;
  meta.name = name;
  meta.schema = std::move(schema);
  meta.partitioning = catalog::PartitionSpec::RoundRobin();
  for (int i = 0; i < config_.num_disk_nodes; ++i) {
    // Results land only on surviving nodes; a dead node's slot keeps the
    // kNoFile sentinel so later reads skip it.
    meta.per_node_file.push_back(
        faults_->IsDead(i) ? catalog::kNoFile
                           : nodes_[static_cast<size_t>(i)]->CreateFile());
  }
  GAMMA_CHECK(catalog_.Register(std::move(meta)).ok());
  return *catalog_.Get(name);
}

std::vector<int> GammaMachine::ParticipatingNodes(
    const RelationMeta& meta, const Predicate& pred) const {
  // The window the (possibly compound) predicate imposes on the
  // partitioning attribute, if any.
  std::optional<std::pair<int32_t, int32_t>> window;
  if (meta.partitioning.strategy != PartitionStrategy::kRoundRobin) {
    window = pred.BoundsOn(meta.partitioning.key_attr);
  }
  if (window.has_value() && window->first <= window->second) {
    const catalog::Partitioner partitioner(&meta.partitioning, &meta.schema,
                                           config_.num_disk_nodes);
    if (window->first == window->second) {
      const int home = partitioner.NodeForKey(window->first);
      if (home >= 0) return {home};
    } else if (meta.partitioning.strategy == PartitionStrategy::kRange) {
      // Range declustering localizes range predicates: only the sites whose
      // key ranges intersect [lo, hi] get a select operator (§2: "the
      // optimizer is able to determine the best way of assigning these
      // operators to processors"). Ranges map to sites through the
      // (post-migration) range_nodes indirection, so walk ranges and dedup
      // the serving nodes rather than assuming consecutive sites.
      const auto& bounds = meta.partitioning.range_boundaries;
      const size_t first = static_cast<size_t>(
          std::upper_bound(bounds.begin(), bounds.end(), window->first) -
          bounds.begin());
      const size_t last = static_cast<size_t>(
          std::upper_bound(bounds.begin(), bounds.end(), window->second) -
          bounds.begin());
      std::set<int> sites;
      for (size_t r = first; r <= last && r < meta.partitioning.num_ranges();
           ++r) {
        sites.insert(meta.partitioning.RangeNode(r, config_.num_disk_nodes));
      }
      if (!sites.empty()) return {sites.begin(), sites.end()};
    }
  }
  return AllFragments();
}

/// \brief The result side of a select or join: a fresh round-robin relation
/// with one StoreConsumer per store site, or the host.
///
/// Producers route result tuples through split tables into an
/// exec::Exchange whose consumer columns are nodes(). Drain() replays each
/// column in ascending producer order (the arrival order of the sequential
/// schedule); Close() ends the statement's last phase.
class GammaMachine::ResultStore {
 public:
  /// Opens the result relation `name` (a fresh name when empty) on
  /// `store_nodes` when `store`, registered as the statement's partial
  /// result; otherwise results are gathered into `result.returned`.
  ResultStore(GammaMachine& machine, Statement& stmt, bool store,
              const std::string& name, const Schema& schema,
              const std::vector<int>& store_nodes, QueryResult& result)
      : m_(machine), stmt_(stmt), result_(result) {
    if (!store) {
      nodes_ = {m_.config_.host_node()};
      return;
    }
    meta_ = m_.MakeResultRelation(name, schema);
    result_.result_relation = meta_->name;
    stmt_.set_partial_result(meta_->name);
    nodes_ = store_nodes;
    for (int node : nodes_) {
      storage::StorageManager& sm = *m_.nodes_[static_cast<size_t>(node)];
      stores_.push_back(std::make_unique<exec::StoreConsumer>(
          &sm.file(meta_->per_node_file[static_cast<size_t>(node)]),
          &sm.charge()));
    }
  }

  bool stored() const { return meta_ != nullptr; }
  /// The consumer node of each exchange column: the store sites, or the
  /// host.
  const std::vector<int>& nodes() const { return nodes_; }

  /// The first failed store append.
  Status status() const {
    for (const auto& store : stores_) GAMMA_RETURN_NOT_OK(store->status());
    return Status::OK();
  }

  /// Replays every tuple buffered in `ex` to its consumer, then clears
  /// `ex`. Each store site appends and logs its column in one host task;
  /// host-bound tuples are gathered by the coordinator (the host is not a
  /// simulated storage node; its packet costs were charged at the split).
  Status Drain(exec::Exchange& ex) {
    RecoveryLog& log = stmt_.log();
    if (stored()) {
      std::vector<NodeTask> tasks;
      for (size_t d = 0; d < stores_.size(); ++d) {
        const int node = nodes_[d];
        tasks.push_back(NodeTask{
            node, [&, d, node](sim::CostTracker& shard) {
              ex.Drain(d, [&](std::span<const uint8_t> t) {
                stores_[d]->Consume(t);
                log.Append(node, static_cast<uint32_t>(t.size()), &shard);
              });
              return Status::OK();
            }});
      }
      GAMMA_RETURN_NOT_OK(m_.RunNodeTasks(&stmt_.tracker(), std::move(tasks)));
      log.Settle();
    } else {
      ex.Drain(0, [this](std::span<const uint8_t> t) {
        result_.returned.emplace_back(t.begin(), t.end());
      });
    }
    ex.Clear();
    return Status::OK();
  }

  /// Ends the statement's last phase: surfaces a failed store, commits the
  /// stores' log records, flushes every pool, closes the phase and records
  /// the result cardinality.
  Status Close() {
    GAMMA_RETURN_NOT_OK(status());
    if (stored()) {
      for (int node : nodes_) stmt_.log().Commit(node);
    }
    GAMMA_RETURN_NOT_OK(m_.FlushAllPools());
    stmt_.tracker().EndPhase();
    if (!stored()) {
      result_.result_tuples = result_.returned.size();
      return Status::OK();
    }
    uint64_t total = 0;
    for (const auto& store : stores_) total += store->stored();
    result_.result_tuples = total;
    meta_->num_tuples = total;
    return Status::OK();
  }

 private:
  GammaMachine& m_;
  Statement& stmt_;
  QueryResult& result_;
  RelationMeta* meta_ = nullptr;
  std::vector<int> nodes_;
  std::vector<std::unique_ptr<exec::StoreConsumer>> stores_;
};

Result<QueryResult> GammaMachine::RunSelect(const SelectQuery& query) {
  return FinalizeObs("select",
                     RunWithFailover([&] { return RunSelectAttempt(query); }));
}

Result<QueryResult> GammaMachine::RunSelectAttempt(const SelectQuery& query) {
  GAMMA_ASSIGN_OR_RETURN(RelationMeta * meta, catalog_.Get(query.relation));
  GAMMA_ASSIGN_OR_RETURN(const AccessDecision decision,
                         ChooseAccessPath(*meta, query));
  if (query.store_result) {
    GAMMA_RETURN_NOT_OK(catalog_.CheckResult(query.result_name, meta->schema,
                                             config_.page_size));
  }
  Statement stmt(this);
  sim::CostTracker& tracker = stmt.tracker();

  const std::vector<int> fragments =
      ParticipatingNodes(*meta, query.predicate);
  // Resolve which node serves each participating fragment before any
  // operator is scheduled (primaries, or chained backups of dead nodes).
  GAMMA_ASSIGN_OR_RETURN(const std::vector<FragmentCopy> sources,
                         ServingCopies(*meta, fragments));
  // A single-site selection stores its (single-tuple) result at one site;
  // otherwise results are declustered round-robin over every live disk
  // node (§4).
  QueryResult result;
  ResultStore results(*this, stmt, query.store_result, query.result_name,
                      meta->schema,
                      sources.size() == 1 ? std::vector<int>{sources[0].node}
                                          : LiveDiskNodes(),
                      result);

  // Host submits the compiled query to the scheduler; completion flows back.
  tracker.ChargeControlMessage(config_.host_node(), config_.scheduler_node(),
                               /*blocking=*/true);
  tracker.ChargeControlMessage(config_.scheduler_node(), config_.host_node(),
                               /*blocking=*/true);
  // Scheduling: one select operator per source site, plus one store operator
  // per store site when the result is kept in the database.
  tracker.ChargeScheduling(1, static_cast<uint32_t>(sources.size()));
  if (results.stored()) {
    tracker.ChargeScheduling(1, static_cast<uint32_t>(results.nodes().size()));
  }

  tracker.BeginPhase("select", sim::PhaseKind::kPipelined);
  // Charged inside the phase so the lock-manager CPU shows up in the cost
  // model.
  GAMMA_RETURN_NOT_OK(LockForRead(tracker, stmt.txn(), *meta, fragments));

  // Producers route each selected tuple through the split table into the
  // (source, consumer) exchange cell — the same routing decisions and
  // network charges as direct delivery. Store destinations are rotated by
  // the source index so concurrent round-robin streams interleave evenly.
  exec::Exchange ex(sources.size(), results.nodes().size(),
                    meta->schema.tuple_size());
  GAMMA_RETURN_NOT_OK(ScanSources(
      tracker, sources,
      [&](size_t s, const FragmentCopy& src, storage::StorageManager& sm,
          sim::CostTracker& shard) -> Status {
        SplitTable split(src.node, &meta->schema,
                         exec::RouteSpec::RoundRobin(),
                         exec::ExchangeDestinations(ex, s, results.nodes(), s),
                         &shard);
        const exec::TupleSink emit = [&split](std::span<const uint8_t> t) {
          split.Send(t);
        };
        const storage::HeapFile& fragment = sm.file(src.file);
        // Backups carry no indexes: a backup-served fragment is always
        // scanned.
        const AccessPath path =
            src.backup ? AccessPath::kFileScan : decision.path;
        switch (path) {
          case AccessPath::kFileScan:
            GAMMA_RETURN_NOT_OK(exec::SelectScan(fragment, meta->schema,
                                                 query.predicate, sm.charge(),
                                                 emit)
                                    .status());
            break;
          case AccessPath::kClusteredIndex:
            GAMMA_RETURN_NOT_OK(
                exec::ClusteredIndexSelect(
                    fragment,
                    sm.index(decision.index->per_node_index
                                 [static_cast<size_t>(src.node)]),
                    decision.index->attr, meta->schema, query.predicate,
                    sm.charge(), emit)
                    .status());
            break;
          case AccessPath::kNonClusteredIndex:
            GAMMA_RETURN_NOT_OK(
                exec::NonClusteredIndexSelect(
                    fragment,
                    sm.index(decision.index->per_node_index
                                 [static_cast<size_t>(src.node)]),
                    decision.index->attr, meta->schema, query.predicate,
                    sm.charge(), emit)
                    .status());
            break;
          case AccessPath::kAuto:
            GAMMA_CHECK_MSG(false, "unresolved access path");
        }
        split.Close();
        return Status::OK();
      }));
  GAMMA_RETURN_NOT_OK(results.Drain(ex));
  GAMMA_RETURN_NOT_OK(results.Close());
  return stmt.Finish(std::move(result));
}

/// \brief One join attempt (§6): both inputs' serving copies, the join
/// sites' operators, the result split tables and store, and the phase
/// functions RunJoinAttempt calls in order — SampleSkew (bucket-map routing
/// only), Build, Probe, the algorithm's finish (FinishSites or
/// OverflowRounds), Finalize. Each phase runs all of its
/// barriers, so a per-phase host timer wraps one call.
struct GammaMachine::JoinRun {
  /// Opens the result, charges the query's control messages and operator
  /// scheduling, sets up the result split tables and join-site operators
  /// and decides the build/probe routing.
  JoinRun(GammaMachine& machine, Statement& statement, const JoinQuery& query,
          const RelationMeta& inner_rel, const RelationMeta& outer_rel,
          std::vector<int> site_nodes, std::vector<FragmentCopy> inner_copies,
          std::vector<FragmentCopy> outer_copies)
      : m(machine),
        stmt(statement),
        tracker(statement.tracker()),
        q(query),
        inner(inner_rel),
        outer(outer_rel),
        join_nodes(std::move(site_nodes)),
        nsites(join_nodes.size()),
        site_capacity(machine.config_.join_memory_total / nsites),
        inner_sources(std::move(inner_copies)),
        outer_sources(std::move(outer_copies)),
        result_schema(Schema::Concat(inner.schema, outer.schema)),
        results(machine, statement, query.store_result, query.result_name,
                result_schema, machine.LiveDiskNodes(), result),
        res_ex(nsites, results.nodes().size(), result_schema.tuple_size()) {
    const GammaConfig& config = m.config_;
    tracker.ChargeControlMessage(config.host_node(), config.scheduler_node(),
                                 /*blocking=*/true);
    tracker.ChargeControlMessage(config.scheduler_node(), config.host_node(),
                                 /*blocking=*/true);
    // Scheduling: two selects on the disk nodes, build + join on the join
    // sites ("a join is logically composed of two operators", §6.2.3), one
    // store on the disk nodes.
    tracker.ChargeScheduling(2, static_cast<uint32_t>(config.num_disk_nodes));
    tracker.ChargeScheduling(2, static_cast<uint32_t>(nsites));
    if (results.stored()) {
      tracker.ChargeScheduling(1,
                               static_cast<uint32_t>(results.nodes().size()));
    }
    for (size_t j = 0; j < nsites; ++j) {
      result_splits.push_back(std::make_unique<SplitTable>(
          join_nodes[j], &result_schema, exec::RouteSpec::RoundRobin(),
          exec::ExchangeDestinations(res_ex, j, results.nodes(), j),
          &tracker));
      result_sinks.push_back(
          [split = result_splits.back().get()](std::span<const uint8_t> t) {
            split->Send(t);
          });
    }

    // Join sites: Simple (Gamma's algorithm), Hybrid (the §8 replacement),
    // or sort-merge (the Teradata-style alternative).
    const uint64_t expected_build = q.expected_build_tuples != 0
                                        ? q.expected_build_tuples
                                        : inner.num_tuples;
    seed0 = m.next_salt_++;
    for (size_t j = 0; j < nsites; ++j) {
      storage::StorageManager* sm =
          m.nodes_[static_cast<size_t>(join_nodes[j])].get();
      switch (q.algorithm) {
        case JoinAlgorithm::kHybridHash: {
          const uint64_t expected_bytes =
              (expected_build * (inner.schema.tuple_size() +
                                 exec::JoinHashTable::kPerEntryOverhead)) /
              nsites;
          sites.push_back(std::make_unique<exec::HybridHashJoinSite>(
              join_nodes[j], sm, &inner.schema, &outer.schema, q.inner_attr,
              q.outer_attr, site_capacity, expected_bytes, seed0 ^ 0xA5A5));
          break;
        }
        case JoinAlgorithm::kSimpleHash: {
          auto site = std::make_unique<exec::HashJoinSite>(
              join_nodes[j], sm, &inner.schema, &outer.schema, q.inner_attr,
              q.outer_attr, site_capacity);
          site->BeginRound(seed0);
          sites.push_back(std::move(site));
          break;
        }
        case JoinAlgorithm::kSortMerge:
          sites.push_back(std::make_unique<exec::MergeJoinSite>(
              join_nodes[j], sm, &inner.schema, &outer.schema, q.inner_attr,
              q.outer_attr, site_capacity));
          break;
      }
    }

    // Optional bit-vector filter over the building relation's join keys,
    // consulted by the probing side's split tables (§2).
    if (q.use_bit_filter) {
      filter = std::make_unique<exec::BitVectorFilter>(
          static_cast<uint32_t>(std::max<uint64_t>(expected_build * 8, 1024)),
          seed0 ^ 0xF117E4);
    }

    // Gamma uses the same hash function to decluster relations at load time
    // and to split them for joins (§6.2.1) — when the join attribute is the
    // partitioning attribute, every input tuple of a Local join therefore
    // short-circuits, and roughly half do under Allnodes.
    uint64_t routing_salt = HashBytes(&seed0, sizeof(seed0), 0x407E);
    if (inner.partitioning.strategy == PartitionStrategy::kHashed &&
        inner.partitioning.key_attr == q.inner_attr) {
      routing_salt = inner.partitioning.hash_salt;
    } else if (outer.partitioning.strategy == PartitionStrategy::kHashed &&
               outer.partitioning.key_attr == q.outer_attr) {
      routing_salt = outer.partitioning.hash_salt;
    }
    build_route = exec::RouteSpec::HashAttr(q.inner_attr, routing_salt);
    probe_route = exec::RouteSpec::HashAttr(q.outer_attr, routing_salt);

    // Skew-aware routing: when the frequency sketches predict that hash
    // routing would leave one site with well over its fair share,
    // SampleSkew replaces both routes with one bucket map.
    switch (q.routing) {
      case SplitRouting::kHash:
        break;
      case SplitRouting::kBucketMap:
        use_bucket_map = true;
        break;
      case SplitRouting::kAuto:
        use_bucket_map =
            opt::PredictJoinSkew(m.stats_.Find(q.outer), q.outer_attr,
                                 m.stats_.Find(q.inner), q.inner_attr, nsites)
                .use_bucket_map;
        break;
    }
  }

  /// Charged sample phase: every kSkewSampleStride-th page of each fragment
  /// of both inputs is read (disk + per-tuple CPU through the node's charge
  /// context) and the surviving join keys collected per fragment, so the
  /// coordinator merges them in canonical fragment order regardless of host
  /// thread count. Both routes then go through one virtual-bucket map
  /// balanced by LPT — a build tuple and the probe tuples matching it have
  /// to meet at one site. Rebuilt on every failover attempt, against
  /// whatever copies are then serving.
  Status SampleSkew() {
    const uint64_t bucket_salt = HashBytes(&seed0, sizeof(seed0), 0xB0C4);
    exec::SplitTableBuilder builder(exec::ChooseBucketCount(nsites),
                                    bucket_salt);
    tracker.BeginPhase("skew_sample", sim::PhaseKind::kPipelined);
    std::vector<std::vector<int32_t>> inner_keys(inner_sources.size());
    std::vector<std::vector<int32_t>> outer_keys(outer_sources.size());
    GAMMA_RETURN_NOT_OK(SampleKeys(inner_sources, inner.schema, q.inner_attr,
                                   q.inner_pred, inner_keys));
    GAMMA_RETURN_NOT_OK(SampleKeys(outer_sources, outer.schema, q.outer_attr,
                                   q.outer_pred, outer_keys));
    tracker.EndPhase();
    for (size_t f = 0; f < inner_keys.size(); ++f) {
      for (const int32_t key : inner_keys[f]) {
        builder.AddSampleKey(key, inner_sources[f].node);
      }
    }
    for (size_t f = 0; f < outer_keys.size(); ++f) {
      for (const int32_t key : outer_keys[f]) {
        builder.AddWeightedKey(key, exec::kSkewProbeWeight,
                               outer_sources[f].node);
      }
    }
    const exec::SkewAssignment assignment = builder.Build(join_nodes);
    build_route = exec::RouteSpec::BucketMap(q.inner_attr, bucket_salt,
                                             assignment.bucket_map);
    probe_route = exec::RouteSpec::BucketMap(q.outer_attr, bucket_salt,
                                             assignment.bucket_map);
    return Status::OK();
  }

  /// Select inner at every serving site and split it on the join attribute
  /// to the join sites, which build. Producers buffer into the (fragment,
  /// site) exchange; after the barrier each site drains its column in
  /// ascending fragment order — the arrival order of the sequential loop.
  Status Build() {
    tracker.BeginPhase("build", sim::PhaseKind::kPipelined);
    // 2PL footprint for both inputs, inner first.
    const std::vector<int> fragments = m.AllFragments();
    GAMMA_RETURN_NOT_OK(m.LockForRead(tracker, stmt.txn(), inner, fragments));
    GAMMA_RETURN_NOT_OK(m.LockForRead(tracker, stmt.txn(), outer, fragments));

    exec::Exchange build_ex(inner_sources.size(), nsites,
                            inner.schema.tuple_size());
    GAMMA_RETURN_NOT_OK(m.ScanSources(
        tracker, inner_sources,
        [&](size_t f, const FragmentCopy& src, storage::StorageManager& sm,
            sim::CostTracker& shard) -> Status {
          SplitTable split(src.node, &inner.schema, build_route,
                           exec::ExchangeDestinations(build_ex, f, join_nodes),
                           &shard);
          GAMMA_RETURN_NOT_OK(
              exec::SelectScan(
                  sm.file(src.file), inner.schema, q.inner_pred, sm.charge(),
                  [&](std::span<const uint8_t> t) {
                    if (filter != nullptr) {
                      filter->Insert(TupleView(&inner.schema, t)
                                         .GetInt(static_cast<size_t>(
                                             q.inner_attr)));
                    }
                    split.Send(t);
                  })
                  .status());
          split.Close();
          return Status::OK();
        }));
    GAMMA_RETURN_NOT_OK(RunSiteTasks([&](size_t j, sim::CostTracker&) {
      build_ex.Drain(j, Deliver(/*probe=*/false, j));
      return Status::OK();
    }));
    build_ex.Clear();
    return EndSitePhase();
  }

  /// Select outer, split it with the build's route, probe.
  Status Probe() {
    tracker.BeginPhase("probe", sim::PhaseKind::kPipelined);
    exec::Exchange probe_ex(outer_sources.size(), nsites,
                            outer.schema.tuple_size());
    GAMMA_RETURN_NOT_OK(m.ScanSources(
        tracker, outer_sources,
        [&](size_t f, const FragmentCopy& src, storage::StorageManager& sm,
            sim::CostTracker& shard) -> Status {
          SplitTable split(src.node, &outer.schema, probe_route,
                           exec::ExchangeDestinations(probe_ex, f, join_nodes),
                           &shard, filter.get(), q.outer_attr);
          GAMMA_RETURN_NOT_OK(
              exec::SelectScan(
                  sm.file(src.file), outer.schema, q.outer_pred, sm.charge(),
                  [&split](std::span<const uint8_t> t) { split.Send(t); })
                  .status());
          split.Close();
          return Status::OK();
        }));
    GAMMA_RETURN_NOT_OK(RunSiteTasks([&](size_t j, sim::CostTracker&) {
      probe_ex.Drain(j, Deliver(/*probe=*/true, j));
      return Status::OK();
    }));
    probe_ex.Clear();
    GAMMA_RETURN_NOT_OK(results.Drain(res_ex));
    return EndSitePhase();
  }

  /// Hybrid and sort-merge: every site joins what it kept back locally —
  /// Hybrid its spooled buckets (one extra read each), sort-merge its two
  /// sorted spools — in one phase named `phase`.
  Status FinishSites(const char* phase) {
    tracker.BeginPhase(phase, sim::PhaseKind::kPipelined);
    GAMMA_RETURN_NOT_OK(RunSiteTasks([&](size_t j, sim::CostTracker&) {
      return sites[j]->Finish(result_sinks[j]);
    }));
    GAMMA_RETURN_NOT_OK(results.Drain(res_ex));
    return EndSitePhase();
  }

  /// Simple hash join: recursively redistribute and re-join the overflow
  /// partitions. Each round uses a fresh split-table hash, so overflow
  /// tuples no longer align with the storage partitioning (§6.2.2). If a
  /// round makes no progress — a single key's duplicates exceed the table,
  /// which no residency split can fix — the next round is forced: it
  /// over-commits memory instead of spooling. So every unforced round
  /// spools strictly fewer tuples than the round before it and a forced
  /// round spools none: the loop ends without a round cap.
  Status OverflowRounds() {
    int round = 0;
    uint64_t prev_spooled = UINT64_MAX;
    for (;;) {
      bool any_overflow = false;
      uint64_t spooled = 0;
      for (size_t j = 0; j < nsites; ++j) {
        const exec::HashJoinSite& site = simple(j);
        any_overflow = any_overflow || site.HasOverflow();
        spooled +=
            site.build_spool().num_tuples() + site.probe_spool().num_tuples();
      }
      if (!any_overflow) return Status::OK();
      const bool forced = spooled >= prev_spooled;
      prev_spooled = spooled;
      ++round;
      tracker.AddOverflowRound();
      const uint64_t round_seed = m.next_salt_++;
      const uint64_t round_salt =
          HashBytes(&round_seed, sizeof(round_seed), 0x0F107);
      for (size_t j = 0; j < nsites; ++j) {
        simple(j).BeginRound(round_seed, forced);
      }
      GAMMA_RETURN_NOT_OK(
          RedistributeSpools(/*probe=*/false, round, round_salt));
      GAMMA_RETURN_NOT_OK(
          RedistributeSpools(/*probe=*/true, round, round_salt));
    }
  }

  /// One overflow round's phase for the build (or probe) side: every site
  /// rescans the spool the previous round left it and splits it, rehashed
  /// with `salt`, to the join sites.
  Status RedistributeSpools(bool probe, int round, uint64_t salt) {
    const RelationMeta& rel = probe ? outer : inner;
    const int attr = probe ? q.outer_attr : q.inner_attr;
    tracker.BeginPhase((probe ? "overflow_probe_" : "overflow_build_") +
                           std::to_string(round),
                       sim::PhaseKind::kPipelined);
    exec::Exchange oex(nsites, nsites, rel.schema.tuple_size());
    GAMMA_RETURN_NOT_OK(
        RunSiteTasks([&](size_t j, sim::CostTracker& shard) -> Status {
          storage::StorageManager& sm =
              *m.nodes_[static_cast<size_t>(join_nodes[j])];
          SplitTable split(join_nodes[j], &rel.schema,
                           exec::RouteSpec::HashAttr(attr, salt),
                           exec::ExchangeDestinations(oex, j, join_nodes),
                           &shard);
          const storage::HeapFile& spool =
              probe ? simple(j).prev_probe_spool()
                    : simple(j).prev_build_spool();
          GAMMA_RETURN_NOT_OK(
              spool.Scan([&](Rid, std::span<const uint8_t> t) {
                sm.charge().Cpu(m.config_.hw.cost.instr_per_tuple_scan);
                split.Send(t);
                return true;
              }));
          split.Close();
          return Status::OK();
        }));
    GAMMA_RETURN_NOT_OK(RunSiteTasks([&](size_t k, sim::CostTracker&) {
      oex.Drain(k, Deliver(probe, k));
      return Status::OK();
    }));
    if (probe) GAMMA_RETURN_NOT_OK(results.Drain(res_ex));
    return EndSitePhase();
  }

  /// Final packets / end-of-stream from the join operators to the result.
  Status Finalize() {
    tracker.BeginPhase("finalize", sim::PhaseKind::kPipelined);
    for (auto& split : result_splits) split->Close();
    GAMMA_RETURN_NOT_OK(results.Drain(res_ex));
    GAMMA_RETURN_NOT_OK(CheckSites());
    GAMMA_RETURN_NOT_OK(results.Close());
    // Site teardown drops the spool files before the tracker unbinds.
    sites.clear();
    return Status::OK();
  }

  /// Runs `body(j, shard)` as one host task per join site, with site j's
  /// result split rebound to that task's shard (probe/bucket/merge work
  /// emits result tuples through it) and restored afterwards.
  Status RunSiteTasks(
      const std::function<Status(size_t, sim::CostTracker&)>& body) {
    std::vector<NodeTask> tasks;
    tasks.reserve(nsites);
    for (size_t j = 0; j < nsites; ++j) {
      tasks.push_back(NodeTask{
          join_nodes[j], [&, j](sim::CostTracker& shard) {
            result_splits[j]->BindTracker(&shard);
            const Status st = body(j, shard);
            result_splits[j]->BindTracker(&tracker);
            return st;
          }});
    }
    return m.RunNodeTasks(&tracker, std::move(tasks));
  }

  /// Hands arriving build (or probe) tuples to site j's operator.
  exec::TupleSink Deliver(bool probe, size_t j) {
    return [site = sites[j].get(), emit = &result_sinks[j],
            probe](std::span<const uint8_t> t) {
      probe ? site->AddProbeTuple(t, *emit) : site->AddBuildTuple(t);
    };
  }

  /// Site j's Simple hash join, for the overflow rounds that span sites.
  exec::HashJoinSite& simple(size_t j) const {
    return static_cast<exec::HashJoinSite&>(*sites[j]);
  }

  /// Push-based operators latch their first error; surfaced between phases.
  Status CheckSites() const {
    for (const auto& site : sites) GAMMA_RETURN_NOT_OK(site->status());
    return results.status();
  }

  /// Closes a join-site phase: latched errors, pool flush, phase end.
  Status EndSitePhase() {
    GAMMA_RETURN_NOT_OK(CheckSites());
    GAMMA_RETURN_NOT_OK(m.FlushAllPools());
    tracker.EndPhase();
    return Status::OK();
  }

  /// Collects the join keys of every kSkewSampleStride-th page of each
  /// serving copy into `keys[source]`. Unlike ScanSources, sampling takes
  /// no fragment lock, so it charges no `instr_per_lock`.
  Status SampleKeys(const std::vector<FragmentCopy>& sources,
                    const Schema& schema, int attr, const Predicate& pred,
                    std::vector<std::vector<int32_t>>& keys) {
    std::vector<NodeTask> tasks;
    for (const NodeGroup& group : GroupByServingNode(sources)) {
      tasks.push_back(NodeTask{
          group.node, [&, group](sim::CostTracker& shard) -> Status {
            storage::StorageManager& sm =
                *m.nodes_[static_cast<size_t>(group.node)];
            const auto& cost = shard.hw().cost;
            for (size_t f : group.members) {
              const FragmentCopy& src = sources[f];
              const storage::HeapFile& file = sm.file(src.file);
              for (uint32_t p = 0; p < file.num_pages();
                   p += exec::kSkewSampleStride) {
                GAMMA_RETURN_NOT_OK(file.ScanPages(
                    p, p, [&](Rid, std::span<const uint8_t> t) {
                      sm.charge().Cpu(cost.instr_per_tuple_scan +
                                      cost.instr_per_tuple_hash);
                      if (pred.Eval(t, schema)) {
                        keys[f].push_back(TupleView(&schema, t).GetInt(
                            static_cast<size_t>(attr)));
                      }
                      return true;
                    }));
              }
              // Sampled counts return to the scheduler in one message.
              shard.ChargeControlMessage(src.node, m.config_.scheduler_node(),
                                         false);
            }
            return Status::OK();
          }});
    }
    return m.RunNodeTasks(&tracker, std::move(tasks));
  }

  GammaMachine& m;
  Statement& stmt;
  sim::CostTracker& tracker;
  const JoinQuery& q;
  const RelationMeta& inner;
  const RelationMeta& outer;
  const std::vector<int> join_nodes;
  const size_t nsites;
  const uint64_t site_capacity;
  const std::vector<FragmentCopy> inner_sources;
  const std::vector<FragmentCopy> outer_sources;
  const Schema result_schema;
  QueryResult result;
  ResultStore results;
  /// Result tuples buffered per (site, consumer) until the next drain.
  exec::Exchange res_ex;
  /// Per-site result split tables (join output is declustered round-robin
  /// to the store operators); they stay open across overflow rounds.
  std::vector<std::unique_ptr<SplitTable>> result_splits;
  std::vector<exec::TupleSink> result_sinks;
  uint64_t seed0 = 0;
  /// One join operator per site, of the query's algorithm.
  std::vector<std::unique_ptr<exec::JoinSite>> sites;
  std::unique_ptr<exec::BitVectorFilter> filter;
  bool use_bucket_map = false;
  exec::RouteSpec build_route;
  exec::RouteSpec probe_route;
};

Result<QueryResult> GammaMachine::RunJoin(const JoinQuery& query) {
  return FinalizeObs("join",
                     RunWithFailover([&] { return RunJoinAttempt(query); }));
}

Result<QueryResult> GammaMachine::RunJoinAttempt(const JoinQuery& query) {
  GAMMA_ASSIGN_OR_RETURN(RelationMeta * outer, catalog_.Get(query.outer));
  GAMMA_ASSIGN_OR_RETURN(RelationMeta * inner, catalog_.Get(query.inner));
  if (query.outer_attr < 0 ||
      static_cast<size_t>(query.outer_attr) >= outer->schema.num_attrs() ||
      query.inner_attr < 0 ||
      static_cast<size_t>(query.inner_attr) >= inner->schema.num_attrs()) {
    return Status::InvalidArgument("join attribute out of range");
  }
  if (query.store_result) {
    GAMMA_RETURN_NOT_OK(catalog_.CheckResult(
        query.result_name, Schema::Concat(inner->schema, outer->schema),
        config_.page_size));
  }

  // Join sites per execution mode (§6); dead disk nodes host no operators.
  std::vector<int> join_nodes;
  switch (query.mode) {
    case JoinMode::kLocal:
      join_nodes = LiveDiskNodes();
      break;
    case JoinMode::kRemote:
      if (config_.num_diskless_nodes == 0) {
        return Status::InvalidArgument("Remote join with no diskless nodes");
      }
      for (int i = 0; i < config_.num_diskless_nodes; ++i) {
        join_nodes.push_back(config_.num_disk_nodes + i);
      }
      break;
    case JoinMode::kAllnodes:
      join_nodes = LiveDiskNodes();
      for (int i = 0; i < config_.num_diskless_nodes; ++i) {
        join_nodes.push_back(config_.num_disk_nodes + i);
      }
      break;
  }
  if (join_nodes.empty()) {
    return Status::Unavailable("no surviving join sites");
  }

  Statement stmt(this);
  // Resolve the serving copy of every fragment of both inputs up front.
  const std::vector<int> fragments = AllFragments();
  GAMMA_ASSIGN_OR_RETURN(std::vector<FragmentCopy> inner_sources,
                         ServingCopies(*inner, fragments));
  GAMMA_ASSIGN_OR_RETURN(std::vector<FragmentCopy> outer_sources,
                         ServingCopies(*outer, fragments));
  JoinRun run(*this, stmt, query, *inner, *outer, std::move(join_nodes),
              std::move(inner_sources), std::move(outer_sources));
  if (run.use_bucket_map) GAMMA_RETURN_NOT_OK(run.SampleSkew());
  GAMMA_RETURN_NOT_OK(run.Build());
  GAMMA_RETURN_NOT_OK(run.Probe());
  switch (query.algorithm) {
    case JoinAlgorithm::kHybridHash:
      GAMMA_RETURN_NOT_OK(run.FinishSites("hybrid_buckets"));
      break;
    case JoinAlgorithm::kSortMerge:
      GAMMA_RETURN_NOT_OK(run.FinishSites("sort_merge"));
      break;
    case JoinAlgorithm::kSimpleHash:
      GAMMA_RETURN_NOT_OK(run.OverflowRounds());
      break;
  }
  GAMMA_RETURN_NOT_OK(run.Finalize());
  return stmt.Finish(std::move(run.result));
}

}  // namespace gammadb::gamma
