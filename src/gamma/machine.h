#ifndef GAMMA_GAMMA_MACHINE_H_
#define GAMMA_GAMMA_MACHINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "common/units.h"
#include "exec/node_executor.h"
#include "gamma/query.h"
#include "gamma/recovery_log.h"
#include "gamma/wal.h"
#include "obs/bounded_ring.h"
#include "obs/journal.h"
#include "obs/trace.h"
#include "opt/statistics.h"
#include "sim/fault_injector.h"
#include "sim/hardware.h"
#include "storage/deferred_update.h"
#include "storage/storage_manager.h"
#include "txn/txn_manager.h"

namespace gammadb::elastic {
class ElasticMigrator;
}  // namespace gammadb::elastic

namespace gammadb::gamma {

/// Host-side parse/compile/dispatch before the scheduler takes over, charged
/// to every statement and estimated by the cost model.
inline constexpr double kHostSetupSec = 0.04;

/// \brief Configuration of one simulated Gamma machine.
///
/// The paper's machine is 8 processors with disks + 8 diskless query
/// processors + a scheduling processor, 2 MB of memory each, 4 KB disk
/// pages. The experiments vary `num_disk_nodes` (Figs 1-4, 9-12),
/// `page_size` (Figs 5-8, 14-15) and `join_memory_total` (Fig 13, Table 2).
struct GammaConfig {
  int num_disk_nodes = 8;
  int num_diskless_nodes = 8;
  uint32_t page_size = 4096;
  /// Buffer pool per node. WiSS-era sizing: most of the 2 MB held code and
  /// join hash tables, so the page buffer is small.
  uint64_t buffer_pool_bytes = 64 * kKiB;
  /// Memory for join hash tables, summed across the participating join
  /// sites. The paper holds this constant while varying processors (§1) and
  /// sweeps it in §6.2.2.
  uint64_t join_memory_total = 8 * kMiB;
  /// Ship log records for every stored/updated tuple to a dedicated
  /// recovery server (the §8 plan; the evaluated Gamma ran without it), and
  /// allow Crash()/Recover(), checkpoints, node reintegration and elastic
  /// migration, which replay the write-ahead log. Every machine keeps that
  /// log, since every abort undoes through it; this flag decides only what
  /// the logging is charged.
  bool enable_logging = false;
  /// With logging on, the recovery server writes a fuzzy checkpoint after
  /// this many sealed commit records (0 = only explicit Checkpoint calls).
  uint64_t checkpoint_every_commits = 32;
  /// Seeded fault schedule (transient I/O errors, page corruption, dropped
  /// packets, node deaths) consulted by every disk node and data packet.
  /// The default config injects nothing.
  sim::FaultConfig fault;
  /// Keep a backup copy of fragment f on disk node (f+1) % n so a single
  /// node death leaves every fragment readable (chained declustering; the
  /// availability design Gamma adopted after the paper).
  bool chained_declustering = false;
  /// Observability: when enabled, every successful statement carries a
  /// derived Profile (trace spans, per-device utilization) in its
  /// QueryResult. Derivation happens after cost accounting closes, so it
  /// never changes a query's simulated seconds.
  obs::TraceOptions trace;
  sim::MachineParams hw = sim::MachineParams::GammaDefaults();

  int total_query_nodes() const {
    return num_disk_nodes + num_diskless_nodes;
  }
  int scheduler_node() const { return total_query_nodes(); }
  int host_node() const { return total_query_nodes() + 1; }
  int recovery_node() const { return total_query_nodes() + 2; }
  int tracker_nodes() const { return total_query_nodes() + 3; }
};

/// \brief The Gamma database machine: horizontally partitioned relations on
/// the disk nodes, dataflow operators connected by split tables, hash-based
/// parallel joins, and a calibrated 1988 cost model producing simulated
/// response times for every query.
///
/// Queries execute for real (correct answers over real pages and indices);
/// `QueryResult::metrics` carries the simulated elapsed time and per-phase,
/// per-resource breakdown.
///
/// Failure model: disk nodes may suffer transient I/O faults (retried by the
/// buffer pool at simulated cost), page corruption (caught by per-page
/// checksums) and permanent death. With chained declustering enabled a read
/// query whose node dies mid-flight is aborted, its locks and partial result
/// dropped, and retried exactly once against the surviving configuration —
/// backup fragments stand in for dead primaries. When no copy of a fragment
/// survives (two adjacent dead nodes), queries return a descriptive
/// Unavailable status and the machine stays usable.
class GammaMachine {
 public:
  explicit GammaMachine(GammaConfig config);

  GammaMachine(const GammaMachine&) = delete;
  GammaMachine& operator=(const GammaMachine&) = delete;

  const GammaConfig& config() const { return config_; }
  catalog::Catalog& catalog() { return catalog_; }
  const catalog::Catalog& catalog() const { return catalog_; }
  /// Attribute statistics, folded on first read and maintained by append /
  /// modify (read by the cost-based planner and kAuto join routing).
  const opt::StatisticsCatalog& stats() const { return stats_; }
  storage::StorageManager& node(int i) { return *nodes_.at(static_cast<size_t>(i)); }

  // --- Fault control (test / bench hooks) ---

  sim::FaultInjector& faults() { return *faults_; }
  /// Permanently kills disk node `node` right now.
  void KillNode(int node) { faults_->KillNode(node); }
  /// Kills disk node `node` after its next `disk_ops` disk operations —
  /// lands the death in the middle of a running query.
  void KillNodeAfterOps(int node, uint64_t disk_ops) {
    faults_->KillNodeAfterOps(node, disk_ops);
  }
  void ReviveNode(int node) { faults_->ReviveNode(node); }
  /// Kills disk node `node` at its `commits`-th upcoming commit point —
  /// after the statement's log records are forced but before the commit
  /// record lands, leaving a durable loser for Recover() to undo.
  void KillNodeAtCommit(int node, uint64_t commits) {
    faults_->KillNodeAtCommit(node, commits);
  }
  bool NodeAlive(int node) const { return !faults_->IsDead(node); }

  // --- Crash, recovery and reintegration (requires enable_logging) ---

  struct RecoveryReport {
    /// Retained log records the analysis pass scanned.
    uint64_t log_records_scanned = 0;
    /// Bytes of log read back during replay.
    uint64_t log_bytes_replayed = 0;
    /// Distinct committed transactions seen in the retained log.
    uint64_t winners = 0;
    /// Transactions with data records but no commit — undone.
    uint64_t losers = 0;
    /// Redo applications (committed effects missing from disk; normally 0 —
    /// commit forces every page, so redo is verification).
    uint64_t records_redone = 0;
    /// Loser records physically reversed.
    uint64_t records_undone = 0;
    /// Simulated time the recovery pass took.
    double recovery_sec = 0;
    /// The post-mortem dump Crash() (or a fatal storage error) captured:
    /// the merged flight-recorder journal plus a metrics-registry snapshot,
    /// as one JSON document ("" when the journal is disabled or nothing
    /// fatal preceded this recovery).
    std::string post_mortem_json;
  };

  struct RebuildReport {
    int node = -1;
    /// Primary fragments rebuilt from their chained backups.
    uint64_t fragments_rebuilt = 0;
    /// Tuples copied into rebuilt primary fragments.
    uint64_t tuples_copied = 0;
    /// Bytes shipped backup-host -> rebuilt node.
    uint64_t bytes_shipped = 0;
    /// Committed-but-unmirrored log records replayed into the node's stale
    /// backup fragments (the log tail it missed while dead).
    uint64_t log_records_replayed = 0;
    /// Aborted-statement records reversed on the node's own fragments
    /// (effects that crashed onto its disk before it died).
    uint64_t records_undone = 0;
    /// Simulated time the rebuild took.
    double rebuild_sec = 0;
  };

  /// The machine-lifetime write-ahead log. With logging off every commit
  /// truncates it to the open transactions' records.
  WalStore* wal() { return &wal_; }
  bool crashed() const { return crashed_; }

  /// Simulates a whole-machine crash: every buffer pool, lock table and
  /// open transaction vanishes; disks and the recovery server's log
  /// survive. Queries fail until Recover() runs.
  void Crash();

  /// ARIES-style restart: scans the retained log from the last checkpoint,
  /// redoes committed work missing from disk, undoes losers, and reopens
  /// the machine. Deterministic and charged (see RecoveryReport).
  Result<RecoveryReport> Recover();

  /// Writes a fuzzy checkpoint now (also triggered automatically every
  /// `checkpoint_every_commits` commits). Returns its begin LSN.
  Result<uint64_t> Checkpoint();

  /// Brings a dead disk node back into service: revives it, rebuilds its
  /// primary fragments from their chained backups (catalog flips back to
  /// the primary once each copy lands), replays the committed log tail
  /// into its stale backup fragments, and reverses aborted-statement
  /// effects stranded on its disk.
  Result<RebuildReport> ReintegrateNode(int node);

  // --- Elastic growth (src/elastic) ---

  struct GrowthReport {
    /// Index of the freshly added disk node (== old num_disk_nodes).
    int node = -1;
    /// Hashed relations converted to virtual-bucket (bucket_map) placement
    /// so a later migration can move buckets instead of rehashing.
    uint64_t relations_converted = 0;
    /// Backup tuples relocated to keep the chained-declustering ring order
    /// (fragment n-1's backup moves from node 0 to the new node).
    uint64_t backup_tuples_relocated = 0;
    /// Bytes shipped during the backup-ring rewiring.
    uint64_t bytes_shipped = 0;
    /// Simulated time the registration + rewiring took.
    double grow_sec = 0;
  };

  /// Registers one fresh disk node with the running machine: a new
  /// StorageManager with its own disk/CPU/NIC cost servers and fault
  /// streams, a widened transaction manager and WAL, an empty fragment
  /// (and empty index slots) for every relation, and — for backed-up
  /// relations — a synchronous backup-ring rewiring so the chained
  /// (f+1) % n invariant holds at the new width. Placement of existing
  /// tuples is untouched: queries keep reading the old sites until an
  /// ElasticMigrator rebalances fragments onto the new node.
  /// Requires all disk nodes alive, no open transactions, not crashed.
  Result<GrowthReport> AddNode();

  /// Bounded ring of the 64 most recent statement profiles. Filled by every
  /// successful traced statement in completion order.
  const obs::BoundedRing<std::shared_ptr<const obs::Profile>>& profile_ring()
      const {
    return profile_ring_;
  }

  /// Writes one Chrome trace file covering every buffered profile (one
  /// process track per statement) and clears the ring — the flush-on-demand
  /// replacement for one-file-per-query on long runs.
  Status FlushProfileRing(const std::string& path);

  /// The always-on flight recorder: one bounded event ring per tracker
  /// node (capacity from GAMMA_JOURNAL_RING, default 256; 0 disables),
  /// byte-identical at any GAMMA_HOST_THREADS and charging zero simulated
  /// time. Read it only between statements (coordinator discipline).
  obs::Journal& journal() { return journal_; }
  const obs::Journal& journal() const { return journal_; }

  /// Writes the journal's merged events as a JSON array to `path` (the
  /// file-export companion of `explain journal`). The journal keeps its
  /// events.
  Status DumpJournal(const std::string& path) const;

  // --- Loading (not part of any measured query) ---

  /// Creates an empty relation declustered per `spec` over the disk nodes
  /// (all of which must be alive), plus chained backup fragments when
  /// `chained_declustering` is on.
  Status CreateRelation(const std::string& name, catalog::Schema schema,
                        catalog::PartitionSpec spec);

  /// Loads tuples (routing each to its home site and, when backed up, to
  /// the backup site). All-or-nothing: a failed load rolls back every tuple
  /// it appended. Call once per relation.
  Status LoadTuples(const std::string& name,
                    const std::vector<std::vector<uint8_t>>& tuples);

  /// Builds an index on `attr`. A clustered index physically reorders every
  /// fragment into key order first (the paper's clustered organization).
  /// Backup fragments carry no indexes.
  Status BuildIndex(const std::string& name, int attr, bool clustered);

  // --- Queries (measured) ---

  Result<QueryResult> RunSelect(const SelectQuery& query);
  Result<QueryResult> RunJoin(const JoinQuery& query);
  Result<QueryResult> RunAggregate(const AggregateQuery& query);
  /// Updates optionally run inside an externally managed transaction
  /// (`txn` from BeginTxn): its locks are then held to CommitTxn/AbortTxn
  /// rather than released at statement end, and a 2PL conflict with another
  /// open transaction fails the statement with FailedPrecondition (the
  /// blocking/queueing discipline lives in the workload scheduler, which
  /// resolves conflicts in simulated time before executing for real).
  /// `txn` 0 (the default) auto-commits the statement.
  Result<QueryResult> RunAppend(const AppendQuery& query, uint64_t txn = 0);
  Result<QueryResult> RunDelete(const DeleteQuery& query, uint64_t txn = 0);
  Result<QueryResult> RunModify(const ModifyQuery& query, uint64_t txn = 0);

  // --- Multi-user transactions (2PL) ---

  txn::TxnManager& txns() { return txns_; }
  const txn::TxnManager& txns() const { return txns_; }

  /// Starts an explicit transaction for use with the update queries above.
  uint64_t BeginTxn() { return txns_.Begin(); }
  /// Commits / aborts an explicit transaction: releases its 2PL locks in
  /// every table. Returns the lock requests that became grantable (for the
  /// workload scheduler to wake the corresponding blocked clients). A
  /// commit of a transaction that is not open is InvalidArgument, and of
  /// one waiting on a lock FailedPrecondition; neither changes anything.
  Result<std::vector<txn::LockManager::Grant>> CommitTxn(uint64_t txn);
  std::vector<txn::LockManager::Grant> AbortTxn(uint64_t txn);

  /// Drops a relation and its fragment/backup files (uncharged; used by the
  /// workload driver to discard profiled result relations).
  Status DropRelation(const std::string& name);

  // --- Test / verification hooks (uncharged) ---

  /// Every tuple of the relation, gathered from all fragments (backups
  /// standing in for dead primaries).
  Result<std::vector<std::vector<uint8_t>>> ReadRelation(
      const std::string& name);

  /// Tuple count summed over fragments.
  Result<uint64_t> CountTuples(const std::string& name);

  /// Recounts the relation's tuples from a fresh (uncharged) sweep of the
  /// serving fragment copies, then drops its folded attribute statistics.
  /// Run after undo or redo changed tuples, and on demand (e.g. after a
  /// failover rebuild, when incremental maintenance has drifted). A failed
  /// sweep keeps the old count and statistics.
  Status RecomputeStatistics(const std::string& name);

 private:
  /// The migration subsystem executes charged, WAL-logged statements
  /// against the machine internals (src/elastic/migrator.h).
  friend class elastic::ElasticMigrator;

  struct AccessDecision {
    AccessPath path;
    const catalog::IndexMeta* index;  // null for file scan
  };

  /// The node and heap file serving fragment `fragment` of a relation: the
  /// primary when its node is alive, else the chained backup.
  struct FragmentCopy {
    int node;
    uint32_t file;
    /// Served from the backup chain; such fragments are always file-scanned
    /// (backups carry no indexes).
    bool backup;
  };

  /// \brief One statement's lifecycle as an RAII scope.
  ///
  /// Construction opens the statement: a CostTracker with the fault
  /// injector attached and every node bound to it, the host setup charge,
  /// the RecoveryLog and the transaction (a fresh statement-scoped one, or
  /// the caller's open one). A write statement also draws its WAL
  /// transaction and relation ids. Finish() closes a successful statement.
  /// Destroying an unfinished one aborts it: the transaction's locks are
  /// released, un-flushed pages discarded, sealed WAL records reversed (or,
  /// after a death at the commit point, left as losers), the partial result
  /// relation dropped and the nodes unbound.
  class Statement {
   public:
    /// A read statement (select, join, aggregate): auto-commits, no WAL.
    explicit Statement(GammaMachine* machine);
    /// A write to `relation` under `external_txn` (0 auto-commits). Its
    /// records go to the machine's WAL.
    Statement(GammaMachine* machine, const std::string& relation,
              uint64_t external_txn);
    Statement(const Statement&) = delete;
    Statement& operator=(const Statement&) = delete;
    ~Statement();

    sim::CostTracker& tracker() { return tracker_; }
    RecoveryLog& log() { return log_; }
    uint64_t txn() const { return txn_; }
    uint64_t wal_txn() const { return wal_txn_; }
    uint32_t wal_rel() const { return wal_rel_; }

    /// Registers the result relation to drop if the statement aborts.
    void set_partial_result(const std::string& name) {
      partial_result_ = name;
    }

    /// Draws the commit-point fault at every site in `sites`. A death there
    /// fails the statement with Unavailable ("<what>: site N died at its
    /// commit point") and leaves its forced records as a loser for
    /// Recover() instead of compensating them.
    Status ReachCommitPoint(const std::vector<int>& sites,
                            const std::string& what);

    /// Commit tail of a write statement whose records are forced and pages
    /// flushed. Auto-commit: ReachCommitPoint (logging on only), then the
    /// sealed commit record and the checkpoint cadence at `sites.front()`.
    /// Under an external transaction the commit marker waits for CommitTxn;
    /// only the force + acknowledgement is charged (nothing with logging
    /// off).
    Status CommitWrites(const std::vector<int>& sites, const std::string& what);

    /// Success path: unbinds the nodes, closes the cost accounting, copies
    /// the log and lock counters into `result.metrics` and commits a
    /// statement-scoped transaction.
    QueryResult Finish(QueryResult result);

    /// Leaves without the abort path: the machine crashed under the
    /// statement, so there is no volatile state left to back out.
    void Dismiss() { finished_ = true; }

   private:
    Statement(GammaMachine* machine, uint64_t external_txn);

    GammaMachine* machine_;
    sim::CostTracker tracker_;
    RecoveryLog log_;
    bool auto_commit_;
    uint64_t txn_ = 0;
    uint64_t wal_txn_ = 0;
    uint32_t wal_rel_ = 0;
    std::string partial_result_;
    bool crashed_ = false;
    bool finished_ = false;
  };

  using NodeTask = exec::NodeTask;

  /// Participating fragments grouped by serving node (failover can map two
  /// fragments onto one survivor; both must run in that node's task).
  struct NodeGroup {
    int node;
    std::vector<size_t> members;  // indices into the sources vector
  };

  /// Runs `tasks` on this machine's nodes through exec::NodeExecutor::Run
  /// (same contract: task-order merge, first failure returned). `tracker`
  /// may be null (uncharged work, e.g. loading).
  Status RunNodeTasks(sim::CostTracker* tracker, std::vector<NodeTask> tasks);

  static std::vector<NodeGroup> GroupByServingNode(
      const std::vector<FragmentCopy>& sources);

  /// Binds every node's ChargeContext to `tracker` (or clears with null).
  void BindAll(sim::CostTracker* tracker);
  /// Flushes every dirty node pool (exec::NodeExecutor::FlushPools, kAdd),
  /// charging whatever tracker the nodes are currently bound to.
  Status FlushAllPools();

  /// Charged sequential scan of heap file `fid` on node `node`:
  /// instr_per_tuple_scan per tuple through the node's bound tracker, then
  /// `fn`. A kNoFile file scans as empty.
  Status ScanFile(
      int node, uint32_t fid,
      const std::function<void(storage::Rid, std::span<const uint8_t>)>& fn);
  /// ScanFile that appends every tuple's bytes to `*bytes`.
  Status CopyFile(int node, uint32_t fid, std::vector<uint8_t>* bytes);

  /// What BuildFragment wrote: a fresh heap file and one fresh B-tree per
  /// entry of `indices`, in that order.
  struct FragmentBuild {
    storage::FileId file = catalog::kNoFile;
    std::vector<storage::IndexId> indices;
  };

  /// The one fragment build (DESIGN.md §10): stores `tuples` (whole tuples
  /// of `schema`, back to back) in a fresh heap file on node `node`, in key
  /// order when one of `indices` is clustered (equal keys keep input
  /// order), charging instr_per_tuple_store before each append; then
  /// bulk-loads a fresh B-tree per entry of `indices`. `rids`, when given,
  /// receives the rid of each input tuple. Touches no catalog slot: the
  /// caller commits the result (SwapInFragment) or drops it.
  Result<FragmentBuild> BuildFragment(
      int node, const catalog::Schema& schema,
      std::span<const catalog::IndexMeta> indices,
      std::span<const uint8_t> tuples,
      std::vector<storage::Rid>* rids = nullptr);

  /// Makes `build` (written on node `fragment` for all of `meta`'s indexes)
  /// fragment `fragment` of `meta`, dropping the B-trees and the file it
  /// replaces.
  void SwapInFragment(int fragment, catalog::RelationMeta* meta,
                      const FragmentBuild& build);

  /// The file serving each fragment of `name`, in fragment order: what a
  /// statistics fold reads.
  Result<opt::FragmentFiles> StoredFragments(const std::string& name) const;

  /// Resolves which copy serves `fragment`, or Unavailable when neither the
  /// primary nor its chained backup survives.
  Result<FragmentCopy> ServingCopy(const catalog::RelationMeta& meta,
                                   int fragment) const;

  /// The serving copy of each of `fragments`, in order, or the first
  /// Unavailable.
  Result<std::vector<FragmentCopy>> ServingCopies(
      const catalog::RelationMeta& meta,
      const std::vector<int>& fragments) const;

  /// Every disk fragment index, ascending.
  std::vector<int> AllFragments() const;

  /// Disk nodes currently alive, in index order.
  std::vector<int> LiveDiskNodes() const;

  // --- Dataflow scaffold shared by select, join and aggregate ---

  /// A read statement's 2PL footprint on one relation: IS on the relation
  /// at the scheduler's lock table, then S on each of `fragments` at its
  /// home table (the canonical order that keeps single-statement
  /// transactions deadlock-free).
  Status LockForRead(sim::CostTracker& tracker, uint64_t txn,
                     const catalog::RelationMeta& meta,
                     const std::vector<int>& fragments);

  /// One select operator's work on source `s`: `src` is the copy it reads,
  /// `sm` that copy's node and `shard` the task's cost shard.
  using ScanBody =
      std::function<Status(size_t s, const FragmentCopy& src,
                           storage::StorageManager& sm,
                           sim::CostTracker& shard)>;

  /// Runs the select operators over `sources`: one host task per serving
  /// node (GroupByServingNode). Each source charges its fragment lock's
  /// CPU path (`instr_per_lock`) at the serving node, runs `body`, and
  /// reports completion to the scheduler in one control message.
  Status ScanSources(sim::CostTracker& tracker,
                     const std::vector<FragmentCopy>& sources,
                     const ScanBody& body);

  /// Result side of a select or join (defined in machine.cc).
  class ResultStore;
  /// One join attempt's state and phase functions (defined in machine.cc).
  struct JoinRun;

  /// Runs `attempt`; while it reports Unavailable (a node died mid-flight),
  /// re-runs it against the surviving configuration up to
  /// kFailoverMaxRetries times, charging exponential backoff between
  /// retries.
  Result<QueryResult> RunWithFailover(
      const std::function<Result<QueryResult>()>& attempt);

  /// Post-accounting observability hook every statement entry point routes
  /// its finished result through: feeds the process metrics registry and,
  /// when `config_.trace` enables it, attaches the derived Profile. Passes
  /// error results through untouched.
  Result<QueryResult> FinalizeObs(const char* label,
                                  Result<QueryResult> result);

  /// Serializes the journal plus a metrics-registry snapshot into the
  /// held post-mortem JSON document (Crash() and fatal storage errors call
  /// this; the next Recover() hands the dump out on its report).
  void CapturePostMortem(const std::string& reason);

  Result<QueryResult> RunSelectAttempt(const SelectQuery& query);
  Result<QueryResult> RunJoinAttempt(const JoinQuery& query);
  Result<QueryResult> RunAggregateAttempt(const AggregateQuery& query);

  // --- Write path of append, delete, modify and migration
  // (machine_updates.cc; DESIGN.md "Write path") ---

  /// The crashed-machine guard of every write and control entry point:
  /// `make`("machine crashed: run Recover() before <action>") while crashed.
  Status RefuseIfCrashed(
      const char* action,
      Status (*make)(std::string) = &Status::Unavailable) const;

  /// A write's refusals before its Statement opens: a dead site in `homes`
  /// ("<what>: <role> site N is down"), then an unknown `external_txn`.
  Status CheckWrite(const char* kind, const std::string& what,
                    const std::vector<int>& homes, uint64_t external_txn,
                    const char* role = "primary") const;

  /// Whether a write to fragment `home` mirrors into its chained backup. A
  /// dead backup host skips the mirror when the WAL will carry the write
  /// (mirrored=false) for reintegration, and blocks it otherwise.
  Result<bool> MirrorsTo(const catalog::RelationMeta& meta, int home) const;

  /// First tuple of `file` equal to `bytes`, charging `instr_per_tuple_scan`
  /// per tuple visited: backups have no indexes and logged rids go stale,
  /// so the mirror steps and recovery both locate copies by content.
  Result<std::optional<storage::Rid>> FindByContent(
      storage::StorageManager& sm, storage::HeapFile& file,
      std::span<const uint8_t> bytes) const;

  /// A write's chained-backup effect, as its WAL record carries it.
  struct Mirror {
    bool mirrored = false;
    storage::Rid backup_rid{};
  };

  /// \brief A write statement on one relation, with the steps every write
  /// is built from. Each step charges what the statements charged inline
  /// before, in the same order; a caller whose order differs composes the
  /// smaller steps itself.
  class WriteStatement : public Statement {
   public:
    WriteStatement(GammaMachine* machine, catalog::RelationMeta* meta,
                   uint64_t external_txn);

    catalog::RelationMeta& meta() { return meta_; }

    /// Host -> scheduler message, scheduling of `operators` operators, the
    /// sequential `phase`, IX on the relation.
    Status Open(const char* phase, size_t operators);
    Status LockFragment(int node, txn::LockMode mode);
    /// Rids on `node` matching the exact-match `pred` (through `index`, else
    /// a charged scan), then IX on the fragment.
    Result<std::vector<storage::Rid>> Locate(int node,
                                             const exec::Predicate& pred,
                                             const catalog::IndexMeta* index);
    /// Fetch, lock-path CPU and page X lock; returns the pre-image.
    Result<std::vector<uint8_t>> FetchForUpdate(int node, storage::Rid rid);
    /// Heap delete, index entries queued for removal in `deferred`.
    Status RemoveAtHome(int node, storage::Rid rid,
                        std::span<const uint8_t> tuple,
                        storage::DeferredUpdateFile* deferred);
    /// Store CPU, append, page X lock, index entries through a committed
    /// deferred file. A failure past the append takes the tuple back out
    /// and runs `undo`. The caller charges the arrival first.
    Result<storage::Rid> InsertAtHome(int home, std::span<const uint8_t> tuple,
                                      const std::function<void()>& undo);
    /// Packet to the backup host, lock-path CPU if `charge_lock`, store CPU,
    /// append to fragment `home`'s chained backup.
    Result<storage::Rid> MirrorInsert(int home, std::span<const uint8_t> tuple,
                                      bool charge_lock);
    /// Where MirrorsTo says so: ships `before` to the backup host, locates
    /// its copy by content and deletes it (`after` empty) or rewrites it.
    Result<Mirror> MirrorChange(int node, std::span<const uint8_t> before,
                                std::span<const uint8_t> after);
    /// The statement's one WAL entry: a `kind` record of fragment `node`
    /// with its images, charged from `node` (uncharged with logging off).
    /// An insert is ∅ → after, a delete before → ∅ and a modify before →
    /// after; a kPartition record (spec images) carries fragment -1 and
    /// counts as mirrored, since no backup copy needs catching up.
    void Log(WalKind kind, int node, storage::Rid rid,
             std::span<const uint8_t> before, std::span<const uint8_t> after,
             const Mirror& mirror);

    /// Per-tuple work of a delete or modify on a fetched, X-locked tuple.
    using MatchBody = std::function<Status(
        int node, storage::Rid rid, const std::vector<uint8_t>& tuple,
        storage::DeferredUpdateFile& deferred)>;
    /// Delete and modify after Open: per node of `parts`, Locate, then
    /// FetchForUpdate and `body` per match, the node's deferred file, the
    /// log force and the completion message; then the commit tail (flush,
    /// commit protocol, reply, EndPhase). Returns the tuples changed.
    Result<uint64_t> RewriteMatches(const std::vector<int>& parts,
                                    const exec::Predicate& pred,
                                    const catalog::IndexMeta* index,
                                    const std::string& what,
                                    const MatchBody& body);

   private:
    GammaMachine& m_;
    catalog::RelationMeta& meta_;
    uint32_t rel_ = 0;
  };

  /// Key-modify relocation (§7): remove at home, insert at the new home.
  Status Relocate(WriteStatement& stmt, int node, storage::Rid rid,
                  const std::vector<uint8_t>& old_tuple,
                  const std::vector<uint8_t>& new_tuple,
                  const std::string& what);
  Status ModifyInPlace(WriteStatement& stmt, int node, storage::Rid rid,
                       const std::vector<uint8_t>& old_tuple,
                       const std::vector<uint8_t>& new_tuple,
                       int target_attr);

  // --- Recovery internals (machine_recovery.cc; DESIGN.md §12) ---

  /// A charged maintenance pass (restart, reintegration, growth). It owns
  /// the pass's tracker, attaches the fault injector, binds every node to it
  /// and opens one sequential phase. Every exit unbinds the nodes, so a
  /// failed pass leaves none bound to a dead tracker.
  class MaintenanceScope {
   public:
    MaintenanceScope(GammaMachine* machine, const char* phase);
    ~MaintenanceScope();
    MaintenanceScope(const MaintenanceScope&) = delete;
    MaintenanceScope& operator=(const MaintenanceScope&) = delete;

    sim::CostTracker& tracker() { return tracker_; }
    /// Flushes every pool into the phase, closes it, unbinds the nodes and
    /// returns the pass's simulated seconds.
    Result<double> Finish();

   private:
    GammaMachine* machine_;
    sim::CostTracker tracker_;
  };

  /// How a replay step reads a log record: redo applies before → after,
  /// undo after → before, and catch-up is redo into a stale backup. Each
  /// mode has its own locate rules (machine_recovery.cc).
  enum class Replay { kRedo, kUndo, kCatchUp };
  /// One fragment copy a replay step writes, with its locate hint.
  struct ReplayCopy;
  /// Where a replay step found or left its image, and whether it wrote.
  struct Landing;
  /// A caught-up record and the backup rid to stamp it with.
  using CatchUpStamp = std::pair<WalRecord*, std::optional<storage::Rid>>;

  /// The one replay step: applies the image transition `from` → `to` to
  /// `copy` under `mode`'s locate rules. An empty image is no image, so an
  /// insert is ∅ → after, a delete before → ∅ and a modify before → after.
  /// Test-and-apply: a copy that already shows `to` is left alone.
  Result<Landing> ApplyTransition(const ReplayCopy& copy, Replay mode,
                                  std::span<const uint8_t> from,
                                  std::span<const uint8_t> to);

  /// Replays `record` (kRedo or kUndo) on its reachable primary, with index
  /// maintenance, and on its mirrored backup; a kPartition record flips the
  /// catalog's spec image instead. Bumps `*applied` and records the relation
  /// in `touched` only when something changed.
  Status ReplayRecord(const WalRecord& record, Replay direction,
                      uint64_t* applied, std::set<std::string>* touched);

  /// The loser rule shared by restart and reintegration: a logged
  /// transaction that neither committed nor cleanly aborted is a loser
  /// unless it is an explicit transaction still open in the lock manager.
  bool IsLoser(uint64_t wal_txn) const;

  /// Journals a finished restart, feeds the metrics registry and hands the
  /// pending post-mortem dump out on `report`.
  void NoteRestart(RecoveryReport* report);

  // ReintegrateNode's steps, in order (DESIGN.md §12).
  Status UndoStrandedLosers(RebuildReport* report,
                            std::set<std::string>* touched);
  Status RebuildPrimaries(int node, sim::CostTracker& tracker,
                          RebuildReport* report,
                          std::set<std::string>* touched);
  Status CatchUpBackups(int node, sim::CostTracker& tracker,
                        RebuildReport* report,
                        std::vector<CatchUpStamp>* stamps);
  void CloseReachableLosers();

  /// The one abort path, at both logging settings: physically reverses
  /// every sealed record of `wal_txn` wherever it is reachable (dead nodes
  /// are skipped), uncharged, recounts every relation it changed
  /// (RecomputeStatistics), then writes the undone pages back and empties
  /// the pools. `close` additionally compensates the transaction in the log
  /// (clean abort); a crashed statement leaves it open so
  /// Recover()/ReintegrateNode() finish the job. A transaction with no data
  /// records is left alone.
  void UndoTransaction(uint64_t wal_txn, bool close);

  /// Writes a fuzzy checkpoint when the commit cadence is due, charging the
  /// checkpoint records through `log` from `src_node` (null: uncharged, as
  /// for CommitTxn, which runs outside any statement). With logging off no
  /// pass replays committed records, so every commit truncates them
  /// instead, uncharged and without checkpoint records.
  void MaybeAutoCheckpoint(RecoveryLog* log, int src_node);

  /// §5.1 optimizer: clustered index when the predicate is on its attribute;
  /// non-clustered only when selectivity is low enough to beat a scan. A
  /// forced index path with no matching index is InvalidArgument.
  Result<AccessDecision> ChooseAccessPath(const catalog::RelationMeta& meta,
                                          const SelectQuery& query) const;

  /// Registers a round-robin result relation and creates its fragments on
  /// the live disk nodes (kNoFile on dead ones; results are never backed
  /// up — a failed query is simply re-run).
  catalog::RelationMeta* MakeResultRelation(const std::string& requested_name,
                                            catalog::Schema schema);

  /// Disk fragments participating in a selection: a single site for an
  /// exact-match predicate on the partitioning attribute, else all of them.
  std::vector<int> ParticipatingNodes(const catalog::RelationMeta& meta,
                                      const exec::Predicate& pred) const;

  /// Takes one 2PL lock for `txn`, charging the lock-manager CPU path at
  /// `charge_node` into the tracker's open phase. Fails with
  /// FailedPrecondition on a conflict with another open transaction (the
  /// machine itself never blocks; waiting is simulated by the workload
  /// scheduler, which pre-acquires the footprint before executing).
  Status AcquireTxnLock(sim::CostTracker* tracker, uint64_t txn,
                        int charge_node, txn::LockId id, txn::LockMode mode);

  GammaConfig config_;
  std::unique_ptr<sim::FaultInjector> faults_;
  catalog::Catalog catalog_;
  opt::StatisticsCatalog stats_;
  std::vector<std::unique_ptr<storage::StorageManager>> nodes_;
  /// The machine's only lock tables (2PL): one per tracker node —
  /// fragment/page locks live in the fragment's table, relation locks in the
  /// scheduler's. Only coordinator threads call it.
  txn::TxnManager txns_;
  /// Replayable write-ahead log kept by the recovery server; survives
  /// Crash(). Every abort undoes through it, at both logging settings.
  WalStore wal_;
  /// Set by Crash(), cleared by Recover(); queries refuse while set.
  bool crashed_ = false;
  uint64_t next_statement_txn_ = 1;
  uint64_t next_salt_ = 0xBEEF;
  /// Recent statement profiles, newest last (see profile_ring()).
  obs::BoundedRing<std::shared_ptr<const obs::Profile>> profile_ring_;
  /// Flight recorder (see journal()); ring i belongs to tracker node i.
  obs::Journal journal_;
  /// Statements finalized so far — the ordinal stamped on journal events.
  uint64_t statement_ordinal_ = 0;
  /// Pending post-mortem dump captured by Crash() / a fatal storage error;
  /// moved onto the next RecoveryReport.
  std::string post_mortem_;
};

}  // namespace gammadb::gamma

#endif  // GAMMA_GAMMA_MACHINE_H_
