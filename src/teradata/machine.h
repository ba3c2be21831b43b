#ifndef GAMMA_TERADATA_MACHINE_H_
#define GAMMA_TERADATA_MACHINE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "common/units.h"
#include "exec/node_executor.h"
#include "exec/predicate.h"
#include "exec/query_result.h"
#include "exec/select.h"
#include "exec/split_table.h"
#include "obs/trace.h"
#include "sim/hardware.h"
#include "storage/storage_manager.h"

namespace gammadb::teradata {

/// IFP parse/dispatch/step overhead per multi-AMP query step.
inline constexpr double kStepOverheadSec = 1.3;
/// Fast-path overhead for single-tuple (primary-key) requests.
inline constexpr double kSingleStepOverheadSec = 0.8;
/// Random page I/Os per tuple inserted with full recovery (transient
/// journal + fallback-less data + index maintenance; [DEWI87]).
inline constexpr uint32_t kInsertRecoveryIos = 5;
/// CPU per inserted tuple for the logging path.
inline constexpr double kInstrPerInsertLogging = 20000;
/// CPU per tuple inserted into the hash-key-ordered temporary files during
/// join redistribution (the spool path runs the full tuple-insert code;
/// fitted from Table 2's Teradata column via [DEWI87]).
inline constexpr double kInstrPerSpoolTuple = 20000;

/// \brief Configuration of the simulated Teradata DBC/1012 (§3).
///
/// The evaluated machine: 4 IFPs + 20 AMPs (Intel 80286, 2 MB each, two
/// 525 MB drives per AMP) on a 12 MB/s Y-net. The distinguishing software
/// behaviours the paper's analysis leans on are all modelled: hash-key-only
/// file organization, dense unordered secondary indices that must be scanned
/// in full for range predicates, redistribute + sort-merge joins, and an
/// insert path that runs full recovery logging per stored tuple ([DEWI87]:
/// "at least 3 I/Os are incurred for each tuple inserted").
struct TeradataConfig {
  int num_amps = 20;
  uint32_t page_size = 4096;
  uint64_t buffer_pool_bytes = 64 * kKiB;
  /// Per-AMP memory for sort runs during sort-merge joins.
  uint64_t sort_memory_bytes = 1 * kMiB;
  sim::MachineParams hw = sim::MachineParams::TeradataDefaults();
  /// Observability: when enabled, every successful statement carries a
  /// derived Profile in its QueryResult (same contract as GammaConfig).
  obs::TraceOptions trace;

  int ifp_node() const { return num_amps; }
  int host_node() const { return num_amps + 1; }
  int tracker_nodes() const { return num_amps + 2; }
};

/// \brief Selection request (Teradata side of Table 1).
struct TdSelectQuery {
  std::string relation;
  exec::Predicate predicate = exec::Predicate::True();
  /// Allow the optimizer to use a dense secondary index when one exists on
  /// the predicate attribute (it must still scan the whole index, §3).
  bool allow_index = true;
  bool store_result = true;
  std::string result_name;
};

/// \brief Join request (Teradata side of Table 2): redistribute both inputs
/// by hashing the join attribute, sort, then merge (§6).
struct TdJoinQuery {
  std::string outer;
  std::string inner;
  int outer_attr = -1;
  int inner_attr = -1;
  exec::Predicate outer_pred = exec::Predicate::True();
  exec::Predicate inner_pred = exec::Predicate::True();
  bool store_result = true;
  /// The result feeds a later step of the same query (an intermediate):
  /// it is spooled, not inserted through the full-recovery path.
  bool result_is_temp = false;
  std::string result_name;
};

struct TdAppendQuery {
  std::string relation;
  std::vector<uint8_t> tuple;
};

struct TdDeleteQuery {
  std::string relation;
  int key_attr = -1;
  int32_t key = 0;
};

struct TdModifyQuery {
  std::string relation;
  int locate_attr = -1;
  int32_t locate_key = 0;
  int target_attr = -1;
  int32_t new_value = 0;
};

/// \brief The simulated Teradata DBC/1012 baseline machine.
///
/// Shares the storage substrate and cost-tracker machinery with the Gamma
/// machine; differs in file organization (hash-key order only), index kind
/// (dense, unordered, secondary only), join algorithm (sort-merge) and the
/// recovery cost on every stored tuple.
class TeradataMachine {
 public:
  explicit TeradataMachine(TeradataConfig config);

  TeradataMachine(const TeradataMachine&) = delete;
  TeradataMachine& operator=(const TeradataMachine&) = delete;

  const TeradataConfig& config() const { return config_; }
  catalog::Catalog& catalog() { return catalog_; }
  storage::StorageManager& amp(int i) {
    return *amps_.at(static_cast<size_t>(i));
  }

  /// Creates a relation hash-declustered on `primary_key_attr` (the only
  /// organization the machine supports, §3).
  Status CreateRelation(const std::string& name, catalog::Schema schema,
                        int primary_key_attr);

  Status LoadTuples(const std::string& name,
                    const std::vector<std::vector<uint8_t>>& tuples);

  /// Builds a dense, unordered secondary index on `attr`.
  Status BuildSecondaryIndex(const std::string& name, int attr);

  Result<exec::QueryResult> RunSelect(const TdSelectQuery& query);
  Result<exec::QueryResult> RunJoin(const TdJoinQuery& query);
  Result<exec::QueryResult> RunAppend(const TdAppendQuery& query);
  Result<exec::QueryResult> RunDelete(const TdDeleteQuery& query);
  Result<exec::QueryResult> RunModify(const TdModifyQuery& query);

  Result<std::vector<std::vector<uint8_t>>> ReadRelation(
      const std::string& name);
  Result<uint64_t> CountTuples(const std::string& name);

 private:
  /// One AMP's hash directory (primary key or secondary index): key -> rids
  /// in one access (§3). Only these methods know its format.
  class Directory {
   public:
    /// Makes room for `more` entries beyond the current ones.
    void Reserve(size_t more) { map_.reserve(map_.size() + more); }
    void Add(int32_t key, storage::Rid rid) { map_.emplace(key, rid); }
    /// Drops one (key -> rid) entry, if present.
    void Erase(int32_t key, storage::Rid rid);
    /// Every rid under `key`, in directory order.
    std::vector<storage::Rid> Find(int32_t key) const;

   private:
    std::unordered_multimap<int32_t, storage::Rid> map_;
  };
  /// Dense secondary index: an entry file per AMP (scanned in full for range
  /// predicates) plus the hash directory used for exact-match access.
  struct SecondaryIndex {
    int attr = -1;
    std::vector<storage::FileId> per_amp_file;
    std::vector<Directory> dir;
  };
  /// Per-relation physical state beyond the shared catalog entry.
  struct RelationState {
    std::vector<Directory> key_dir;
    std::vector<SecondaryIndex> indices;
  };
  /// A relation's catalog entry and physical state.
  struct Rel {
    catalog::RelationMeta* meta = nullptr;
    RelationState* state = nullptr;

    /// The primary key: the attribute the relation is hash-declustered on.
    int key_attr() const { return meta->partitioning.key_attr; }
  };
  /// kRecovery: kInsertRecoveryIos random writes plus the logging CPU
  /// ([DEWI87]). kSpool: a hash-key-ordered temporary, the insert CPU only.
  enum class InsertMode { kRecovery, kSpool };

  /// \brief One statement's scope and result sink (DESIGN.md §20).
  ///
  /// Binds every AMP to its tracker and charges the IFP dispatch on entry.
  /// Owns the result relation and the per-AMP temporary files: Finish()
  /// drops the temporaries and unbinds; ending without Finish() also drops
  /// the result relation. The sink stores results in a fresh relation
  /// hashed on attribute 0, or returns them to the host.
  class Statement {
   public:
    Statement(TeradataMachine& machine, int steps, bool single_tuple);
    Statement(const Statement&) = delete;
    Statement& operator=(const Statement&) = delete;
    ~Statement();

    sim::CostTracker& tracker() { return tracker_; }
    exec::QueryResult& result() { return result_; }

    /// Opens the sink: into relation `name` (fresh when empty), inserted
    /// per `mode`, when `store`; else to the host.
    void OpenResult(bool store, const std::string& name,
                    catalog::Schema schema, InsertMode mode);
    /// AMP `src`'s stream into the sink, valid until CloseStream(); stored
    /// tuples are re-hashed through a split table that never
    /// short-circuits (§4).
    exec::TupleSink OpenStream(int src);
    /// Closes the open stream; returns the first failed store.
    Status CloseStream();
    /// Sends one tuple from AMP `src` in one packet, then stores it.
    Status Deliver(int src, std::span<const uint8_t> tuple);

    /// A temporary file on AMP `amp`, dropped when the statement ends.
    storage::FileId TempFile(int amp);
    /// Adopts `id` as one; safe from AMP `amp`'s node task.
    void AdoptTemp(int amp, storage::FileId id);

    /// Sets the result cardinality (when a sink is open), ends the
    /// statement and runs the accounting and observability hook.
    Result<exec::QueryResult> Finish(const char* label);

   private:
    void End();
    void SendToHost(int src, std::span<const uint8_t> tuple);

    TeradataMachine& m_;
    sim::CostTracker tracker_;
    exec::QueryResult result_;
    bool sink_open_ = false;
    Rel stored_;  // null meta: results go to the host
    InsertMode mode_ = InsertMode::kRecovery;
    std::unique_ptr<exec::SplitTable> split_;
    Status store_status_;
    std::vector<std::vector<storage::FileId>> temps_;
    bool ended_ = false;
  };

  Result<Rel> GetRel(const std::string& name);
  /// Runs one task per AMP on the shared exec::NodeExecutor and returns the
  /// first failure in AMP order. `tracker` is null for uncharged work
  /// (loading, index builds). The one charged caller is the join's `sort`
  /// step, which opens its own phase and charges each AMP only from that
  /// AMP's task, so adding the shards (0 + shard) gives the inline bits.
  Status RunAmpTasks(sim::CostTracker* tracker,
                     std::vector<exec::NodeTask> tasks);
  /// Flushes every dirty AMP pool inline, in AMP order, charging whatever
  /// tracker the AMPs are bound to; every AMP is visited and the first
  /// flush error is returned. Inline, not on the executor: a flush follows
  /// serial charges to the same AMP in the same phase, and a shard added at
  /// the barrier would sum those doubles in a different order (DESIGN §10).
  Status FlushAllPools();
  /// Home AMP of a key under the machine-wide placement hash.
  int AmpForKey(int32_t key) const;
  /// Registers relation `name` (which must be free) hash-declustered on
  /// `key_attr`, with an empty fragment and key directory per AMP.
  Rel AddRelation(const std::string& name, catalog::Schema schema,
                  int key_attr);

  // --- Write steps (machine_updates.cc, DESIGN.md §20) ---

  /// (amp, rid) of the rows of `rel` whose `attr` equals `key`, in AMP
  /// order: through the primary hash (one random read at the home AMP), a
  /// secondary index on `attr` (one per AMP), else a charged full scan.
  Result<std::vector<std::pair<int, storage::Rid>>> Locate(Rel rel, int attr,
                                                           int32_t key);
  /// Appends `tuple` to `file` on AMP `amp`, charged per `mode`.
  Result<storage::Rid> Insert(InsertMode mode, int amp, storage::FileId file,
                              std::span<const uint8_t> tuple);
  /// Inserts into `rel`'s fragment, links every directory, appends every
  /// index entry and counts the tuple; a failed entry append undoes it.
  Result<storage::Rid> Insert(InsertMode mode, Rel rel, int amp,
                              std::span<const uint8_t> tuple);
  /// Deletes `image` at (amp, rid) and unlinks it; charges one random write
  /// per secondary index (the leaf rewrites). Callers charge the journal
  /// and keep the count.
  Status Remove(Rel rel, int amp, storage::Rid rid,
                std::span<const uint8_t> image);
  /// Undoes Remove (uncharged).
  Status Restore(Rel rel, int amp, storage::Rid rid,
                 std::span<const uint8_t> image);
  /// Adds or erases `image`'s key at (amp, rid) in every directory.
  void Link(Rel rel, int amp, storage::Rid rid, std::span<const uint8_t> image,
            bool add);

  TeradataConfig config_;
  catalog::Catalog catalog_;
  std::map<std::string, RelationState> states_;
  std::vector<std::unique_ptr<storage::StorageManager>> amps_;
  /// Placement hash salt: also used to redistribute joins on the primary
  /// key, which is what lets key-attribute joins skip the network (§6.1).
  uint64_t placement_salt_ = 0xDBC1012;
};

}  // namespace gammadb::teradata

#endif  // GAMMA_TERADATA_MACHINE_H_
