#ifndef GAMMA_SIM_WORKLOAD_H_
#define GAMMA_SIM_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "common/result.h"
#include "gamma/machine.h"
#include "gamma/query.h"
#include "sim/cost_tracker.h"
#include "sim/event_sim.h"

namespace gammadb::sim {

/// One statement of a workload transaction.
using Statement =
    std::variant<gamma::SelectQuery, gamma::JoinQuery, gamma::AggregateQuery,
                 gamma::AppendQuery, gamma::DeleteQuery, gamma::ModifyQuery>;

/// \brief One transaction class of the workload.
///
/// `profiles` holds the single-user QueryMetrics of each statement (from
/// ProfileStatement); the driver replays those resource demands through the
/// discrete-event servers, so a transaction's simulated duration reflects
/// queueing against everything else in flight. Empty profiles mean
/// zero-demand statements (useful for pure lock-contention tests).
///
/// When `execute_real` is set, the statements (updates only) also run for
/// real — at commit time, in commit order, under the transaction's 2PL
/// locks — so concurrent update mixes produce exactly the database state of
/// some serial schedule, and that schedule is recorded in the commit log.
struct TxnSpec {
  std::string label;
  std::vector<Statement> statements;
  std::vector<QueryMetrics> profiles;
  bool execute_real = false;
};

/// A closed-loop client: runs its script in a loop with think time between
/// transactions.
struct ClientSpec {
  std::vector<TxnSpec> script;
  double think_sec = 0;
  double think_jitter_sec = 0;
  /// Full passes over the script; 0 = keep going until `duration_sec`.
  int loops = 0;
};

struct WorkloadOptions {
  /// New transactions are submitted while now < duration_sec (0 with
  /// loop-bounded clients: run to completion).
  double duration_sec = 0;
  /// Commits before this time are excluded from throughput / response-time
  /// measurement (ramp-up).
  double warmup_sec = 0;
  /// Restart delay after a deadlock abort.
  double abort_backoff_sec = 0.05;
  uint64_t seed = 0x5EED;
};

struct ClassReport {
  std::string label;
  uint64_t committed = 0;
  uint64_t measured = 0;
  double throughput_per_sec = 0;
  double mean_response_sec = 0;
  /// Response-time quantiles from the registry histogram
  /// `workload.response_sec.<label>` (log-scale bucket upper bounds, so two
  /// runs agree exactly whenever their response sets land in the same
  /// buckets).
  double p50_response_sec = 0;
  double p95_response_sec = 0;
  double p99_response_sec = 0;
};

/// One committed transaction, in commit order. Replaying the scripts'
/// statements serially in this order must reproduce the concurrent run's
/// final database state (2PL serializability).
struct CommitRecord {
  size_t client = 0;
  size_t script_pos = 0;
  std::string label;
};

struct WorkloadReport {
  /// Simulated time when the last event fired.
  double end_sec = 0;
  uint64_t committed = 0;
  /// Deadlock-victim restarts (each also counted once in `deadlocks`).
  uint64_t aborted_retries = 0;
  uint64_t deadlocks = 0;
  uint64_t lock_acquisitions = 0;
  uint64_t lock_waits = 0;
  double lock_wait_sec = 0;
  std::vector<ClassReport> classes;
  std::vector<CommitRecord> commit_log;
  /// Busiest simulated resource over the run ("node 3 disk", "ring", ...).
  std::string bottleneck;
  double bottleneck_utilization = 0;

  const ClassReport* Class(const std::string& label) const;
};

/// Runs `stmt` single-user against `machine` and returns its cost profile.
/// Stored result relations are dropped afterwards; update statements DO
/// mutate the database (profile updates against scratch data, or use
/// zero-demand specs).
Result<QueryMetrics> ProfileStatement(gamma::GammaMachine& machine,
                                      const Statement& stmt);

/// \brief Closed-loop multi-user workload scheduler over a GammaMachine.
///
/// N clients cycle think -> begin -> lock -> work -> commit in simulated
/// time. Lock footprints (multi-granularity, derived from each statement and
/// the relation's partitioning) are acquired through the machine's
/// TxnManager one at a time; a blocked client sleeps until a commit or a
/// deadlock abort grants its request, and a victim backs off and retries its
/// whole transaction. Statement resource profiles replay as demands at
/// per-node FIFO disk/CPU/NIC servers plus the shared ring — the same
/// demand placement as AnalyzeMix, so measured asymptotic throughput can be
/// validated against the utilization-law bound.
///
/// The run is single-threaded over the event queue; everything (including
/// the host-thread count used by real statement execution) is deterministic.
class WorkloadDriver {
 public:
  WorkloadDriver(gamma::GammaMachine* machine, WorkloadOptions options);
  ~WorkloadDriver();
  WorkloadDriver(const WorkloadDriver&) = delete;
  WorkloadDriver& operator=(const WorkloadDriver&) = delete;

  /// InvalidArgument for an empty script or a statement whose relation is
  /// not in the machine's catalog; FailedPrecondition after Run.
  Status AddClient(ClientSpec spec);

  /// Runs the workload to completion and reports. A relation dropped since
  /// AddClient is NotFound, before anything runs; a second call is
  /// FailedPrecondition. A real statement that fails ends the run with its
  /// Status, after every open client transaction is aborted through the
  /// machine, which undoes the failed transaction's earlier statements.
  Result<WorkloadReport> Run();

 private:
  struct Client;
  struct NodeServers;

  const TxnSpec& SpecOf(const Client& c) const;
  void StartThink(size_t ci);
  void StartTxn(size_t ci);
  void RetryTxn(size_t ci);
  void AcquireNext(size_t ci);
  void HandleVictims(const std::vector<uint64_t>& victims);
  void HandleGrants(const std::vector<txn::LockManager::Grant>& grants);
  void BeginStatement(size_t ci);
  void RunPhases(size_t ci);
  void StartPhase(size_t ci, size_t phase_idx);
  void FinishStatement(size_t ci);
  void CommitClientTxn(size_t ci);

  struct ClassAccum {
    uint64_t committed = 0;
    std::vector<double> responses;
  };

  gamma::GammaMachine* machine_;
  WorkloadOptions options_;
  EventQueue queue_;
  std::vector<std::unique_ptr<NodeServers>> servers_;
  std::unique_ptr<ResourceServer> ring_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::map<uint64_t, size_t> txn_client_;
  std::map<std::string, ClassAccum> class_accum_;
  double last_measured_commit_sec_ = 0;
  WorkloadReport report_;
  /// The first real statement failure; it stops the event loop.
  Status failure_;
  txn::TxnStats base_totals_;
  bool ran_ = false;
};

}  // namespace gammadb::sim

#endif  // GAMMA_SIM_WORKLOAD_H_
