#ifndef GAMMA_OBS_JOURNAL_H_
#define GAMMA_OBS_JOURNAL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/bounded_ring.h"

namespace gammadb::obs {

/// What happened, encoded compactly; the payload meaning of `a` / `b` is
/// per-kind (documented at each emit site). `detail` carries a short label
/// (statement label, relation name, fault description).
enum class JournalEventKind : uint8_t {
  kStatementBegin,    // a = statement ordinal
  kStatementEnd,      // a = statement ordinal, b = result tuples
  kPhase,             // a = statement ordinal, detail = phase name
  kLockWait,          // a = txn id, b = lock table
  kDeadlockVictim,    // a = victim txn, b = requesting txn
  kTxnAbort,          // a = txn id
  kWalForce,          // a = txn id, b = next LSN after the commit record
  kCheckpoint,        // a = checkpoint begin LSN, b = retained records
  kFaultTransientRead,   // fault draws: ring = the faulting node
  kFaultTransientWrite,
  kFaultCorruptRead,
  kFaultPacketDrop,      // ring = the sending node, a = drops so far
  kFaultNodeDeath,       // ring = the dead node; a = its op/commit count
  kFailoverRetry,     // a = retries taken, b = backoff microseconds
  kFatalError,        // detail = status text of a fatal storage error
  kCrash,             // whole-machine power loss
  kRecoverBegin,
  kRecoverEnd,        // a = winners, b = losers
  kMigrationBegin,    // detail = relation
  kMigrationEnd,      // a = tuples moved, detail = relation
  kNodeAdded,         // a = new disk-node index
};

/// Stable ASCII name for a kind ("statement_begin", "lock_wait", ...).
const char* JournalEventKindName(JournalEventKind kind);

/// Appends `s` to `out` as a quoted JSON string: `"` and `\` are escaped,
/// newline and tab become `\n` and `\t`, other control bytes `\u00XX`.
void AppendJsonString(const std::string& s, std::string* out);

/// One recorded event. `sim_sec` is the machine's simulated clock when the
/// statement (or control action) that produced the event began; `seq` is the
/// owning ring's monotonic emit counter, which keeps intra-ring order and
/// survives eviction (a ring that has evicted starts at seq > 0).
struct JournalEvent {
  double sim_sec = 0;
  uint64_t seq = 0;
  JournalEventKind kind = JournalEventKind::kStatementBegin;
  int64_t a = 0;
  int64_t b = 0;
  std::string detail;
};

/// \brief Always-on bounded flight recorder for one simulated machine.
///
/// One event ring per tracker node (disk nodes, diskless processors,
/// scheduler, host, recovery server). Writes follow the executor's
/// one-task-per-node ownership discipline: while a parallel step runs, ring
/// i is written only by the task that owns node i (fault draws), and the
/// coordinator — which blocks until the barrier — writes the control rings
/// (statement lifecycle, locks, WAL, recovery, migration) strictly between
/// steps. So every ring is single-writer and needs no locking, and the
/// per-ring event order depends only on that node's own operation sequence
/// — the same argument that makes the fault streams and WAL staging
/// deterministic at any GAMMA_HOST_THREADS.
///
/// The merged canonical order sorts by (sim_sec, ring, seq): simulated time
/// first, canonical node order to break ties, per-ring sequence last. The
/// simulated clock only advances on the coordinator (statement completion,
/// recovery, migration), so every rendering is byte-identical at any host
/// thread count. Recording costs real memory only — never simulated time.
class Journal {
 public:
  /// `capacity` events are retained per ring (0 disables recording).
  Journal(int num_rings, size_t capacity);

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  bool enabled() const { return capacity_ > 0; }
  int num_rings() const { return static_cast<int>(rings_.size()); }
  size_t capacity() const { return capacity_; }

  /// Records one event in `ring`, stamped at the current simulated clock.
  /// Caller must own the ring (see class comment).
  void Emit(int ring, JournalEventKind kind, int64_t a = 0, int64_t b = 0,
            std::string detail = {});

  /// Records one event with an explicit timestamp — used by the coordinator
  /// to place phase transitions and statement ends inside the statement's
  /// simulated interval after its accounting closes.
  void EmitAt(int ring, double sim_sec, JournalEventKind kind, int64_t a = 0,
              int64_t b = 0, std::string detail = {});

  /// The machine's simulated clock: the sum of every finished statement's,
  /// recovery pass's and migration's simulated seconds. Advanced only by
  /// the coordinator.
  double now() const { return now_; }
  void Advance(double sec) { now_ += sec; }

  /// Elastic growth: inserts an empty ring at `index` (the new disk node),
  /// shifting the diskless and control rings up so ring index keeps equal
  /// tracker-node index at the new width. Sequence counters of existing
  /// rings are untouched.
  void Grow(int index);

  /// Events of ring `i` in emit order (oldest first).
  const BoundedRing<JournalEvent>& ring(int i) const;

  struct MergedEvent {
    int ring;
    const JournalEvent* event;
  };
  /// Every retained event in canonical order: (sim_sec, ring, seq).
  std::vector<MergedEvent> Merged() const;

  /// Total events ever emitted (including evicted ones). Coordinator-only,
  /// like every read accessor: summed across rings at a barrier.
  uint64_t events_emitted() const;

  /// Human rendering of the newest `max_events` merged events (0 = all),
  /// one line each — the `explain journal` surface.
  std::string RenderText(size_t max_events = 0) const;

  /// JSON array of every retained event in canonical order.
  std::string EventsJson() const;

  /// Drops every retained event (sequence counters and the clock survive,
  /// so later emits still sort after earlier ones).
  void Clear();

 private:
  struct Ring {
    BoundedRing<JournalEvent> events;  // oldest first
    uint64_t next_seq = 0;
  };

  void Push(int ring, double sim_sec, JournalEventKind kind, int64_t a,
            int64_t b, std::string detail);

  size_t capacity_;
  double now_ = 0;
  std::vector<Ring> rings_;
};

}  // namespace gammadb::obs

#endif  // GAMMA_OBS_JOURNAL_H_
