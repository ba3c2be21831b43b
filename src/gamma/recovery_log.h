#ifndef GAMMA_GAMMA_RECOVERY_LOG_H_
#define GAMMA_GAMMA_RECOVERY_LOG_H_

#include <cstdint>
#include <span>
#include <vector>

#include "gamma/wal.h"
#include "sim/cost_tracker.h"

namespace gammadb::gamma {

/// \brief The recovery server the paper's conclusion plans to add (§8).
///
/// The evaluated Gamma lacked full recovery: its "most glaring deficiency".
/// The authors' stated fix is "a recovery server that will collect log
/// records from each processor". This class charges that design for one
/// statement: each operator ships log records (packed into network packets)
/// to a dedicated recovery processor, which appends them to a sequential
/// log; a force writes the partial tail page, and commit is a force plus an
/// acknowledgement round trip. The records themselves live in the
/// machine-lifetime WalStore.
///
/// One path in: every replayable record goes through Log(), which copies
/// its images into the WalStore and charges them through Append(); store
/// operators call Append() alone (charge only, nothing replayable).
/// Commit and checkpoint markers ship through the same packet loop as
/// Append() but are not counted in stats().records. ForceTail() is the one
/// force; Commit() and ChargeCheckpoint() end in it.
///
/// Host-parallel execution: a store task passes its shard to Append(), which
/// charges the source node's CPU and packets there and defers the server's
/// sequential log-page writes (shared across sources) to the next Settle(),
/// which applies them in canonical node order. Calls without a shard apply
/// server work immediately.
///
/// Logging off is a null tracker: nothing is charged or counted, but Log()
/// still keeps the record and LogCommit() still seals the commit marker,
/// because every abort undoes through the WalStore.
class RecoveryLog {
 public:
  struct Stats {
    uint64_t records = 0;
    uint64_t bytes = 0;
    uint64_t log_pages_written = 0;
    /// Commit points that forced the log tail (partial page) to disk.
    uint64_t forced_flushes = 0;
  };

  /// Per-record header (txn id, kind, file id, rid, lengths).
  static constexpr uint32_t kRecordHeaderBytes =
      static_cast<uint32_t>(WalRecord::kHeaderBytes);

  /// `recovery_node` is the dedicated processor's tracker index; `tracker`
  /// may be null (logging off). `wal` is the machine-lifetime store Log()
  /// and LogCommit() seal into.
  RecoveryLog(sim::CostTracker* tracker, int recovery_node,
              uint32_t page_size, WalStore& wal);

  RecoveryLog(const RecoveryLog&) = delete;
  RecoveryLog& operator=(const RecoveryLog&) = delete;

  /// Logs one record of `payload_bytes` (tuple image(s)) from `src_node`.
  /// Full packets are shipped to the recovery server as they fill. With a
  /// `shard` (a host-parallel store task) the source's charges land there
  /// and the server's page writes wait for Settle(); without one they land
  /// on the statement's tracker and the server appends at once.
  void Append(int src_node, uint32_t payload_bytes,
              sim::CostTracker* shard = nullptr);

  /// Logs one replayable record from `src_node`: `header` (txn, kind, rel,
  /// fragment, rids, mirrored) with its `before`/`after` images, which are
  /// copied into the WalStore. Charges like Append of `before.size() +
  /// after.size()`. Update statements log on the coordinator thread, so
  /// LSNs are identical for any host-pool width.
  void Log(int src_node, WalRecord header, std::span<const uint8_t> before,
           std::span<const uint8_t> after);

  /// Forces the log tail for `src_node`'s records: flushes its partial
  /// packet, settles deferred server work, and writes the partial log page.
  /// This is the data force of the commit protocol — the statement's page
  /// writes may only proceed once it completes (write-ahead rule).
  void ForceTail(int src_node);

  /// Commit point for `src_node`: ForceTail plus the acknowledgement round
  /// trip.
  void Commit(int src_node);

  /// Seals the statement's commit record (winner marker), ships the
  /// uncounted marker and commits (the sealing alone with logging off).
  void LogCommit(int src_node, uint64_t txn);

  /// Charges the fuzzy-checkpoint record pair (uncounted markers) and
  /// forces the tail. The caller seals the actual checkpoint via
  /// WalStore::Checkpoint().
  void ChargeCheckpoint(int src_node);

  /// Applies packets shipped by shard-charged Append calls to the server's
  /// sequential log, in canonical node order, charging the query tracker.
  /// The machine calls this at every phase barrier where stores logged;
  /// no-op when nothing is deferred.
  void Settle();

  /// Counters aggregated over the per-node streams (all zero with logging
  /// off).
  Stats stats() const;

 private:
  /// The packet loop every record and marker goes through: builds it on
  /// `sink` and ships each full packet.
  void Enqueue(int src_node, uint64_t record_bytes, sim::CostTracker* sink);
  void ShipPacket(int src_node, uint64_t bytes, sim::CostTracker* sink);
  /// Server side: copy `bytes` into the log buffer, write full pages.
  void ApplyToServer(uint64_t bytes);

  sim::CostTracker* tracker_;
  int recovery_node_;
  uint32_t page_size_;
  WalStore& wal_;
  /// Unshipped log bytes per source node.
  std::vector<uint64_t> pending_;
  /// Shard-shipped bytes per source awaiting server-side settlement.
  std::vector<uint64_t> unsettled_;
  /// Per-source record/byte counters (single writer: the owning task).
  std::vector<uint64_t> records_;
  std::vector<uint64_t> bytes_;
  /// Bytes accumulated at the server toward the next log page.
  uint64_t server_pending_ = 0;
  uint64_t log_pages_written_ = 0;
  uint64_t forced_flushes_ = 0;
};

}  // namespace gammadb::gamma

#endif  // GAMMA_GAMMA_RECOVERY_LOG_H_
