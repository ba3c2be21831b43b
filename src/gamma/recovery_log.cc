#include "gamma/recovery_log.h"

#include <utility>

#include "common/macros.h"

namespace gammadb::gamma {

RecoveryLog::RecoveryLog(sim::CostTracker* tracker, int recovery_node,
                         uint32_t page_size, WalStore& wal)
    : tracker_(tracker),
      recovery_node_(recovery_node),
      page_size_(page_size),
      wal_(wal) {
  if (tracker_ != nullptr) {
    GAMMA_CHECK(recovery_node >= 0 && recovery_node < tracker->num_nodes());
    const size_t n = static_cast<size_t>(tracker->num_nodes());
    pending_.resize(n, 0);
    unsettled_.resize(n, 0);
    records_.resize(n, 0);
    bytes_.resize(n, 0);
  }
}

void RecoveryLog::ApplyToServer(uint64_t bytes) {
  tracker_->ChargeCpu(recovery_node_,
                      tracker_->hw().cost.instr_per_tuple_copy);
  server_pending_ += bytes;
  while (server_pending_ >= page_size_) {
    tracker_->ChargeDiskWrite(recovery_node_, page_size_,
                              /*sequential=*/true);
    server_pending_ -= page_size_;
    ++log_pages_written_;
  }
}

void RecoveryLog::ShipPacket(int src_node, uint64_t bytes,
                             sim::CostTracker* sink) {
  sink->ChargeDataPacket(src_node, recovery_node_, bytes);
  if (sink == tracker_) {
    ApplyToServer(bytes);
  } else {
    // A task shard is driving this source: the server's sequential log is
    // shared across sources, so its accounting waits for the next Settle().
    // The receive-side packet charge above lands in the shard's slot for
    // the recovery node and merges like any other usage.
    unsettled_[static_cast<size_t>(src_node)] += bytes;
  }
}

void RecoveryLog::Enqueue(int src_node, uint64_t record_bytes,
                          sim::CostTracker* sink) {
  // Building the record is cheap; shipping dominates.
  sink->ChargeCpu(src_node, sink->hw().cost.instr_per_tuple_copy);
  uint64_t& pending = pending_[static_cast<size_t>(src_node)];
  pending += record_bytes;
  const uint64_t payload = sink->hw().net.packet_payload_bytes;
  while (pending >= payload) {
    ShipPacket(src_node, payload, sink);
    pending -= payload;
  }
}

void RecoveryLog::Append(int src_node, uint32_t payload_bytes,
                         sim::CostTracker* shard) {
  if (tracker_ == nullptr) return;
  const uint64_t record = kRecordHeaderBytes + payload_bytes;
  ++records_[static_cast<size_t>(src_node)];
  bytes_[static_cast<size_t>(src_node)] += record;
  Enqueue(src_node, record, shard != nullptr ? shard : tracker_);
}

void RecoveryLog::Log(int src_node, WalRecord header,
                      std::span<const uint8_t> before,
                      std::span<const uint8_t> after) {
  header.before.assign(before.begin(), before.end());
  header.after.assign(after.begin(), after.end());
  wal_.Append(std::move(header));
  Append(src_node, static_cast<uint32_t>(before.size() + after.size()));
}

void RecoveryLog::Settle() {
  if (tracker_ == nullptr) return;
  for (size_t node = 0; node < unsettled_.size(); ++node) {
    if (unsettled_[node] == 0) continue;
    ApplyToServer(unsettled_[node]);
    unsettled_[node] = 0;
  }
}

void RecoveryLog::ForceTail(int src_node) {
  if (tracker_ == nullptr) return;
  uint64_t& pending = pending_[static_cast<size_t>(src_node)];
  if (pending > 0) {
    ShipPacket(src_node, pending, tracker_);
    pending = 0;
  }
  Settle();
  if (server_pending_ > 0) {
    tracker_->ChargeDiskWrite(recovery_node_, page_size_,
                              /*sequential=*/true);
    server_pending_ = 0;
    ++log_pages_written_;
    ++forced_flushes_;
  }
}

void RecoveryLog::Commit(int src_node) {
  if (tracker_ == nullptr) return;
  ForceTail(src_node);
  tracker_->ChargeControlMessage(src_node, recovery_node_, /*blocking=*/true);
  tracker_->ChargeControlMessage(recovery_node_, src_node, /*blocking=*/false);
}

void RecoveryLog::LogCommit(int src_node, uint64_t txn) {
  wal_.NoteCommit(txn);
  if (tracker_ == nullptr) return;
  Enqueue(src_node, kRecordHeaderBytes, tracker_);
  Commit(src_node);
}

void RecoveryLog::ChargeCheckpoint(int src_node) {
  if (tracker_ == nullptr) return;
  Enqueue(src_node, kRecordHeaderBytes, tracker_);
  Enqueue(src_node, kRecordHeaderBytes, tracker_);
  ForceTail(src_node);
}

RecoveryLog::Stats RecoveryLog::stats() const {
  Stats total;
  for (size_t node = 0; node < records_.size(); ++node) {
    total.records += records_[node];
    total.bytes += bytes_[node];
  }
  total.log_pages_written = log_pages_written_;
  total.forced_flushes = forced_flushes_;
  return total;
}

}  // namespace gammadb::gamma
