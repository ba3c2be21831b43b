#include "sim/cost_tracker.h"

#include <algorithm>
#include <cstdio>

#include "common/macros.h"

namespace gammadb::sim {

double NodeUsage::ElapsedSec(PhaseKind kind) const {
  if (kind == PhaseKind::kPipelined) {
    return serial_sec + std::max({disk_sec, cpu_sec, net_sec});
  }
  return serial_sec + disk_sec + cpu_sec + net_sec;
}

Resource NodeUsage::Bottleneck() const {
  if (disk_sec >= cpu_sec && disk_sec >= net_sec) {
    return disk_sec > 0 ? Resource::kDisk : Resource::kNone;
  }
  if (cpu_sec >= net_sec) return Resource::kCpu;
  return Resource::kNet;
}

void NodeUsage::Add(const NodeUsage& other) {
  disk_sec += other.disk_sec;
  cpu_sec += other.cpu_sec;
  net_sec += other.net_sec;
  serial_sec += other.serial_sec;
  seq_page_ios += other.seq_page_ios;
  rand_page_ios += other.rand_page_ios;
  pages_read += other.pages_read;
  pages_written += other.pages_written;
  buffer_hits += other.buffer_hits;
  packets_sent += other.packets_sent;
  packets_short_circuited += other.packets_short_circuited;
  packets_retransmitted += other.packets_retransmitted;
  bytes_sent += other.bytes_sent;
  bytes_short_circuited += other.bytes_short_circuited;
  control_msgs += other.control_msgs;
  tuples_routed += other.tuples_routed;
  split_streams_in += other.split_streams_in;
}

NodeUsage PhaseMetrics::Totals() const {
  NodeUsage total;
  for (const NodeUsage& usage : per_node) total.Add(usage);
  return total;
}

double QueryMetrics::TotalSec() const {
  double total = scheduling_sec;
  for (const PhaseMetrics& phase : phases) total += phase.elapsed_sec;
  return total;
}

NodeUsage QueryMetrics::Totals() const {
  NodeUsage total;
  for (const PhaseMetrics& phase : phases) total.Add(phase.Totals());
  return total;
}

double QueryMetrics::ShortCircuitFraction() const {
  const NodeUsage total = Totals();
  const uint64_t all = total.packets_sent + total.packets_short_circuited;
  if (all == 0) return 0.0;
  return static_cast<double>(total.packets_short_circuited) /
         static_cast<double>(all);
}

std::string QueryMetrics::Summary() const {
  const NodeUsage total = Totals();
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%.3fs (sched %.3fs, %zu phases, %llu pages, %llu pkts, "
                "sc %.0f%%, %u overflow rounds)",
                TotalSec(), scheduling_sec, phases.size(),
                static_cast<unsigned long long>(total.pages_read +
                                                total.pages_written),
                static_cast<unsigned long long>(total.packets_sent +
                                                total.packets_short_circuited),
                100.0 * ShortCircuitFraction(), overflow_rounds);
  return buf;
}

CostTracker::CostTracker(const MachineParams& hw, int num_nodes) : hw_(hw) {
  GAMMA_CHECK(num_nodes > 0);
  nodes_.resize(static_cast<size_t>(num_nodes));
}

void CostTracker::BeginPhase(std::string name, PhaseKind kind) {
  GAMMA_CHECK_MSG(!in_phase_, "BeginPhase inside an open phase");
  phase_name_ = std::move(name);
  phase_kind_ = kind;
  phase_ring_bytes_ = 0;
  for (NodeUsage& node : nodes_) node = NodeUsage{};
  in_phase_ = true;
}

void CostTracker::EndPhase() {
  GAMMA_CHECK_MSG(in_phase_, "EndPhase without BeginPhase");
  PhaseMetrics phase;
  phase.name = phase_name_;
  phase.kind = phase_kind_;
  phase.ring_bytes = phase_ring_bytes_;
  phase.per_node = nodes_;

  double slowest = 0;
  for (int i = 0; i < num_nodes(); ++i) {
    const double elapsed = nodes_[static_cast<size_t>(i)].ElapsedSec(phase_kind_);
    if (elapsed > slowest) {
      slowest = elapsed;
      phase.bottleneck_node = i;
      phase.bottleneck_resource = nodes_[static_cast<size_t>(i)].Bottleneck();
    }
  }
  const double ring_sec =
      static_cast<double>(phase_ring_bytes_) / hw_.net.ring_bytes_per_sec;
  if (ring_sec > slowest) {
    phase.elapsed_sec = ring_sec;
    phase.ring_limited = true;
  } else {
    phase.elapsed_sec = slowest;
  }
  metrics_.phases.push_back(std::move(phase));
  in_phase_ = false;
}

void CostTracker::ChargeDiskRead(int node, uint64_t bytes, bool sequential) {
  NodeUsage& usage = nodes_.at(static_cast<size_t>(node));
  usage.disk_sec += hw_.disk.AccessSec(bytes, sequential);
  usage.cpu_sec += hw_.cpu.InstrSec(hw_.cost.instr_per_page_io);
  usage.pages_read += 1;
  (sequential ? usage.seq_page_ios : usage.rand_page_ios) += 1;
}

void CostTracker::ChargeDiskWrite(int node, uint64_t bytes, bool sequential) {
  NodeUsage& usage = nodes_.at(static_cast<size_t>(node));
  usage.disk_sec += hw_.disk.AccessSec(bytes, sequential);
  usage.cpu_sec += hw_.cpu.InstrSec(hw_.cost.instr_per_page_io);
  usage.pages_written += 1;
  (sequential ? usage.seq_page_ios : usage.rand_page_ios) += 1;
}

void CostTracker::ChargeBufferHit(int node) {
  NodeUsage& usage = nodes_.at(static_cast<size_t>(node));
  usage.cpu_sec += hw_.cpu.InstrSec(hw_.cost.instr_per_page_hit);
  usage.buffer_hits += 1;
}

void CostTracker::ChargeCpu(int node, double instructions) {
  nodes_.at(static_cast<size_t>(node)).cpu_sec +=
      hw_.cpu.InstrSec(instructions);
}

void CostTracker::ChargeCpuTimes(int node, double instructions,
                                 uint64_t times) {
  double& cpu_sec = nodes_.at(static_cast<size_t>(node)).cpu_sec;
  const double sec = hw_.cpu.InstrSec(instructions);
  for (uint64_t i = 0; i < times; ++i) cpu_sec += sec;
}

void CostTracker::ChargeSerialSec(int node, double sec) {
  nodes_.at(static_cast<size_t>(node)).serial_sec += sec;
}

void CostTracker::ChargeDataPacket(int src, int dst, uint64_t bytes,
                                   bool force_network) {
  NodeUsage& sender = nodes_.at(static_cast<size_t>(src));
  if (src == dst && !force_network) {
    // Short-circuited by the communications software (§2): never touches
    // the NIC or the ring — and can never be dropped.
    sender.cpu_sec +=
        hw_.cpu.InstrSec(hw_.cost.instr_per_packet_shortcircuit);
    sender.packets_short_circuited += 1;
    sender.bytes_short_circuited += bytes;
    return;
  }
  // A dropped packet is detected and re-sent by the link-level protocol:
  // same data arrives, the wire and protocol work is paid twice.
  const bool dropped = faults_ != nullptr && faults_->OnPacket(src);
  const double sends = dropped ? 2.0 : 1.0;
  if (dropped) sender.packets_retransmitted += 1;
  if (src == dst) {
    // force_network: out through the NIC and back in at the same node.
    const double nic_sec =
        2.0 * static_cast<double>(bytes) / hw_.net.nic_bytes_per_sec;
    sender.cpu_sec +=
        sends * 2.0 * hw_.cpu.InstrSec(hw_.cost.instr_per_packet_protocol);
    sender.net_sec += sends * nic_sec;
    sender.packets_sent += 1;
    sender.bytes_sent += bytes;
    phase_ring_bytes_ += static_cast<uint64_t>(sends) * bytes;
    return;
  }
  NodeUsage& receiver = nodes_.at(static_cast<size_t>(dst));
  const double nic_sec = static_cast<double>(bytes) / hw_.net.nic_bytes_per_sec;
  sender.cpu_sec +=
      sends * hw_.cpu.InstrSec(hw_.cost.instr_per_packet_protocol);
  sender.net_sec += sends * nic_sec;
  sender.packets_sent += 1;
  sender.bytes_sent += bytes;
  receiver.cpu_sec += hw_.cpu.InstrSec(hw_.cost.instr_per_packet_protocol);
  receiver.net_sec += sends * nic_sec;
  phase_ring_bytes_ += static_cast<uint64_t>(sends) * bytes;
}

void CostTracker::ChargeControlMessage(int src, int dst, bool blocking) {
  NodeUsage& sender = nodes_.at(static_cast<size_t>(src));
  sender.control_msgs += 1;
  if (src == dst) {
    sender.cpu_sec +=
        hw_.cpu.InstrSec(hw_.cost.instr_per_packet_shortcircuit);
    return;
  }
  // A small message's ~7 ms end-to-end latency is dominated by protocol CPU
  // at both ends; model it as half the latency of busy CPU on each side.
  sender.cpu_sec += hw_.net.control_msg_sec / 2;
  nodes_.at(static_cast<size_t>(dst)).cpu_sec += hw_.net.control_msg_sec / 2;
  if (blocking) sender.serial_sec += hw_.net.control_msg_sec;
}

void CostTracker::CountTupleRouted(int dst) {
  nodes_.at(static_cast<size_t>(dst)).tuples_routed += 1;
}

void CostTracker::CountRouteStream(int dst) {
  nodes_.at(static_cast<size_t>(dst)).split_streams_in += 1;
}

void CostTracker::ChargeScheduling(uint32_t num_operators,
                                   uint32_t nodes_per_operator) {
  const uint32_t msgs = num_operators * nodes_per_operator *
                        hw_.net.sched_msgs_per_operator_per_node;
  metrics_.scheduling_msgs += msgs;
  metrics_.scheduling_sec += msgs * hw_.net.control_msg_sec;
}

void CostTracker::MergeUsage(const CostTracker& shard) {
  GAMMA_CHECK_MSG(in_phase_, "MergeUsage outside a phase");
  GAMMA_CHECK(shard.nodes_.size() == nodes_.size());
  GAMMA_CHECK_MSG(shard.metrics_.phases.empty() && !shard.in_phase_,
                  "shard trackers never run phases of their own");
  for (size_t i = 0; i < nodes_.size(); ++i) nodes_[i].Add(shard.nodes_[i]);
  phase_ring_bytes_ += shard.phase_ring_bytes_;
}

QueryMetrics CostTracker::Finish() {
  GAMMA_CHECK_MSG(!in_phase_, "Finish inside an open phase");
  return std::move(metrics_);
}

}  // namespace gammadb::sim
