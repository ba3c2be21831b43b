#include "sim/workload.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "common/macros.h"
#include "common/rng.h"
#include "obs/metrics_registry.h"

namespace gammadb::sim {

namespace {

struct FootprintLock {
  txn::LockId id;
  txn::LockMode mode;
};

/// Appends X fragment locks for the home sites an update statement touches:
/// the key's hash site when the key is the partitioning attribute, otherwise
/// (or for round-robin, whose commit-time target depends on interleaving)
/// every fragment.
void AddUpdateFragments(const catalog::RelationMeta& meta, uint32_t rel,
                        int num_disk_nodes, int key_attr, int32_t key,
                        std::vector<FootprintLock>* out) {
  int home = -1;
  if (meta.partitioning.strategy != catalog::PartitionStrategy::kRoundRobin &&
      meta.partitioning.key_attr == key_attr) {
    catalog::Partitioner partitioner(&meta.partitioning, &meta.schema,
                                     num_disk_nodes);
    home = partitioner.NodeForKey(key);
  }
  if (home >= 0) {
    out->push_back({txn::LockId::Fragment(rel, static_cast<uint32_t>(home)),
                    txn::LockMode::kX});
  } else {
    for (int f = 0; f < num_disk_nodes; ++f) {
      out->push_back({txn::LockId::Fragment(rel, static_cast<uint32_t>(f)),
                      txn::LockMode::kX});
    }
  }
}

void AddReadFootprint(gamma::GammaMachine* machine, const std::string& name,
                      std::vector<FootprintLock>* out) {
  const uint32_t rel = machine->txns().RelationId(name);
  out->push_back({txn::LockId::Relation(rel), txn::LockMode::kIS});
  for (int f = 0; f < machine->config().num_disk_nodes; ++f) {
    out->push_back({txn::LockId::Fragment(rel, static_cast<uint32_t>(f)),
                    txn::LockMode::kS});
  }
}

/// The relations a statement reads or writes.
std::vector<const std::string*> RelationsOf(const Statement& stmt) {
  return std::visit(
      [](const auto& q) -> std::vector<const std::string*> {
        if constexpr (std::is_same_v<std::decay_t<decltype(q)>,
                                     gamma::JoinQuery>) {
          return {&q.outer, &q.inner};
        } else {
          return {&q.relation};
        }
      },
      stmt);
}

/// Lock footprints read each statement's relation from the catalog: a
/// message naming the first relation of `spec` the catalog lacks, or "".
std::string UnknownRelation(gamma::GammaMachine& machine,
                            const ClientSpec& spec) {
  for (const TxnSpec& txn : spec.script) {
    for (const Statement& stmt : txn.statements) {
      for (const std::string* name : RelationsOf(stmt)) {
        if (!machine.catalog().Get(*name).ok()) {
          return "workload transaction " + txn.label +
                 " names unknown relation " + *name;
        }
      }
    }
  }
  return "";
}

/// The multi-granularity lock set a statement needs, in canonical order
/// (relation intention lock first, fragments ascending, duplicates merged by
/// supremum). Deadlocks arise only from transactions whose *statements*
/// touch relations in conflicting orders — exactly the §7-style concurrent
/// update interleavings the tests exercise.
std::vector<FootprintLock> FootprintOf(gamma::GammaMachine* machine,
                                       const Statement& stmt) {
  const int ndisk = machine->config().num_disk_nodes;
  std::vector<FootprintLock> out;
  std::visit(
      [&](const auto& q) {
        using T = std::decay_t<decltype(q)>;
        if constexpr (std::is_same_v<T, gamma::SelectQuery> ||
                      std::is_same_v<T, gamma::AggregateQuery>) {
          AddReadFootprint(machine, q.relation, &out);
        } else if constexpr (std::is_same_v<T, gamma::JoinQuery>) {
          AddReadFootprint(machine, q.outer, &out);
          AddReadFootprint(machine, q.inner, &out);
        } else if constexpr (std::is_same_v<T, gamma::AppendQuery>) {
          auto meta_or = machine->catalog().Get(q.relation);
          GAMMA_CHECK(meta_or.ok());
          const catalog::RelationMeta& meta = **meta_or;
          const uint32_t rel = machine->txns().RelationId(q.relation);
          out.push_back({txn::LockId::Relation(rel), txn::LockMode::kIX});
          if (meta.partitioning.strategy ==
              catalog::PartitionStrategy::kRoundRobin) {
            for (int f = 0; f < ndisk; ++f) {
              out.push_back(
                  {txn::LockId::Fragment(rel, static_cast<uint32_t>(f)),
                   txn::LockMode::kX});
            }
          } else {
            catalog::Partitioner partitioner(&meta.partitioning, &meta.schema,
                                             ndisk);
            const int home = partitioner.NodeFor(q.tuple);
            out.push_back(
                {txn::LockId::Fragment(rel, static_cast<uint32_t>(home)),
                 txn::LockMode::kX});
          }
        } else if constexpr (std::is_same_v<T, gamma::DeleteQuery>) {
          auto meta_or = machine->catalog().Get(q.relation);
          GAMMA_CHECK(meta_or.ok());
          const uint32_t rel = machine->txns().RelationId(q.relation);
          out.push_back({txn::LockId::Relation(rel), txn::LockMode::kIX});
          AddUpdateFragments(**meta_or, rel, ndisk, q.key_attr, q.key, &out);
        } else if constexpr (std::is_same_v<T, gamma::ModifyQuery>) {
          auto meta_or = machine->catalog().Get(q.relation);
          GAMMA_CHECK(meta_or.ok());
          const catalog::RelationMeta& meta = **meta_or;
          const uint32_t rel = machine->txns().RelationId(q.relation);
          out.push_back({txn::LockId::Relation(rel), txn::LockMode::kIX});
          AddUpdateFragments(meta, rel, ndisk, q.locate_attr, q.locate_key,
                             &out);
          if (meta.partitioning.strategy !=
                  catalog::PartitionStrategy::kRoundRobin &&
              meta.partitioning.key_attr == q.target_attr) {
            // Relocation: the new home fragment is written too.
            catalog::Partitioner partitioner(&meta.partitioning, &meta.schema,
                                             ndisk);
            const int new_home = partitioner.NodeForKey(q.new_value);
            if (new_home >= 0) {
              out.push_back(
                  {txn::LockId::Fragment(rel, static_cast<uint32_t>(new_home)),
                   txn::LockMode::kX});
            }
          }
        }
      },
      stmt);
  // Canonical order: by encoded id (relation locks sort before their
  // fragments); merge duplicates by supremum so each id is requested once.
  std::stable_sort(out.begin(), out.end(),
                   [](const FootprintLock& a, const FootprintLock& b) {
                     return a.id.Encode() < b.id.Encode();
                   });
  std::vector<FootprintLock> merged;
  for (const FootprintLock& fl : out) {
    if (!merged.empty() && merged.back().id.Encode() == fl.id.Encode()) {
      merged.back().mode = txn::Supremum(merged.back().mode, fl.mode);
    } else {
      merged.push_back(fl);
    }
  }
  return merged;
}

Result<gamma::QueryResult> RunStatement(gamma::GammaMachine& machine,
                                        const Statement& stmt, uint64_t txn) {
  return std::visit(
      [&](const auto& q) -> Result<gamma::QueryResult> {
        using T = std::decay_t<decltype(q)>;
        if constexpr (std::is_same_v<T, gamma::SelectQuery> ||
                      std::is_same_v<T, gamma::JoinQuery> ||
                      std::is_same_v<T, gamma::AggregateQuery>) {
          if (txn != 0) {
            return Status::InvalidArgument(
                "reads run only as profiling statements");
          }
        }
        if constexpr (std::is_same_v<T, gamma::SelectQuery>) {
          return machine.RunSelect(q);
        } else if constexpr (std::is_same_v<T, gamma::JoinQuery>) {
          return machine.RunJoin(q);
        } else if constexpr (std::is_same_v<T, gamma::AggregateQuery>) {
          return machine.RunAggregate(q);
        } else if constexpr (std::is_same_v<T, gamma::AppendQuery>) {
          return machine.RunAppend(q, txn);
        } else if constexpr (std::is_same_v<T, gamma::DeleteQuery>) {
          return machine.RunDelete(q, txn);
        } else {
          return machine.RunModify(q, txn);
        }
      },
      stmt);
}

}  // namespace

Result<QueryMetrics> ProfileStatement(gamma::GammaMachine& machine,
                                      const Statement& stmt) {
  GAMMA_ASSIGN_OR_RETURN(const gamma::QueryResult result,
                         RunStatement(machine, stmt, /*txn=*/0));
  if (!result.result_relation.empty()) {
    GAMMA_RETURN_NOT_OK(machine.DropRelation(result.result_relation));
  }
  return result.metrics;
}

const ClassReport* WorkloadReport::Class(const std::string& label) const {
  for (const ClassReport& c : classes) {
    if (c.label == label) return &c;
  }
  return nullptr;
}

/// Disk, CPU and NIC servers of one simulated node.
struct WorkloadDriver::NodeServers {
  explicit NodeServers(EventQueue* q) : disk(q), cpu(q), net(q) {}
  ResourceServer disk;
  ResourceServer cpu;
  ResourceServer net;
};

struct WorkloadDriver::Client {
  Client(ClientSpec s, size_t i, uint64_t seed)
      : spec(std::move(s)), index(i), rng(seed) {}

  ClientSpec spec;
  size_t index;
  Rng rng;

  size_t script_pos = 0;
  int loops_done = 0;
  bool done = false;

  /// Current transaction attempt (0 = none in flight).
  uint64_t txn = 0;
  size_t stmt_idx = 0;
  std::vector<FootprintLock> footprint;
  size_t lock_idx = 0;
  double submit_sec = 0;
  bool blocked = false;
  double wait_start_sec = -1;
};

WorkloadDriver::WorkloadDriver(gamma::GammaMachine* machine,
                               WorkloadOptions options)
    : machine_(machine), options_(options) {
  const int n = machine_->config().tracker_nodes();
  servers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    servers_.push_back(std::make_unique<NodeServers>(&queue_));
  }
  ring_ = std::make_unique<ResourceServer>(&queue_);
  base_totals_ = machine_->txns().totals();
}

WorkloadDriver::~WorkloadDriver() = default;

Status WorkloadDriver::AddClient(ClientSpec spec) {
  if (ran_) {
    return Status::FailedPrecondition("the workload has already run");
  }
  if (spec.script.empty()) {
    return Status::InvalidArgument("a workload client needs a script");
  }
  if (const std::string missing = UnknownRelation(*machine_, spec);
      !missing.empty()) {
    return Status::InvalidArgument(missing);
  }
  const uint64_t seed = options_.seed ^ (0x9E3779B97F4A7C15ULL *
                                         (clients_.size() + 1));
  clients_.push_back(
      std::make_unique<Client>(std::move(spec), clients_.size(), seed));
  return Status::OK();
}

const TxnSpec& WorkloadDriver::SpecOf(const Client& c) const {
  return c.spec.script[c.script_pos];
}

void WorkloadDriver::StartThink(size_t ci) {
  Client& c = *clients_[ci];
  if (c.done) return;
  double think = c.spec.think_sec;
  if (c.spec.think_jitter_sec > 0) {
    think += c.spec.think_jitter_sec * c.rng.NextDouble();
  }
  queue_.After(think, [this, ci] { StartTxn(ci); });
}

void WorkloadDriver::StartTxn(size_t ci) {
  Client& c = *clients_[ci];
  if (c.spec.loops > 0) {
    if (c.loops_done >= c.spec.loops) {
      c.done = true;
      return;
    }
  } else if (options_.duration_sec > 0 &&
             queue_.now() >= options_.duration_sec) {
    c.done = true;
    return;
  }
  c.submit_sec = queue_.now();
  RetryTxn(ci);
}

void WorkloadDriver::RetryTxn(size_t ci) {
  Client& c = *clients_[ci];
  c.txn = machine_->BeginTxn();
  txn_client_[c.txn] = ci;
  c.stmt_idx = 0;
  BeginStatement(ci);
}

void WorkloadDriver::BeginStatement(size_t ci) {
  Client& c = *clients_[ci];
  const TxnSpec& spec = SpecOf(c);
  if (c.stmt_idx >= spec.statements.size()) {
    CommitClientTxn(ci);
    return;
  }
  c.footprint = FootprintOf(machine_, spec.statements[c.stmt_idx]);
  c.lock_idx = 0;
  AcquireNext(ci);
}

void WorkloadDriver::AcquireNext(size_t ci) {
  Client& c = *clients_[ci];
  if (c.lock_idx >= c.footprint.size()) {
    RunPhases(ci);
    return;
  }
  const FootprintLock& fl = c.footprint[c.lock_idx];
  const int table = machine_->txns().TableFor(fl.id);
  const MachineParams& hw = machine_->config().hw;
  const uint64_t txn = c.txn;
  // The lock manager's CPU path runs at the node owning the lock table
  // before the request is decided.
  servers_[static_cast<size_t>(table)]->cpu.Demand(
      hw.cpu.InstrSec(hw.cost.instr_per_lock), [this, ci, txn] {
        Client& cc = *clients_[ci];
        if (cc.txn != txn) return;  // aborted while the demand was queued
        const FootprintLock& req = cc.footprint[cc.lock_idx];
        txn::TxnManager::AcquireResult res =
            machine_->txns().Acquire(cc.txn, req.id, req.mode);
        using Outcome = txn::TxnManager::AcquireResult::Outcome;
        switch (res.outcome) {
          case Outcome::kGranted:
            HandleVictims(res.aborted_victims);
            HandleGrants(res.grants);
            ++cc.lock_idx;
            AcquireNext(ci);
            break;
          case Outcome::kBlocked:
            cc.blocked = true;
            cc.wait_start_sec = queue_.now();
            HandleVictims(res.aborted_victims);
            HandleGrants(res.grants);
            break;
          case Outcome::kAbortedSelf:
            // Drop our own mapping first so HandleVictims skips us.
            txn_client_.erase(cc.txn);
            cc.txn = 0;
            ++report_.aborted_retries;
            HandleVictims(res.aborted_victims);
            HandleGrants(res.grants);
            queue_.After(options_.abort_backoff_sec,
                         [this, ci] { RetryTxn(ci); });
            break;
        }
      });
}

void WorkloadDriver::HandleVictims(const std::vector<uint64_t>& victims) {
  for (const uint64_t v : victims) {
    auto it = txn_client_.find(v);
    if (it == txn_client_.end()) continue;
    const size_t vi = it->second;
    txn_client_.erase(it);
    Client& vc = *clients_[vi];
    if (vc.txn != v) continue;
    // Victims are always blocked waiters (a running transaction has no
    // waits-for edges); credit the aborted wait before restarting.
    if (vc.blocked && vc.wait_start_sec >= 0) {
      machine_->txns().AddWaitSec(v, queue_.now() - vc.wait_start_sec);
    }
    vc.txn = 0;
    vc.blocked = false;
    vc.wait_start_sec = -1;
    ++report_.aborted_retries;
    queue_.After(options_.abort_backoff_sec, [this, vi] { RetryTxn(vi); });
  }
}

void WorkloadDriver::HandleGrants(
    const std::vector<txn::LockManager::Grant>& grants) {
  for (const txn::LockManager::Grant& g : grants) {
    auto it = txn_client_.find(g.txn);
    if (it == txn_client_.end()) continue;
    const size_t gi = it->second;
    Client& gc = *clients_[gi];
    if (gc.txn != g.txn || !gc.blocked) continue;
    machine_->txns().AddWaitSec(gc.txn, queue_.now() - gc.wait_start_sec);
    gc.blocked = false;
    gc.wait_start_sec = -1;
    ++gc.lock_idx;
    const uint64_t txn = gc.txn;
    queue_.After(0, [this, gi, txn] {
      if (clients_[gi]->txn == txn) AcquireNext(gi);
    });
  }
}

void WorkloadDriver::RunPhases(size_t ci) {
  Client& c = *clients_[ci];
  const TxnSpec& spec = SpecOf(c);
  if (c.stmt_idx >= spec.profiles.size()) {
    // Zero-demand statement: only its locks matter.
    FinishStatement(ci);
    return;
  }
  const QueryMetrics& prof = spec.profiles[c.stmt_idx];
  const uint64_t txn = c.txn;
  const double sched = prof.scheduling_sec;
  auto start = [this, ci, txn] {
    if (clients_[ci]->txn == txn) StartPhase(ci, 0);
  };
  if (sched > 0) {
    // Operator initiation serializes at the scheduling processor.
    const int sn = machine_->config().scheduler_node();
    servers_[static_cast<size_t>(sn)]->cpu.Demand(sched, start);
  } else {
    start();
  }
}

void WorkloadDriver::StartPhase(size_t ci, size_t phase_idx) {
  Client& c = *clients_[ci];
  const QueryMetrics& prof = SpecOf(c).profiles[c.stmt_idx];
  if (phase_idx >= prof.phases.size()) {
    FinishStatement(ci);
    return;
  }
  const PhaseMetrics& ph = prof.phases[phase_idx];
  const uint64_t txn = c.txn;
  // Sentinel-counted barrier: the phase advances once every per-node job and
  // the ring transfer complete.
  auto barrier = std::make_shared<int>(1);
  const std::function<void()> arrive = [this, ci, phase_idx, txn, barrier] {
    if (--*barrier == 0 && clients_[ci]->txn == txn) {
      StartPhase(ci, phase_idx + 1);
    }
  };
  for (size_t n = 0; n < ph.per_node.size() && n < servers_.size(); ++n) {
    const NodeUsage& u = ph.per_node[n];
    if (u.disk_sec <= 0 && u.cpu_sec <= 0 && u.net_sec <= 0 &&
        u.serial_sec <= 0) {
      continue;
    }
    ++*barrier;
    NodeServers* sv = servers_[n].get();
    const double serial = u.serial_sec;
    const std::function<void()> node_done = [this, serial, arrive] {
      // Non-overlappable latency extends the node's part of the phase.
      if (serial > 0) {
        queue_.After(serial, arrive);
      } else {
        arrive();
      }
    };
    if (ph.kind == PhaseKind::kPipelined) {
      // Dataflow phase: the node's disk, CPU and NIC work overlap.
      auto nb = std::make_shared<int>(1);
      const std::function<void()> sub = [nb, node_done] {
        if (--*nb == 0) node_done();
      };
      if (u.disk_sec > 0) { ++*nb; sv->disk.Demand(u.disk_sec, sub); }
      if (u.cpu_sec > 0) { ++*nb; sv->cpu.Demand(u.cpu_sec, sub); }
      if (u.net_sec > 0) { ++*nb; sv->net.Demand(u.net_sec, sub); }
      sub();
    } else {
      // Request/response phase: nothing overlaps.
      const NodeUsage uc = u;
      const std::function<void()> after_net = node_done;
      const std::function<void()> after_cpu = [sv, uc, after_net] {
        if (uc.net_sec > 0) {
          sv->net.Demand(uc.net_sec, after_net);
        } else {
          after_net();
        }
      };
      const std::function<void()> after_disk = [sv, uc, after_cpu] {
        if (uc.cpu_sec > 0) {
          sv->cpu.Demand(uc.cpu_sec, after_cpu);
        } else {
          after_cpu();
        }
      };
      if (uc.disk_sec > 0) {
        sv->disk.Demand(uc.disk_sec, after_disk);
      } else {
        after_disk();
      }
    }
  }
  if (ph.ring_bytes > 0) {
    ++*barrier;
    ring_->Demand(static_cast<double>(ph.ring_bytes) /
                      machine_->config().hw.net.ring_bytes_per_sec,
                  arrive);
  }
  arrive();
}

void WorkloadDriver::FinishStatement(size_t ci) {
  Client& c = *clients_[ci];
  ++c.stmt_idx;
  BeginStatement(ci);
}

void WorkloadDriver::CommitClientTxn(size_t ci) {
  Client& c = *clients_[ci];
  const TxnSpec& spec = SpecOf(c);
  if (spec.execute_real) {
    // Execute-at-commit: the statements run for real only now, under the
    // transaction's fully acquired 2PL footprint, so aborted attempts never
    // had side effects and the commit order IS the serial-equivalent order.
    for (const Statement& stmt : spec.statements) {
      Result<gamma::QueryResult> r = RunStatement(*machine_, stmt, c.txn);
      if (!r.ok()) {
        failure_ = r.status();  // Run aborts the transaction
        return;
      }
    }
  }
  const std::vector<txn::LockManager::Grant> grants =
      machine_->CommitTxn(c.txn).value();
  txn_client_.erase(c.txn);
  c.txn = 0;
  report_.commit_log.push_back(CommitRecord{c.index, c.script_pos,
                                            spec.label});
  ++report_.committed;
  ClassAccum& acc = class_accum_[spec.label];
  ++acc.committed;
  if (c.submit_sec >= options_.warmup_sec) {
    acc.responses.push_back(queue_.now() - c.submit_sec);
    last_measured_commit_sec_ = queue_.now();
  }
  ++c.script_pos;
  if (c.script_pos >= c.spec.script.size()) {
    c.script_pos = 0;
    ++c.loops_done;
  }
  HandleGrants(grants);
  StartThink(ci);
}

Result<WorkloadReport> WorkloadDriver::Run() {
  if (ran_) {
    return Status::FailedPrecondition("the workload has already run");
  }
  ran_ = true;
  for (const auto& client : clients_) {
    if (const std::string missing = UnknownRelation(*machine_, client->spec);
        !missing.empty()) {
      return Status::NotFound(missing);
    }
  }
  for (size_t i = 0; i < clients_.size(); ++i) StartThink(i);
  while (failure_.ok() && queue_.RunOne()) {
  }
  if (!failure_.ok()) {
    for (const auto& client : clients_) {
      if (client->txn != 0) machine_->AbortTxn(client->txn);
    }
    return failure_;
  }

  report_.end_sec = queue_.now();
  const txn::TxnStats totals = machine_->txns().totals();
  report_.deadlocks = totals.deadlocks - base_totals_.deadlocks;
  report_.lock_acquisitions =
      totals.locks_acquired - base_totals_.locks_acquired;
  report_.lock_waits = totals.lock_waits - base_totals_.lock_waits;
  report_.lock_wait_sec = totals.lock_wait_sec - base_totals_.lock_wait_sec;

  const double window = last_measured_commit_sec_ - options_.warmup_sec;
  for (auto& [label, acc] : class_accum_) {
    ClassReport cr;
    cr.label = label;
    cr.committed = acc.committed;
    cr.measured = acc.responses.size();
    double sum = 0;
    for (const double r : acc.responses) sum += r;
    cr.mean_response_sec =
        acc.responses.empty() ? 0 : sum / static_cast<double>(acc.responses.size());
    // Quantiles come from the registry's log-scale latency histogram (the
    // same instrument the BENCH JSON schema v5 histograms block exports).
    // Reset per run — the registry outlives the driver — and fed in commit
    // order, which is deterministic, so the FP sum is too.
    obs::Histogram& hist = obs::MetricsRegistry::Instance().histogram(
        "workload.response_sec." + label, obs::LogBuckets(1e-4, 1e4, 4));
    hist.Reset();
    for (const double r : acc.responses) hist.Observe(r);
    cr.p50_response_sec = hist.Quantile(0.5);
    cr.p95_response_sec = hist.Quantile(0.95);
    cr.p99_response_sec = hist.Quantile(0.99);
    cr.throughput_per_sec =
        window > 0 ? static_cast<double>(cr.measured) / window : 0;
    report_.classes.push_back(std::move(cr));
  }

  // Busiest simulated resource over the whole run.
  const double elapsed = report_.end_sec;
  for (size_t n = 0; n < servers_.size(); ++n) {
    const NodeServers& sv = *servers_[n];
    for (const auto& [name, server] :
         {std::pair<const char*, const ResourceServer*>{"disk", &sv.disk},
          {"cpu", &sv.cpu},
          {"net", &sv.net}}) {
      const double util = server->Utilization(elapsed);
      if (util > report_.bottleneck_utilization) {
        report_.bottleneck_utilization = util;
        report_.bottleneck =
            "node " + std::to_string(n) + " " + name;
      }
    }
  }
  if (ring_->Utilization(elapsed) > report_.bottleneck_utilization) {
    report_.bottleneck_utilization = ring_->Utilization(elapsed);
    report_.bottleneck = "ring";
  }
  return report_;
}

}  // namespace gammadb::sim
