// Incremental fragment migration (see migrator.h for the protocol).
//
// Everything here runs on the query coordinator thread inside one
// kSequential phase, like the machine's update statements: ordered
// containers drive every loop, so the statement is byte-identical for any
// GAMMA_HOST_THREADS. Recovery correctness leans on the machine's
// test-and-apply redo/undo — source deletes are logged with before-images,
// target inserts with the rids the rebuilt fragment actually assigned, and
// the placement flip itself is a kPartition record carrying both
// PartitionSpec images.

#include "elastic/migrator.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <numeric>
#include <set>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/macros.h"
#include "gamma/machine.h"
#include "gamma/recovery_log.h"
#include "obs/metrics_registry.h"
#include "storage/deferred_update.h"

namespace gammadb::elastic {

using catalog::IntAttr;
using catalog::PartitionSpec;
using catalog::PartitionStrategy;
using catalog::RelationMeta;
using gamma::GammaMachine;
using gamma::QueryResult;
using gamma::RecoveryLog;
using gamma::WalKind;
using storage::DeferredUpdateFile;
using storage::Rid;

/// One tuple to relocate: where it lives now and where the new placement
/// sends it. Planning emits movers in (src fragment, rid) order, which every
/// later loop preserves.
struct ElasticMigrator::Mover {
  int src = -1;
  Rid rid{};
  std::vector<uint8_t> tuple;
  int dst = -1;
};

struct ElasticMigrator::Plan {
  PartitionSpec new_spec;
  std::vector<Mover> movers;
};

namespace {

/// Largest-remainder fair share of `total` items over `n` sites (low
/// indices take the remainder).
std::vector<uint64_t> FairShare(uint64_t total, int n) {
  std::vector<uint64_t> share(static_cast<size_t>(n),
                              total / static_cast<uint64_t>(n));
  const uint64_t rem = total % static_cast<uint64_t>(n);
  for (uint64_t i = 0; i < rem; ++i) ++share[static_cast<size_t>(i)];
  return share;
}

size_t RangeOf(const std::vector<int32_t>& boundaries, int32_t key) {
  return static_cast<size_t>(
      std::upper_bound(boundaries.begin(), boundaries.end(), key) -
      boundaries.begin());
}

void FoldRegistry(const MigrationReport& report) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Instance();
  registry.counter("elastic.migrations").Inc();
  registry.counter("elastic.migrated_tuples").Inc(report.tuples_moved);
  registry
      .histogram("elastic.migration_seconds",
                 {0.01, 0.1, 1.0, 10.0, 100.0, 1000.0})
      .Observe(report.migration_sec);
}

}  // namespace

ElasticMigrator::ElasticMigrator(GammaMachine* machine,
                                 MigrationOptions options)
    : machine_(machine), options_(options) {
  GAMMA_CHECK(machine != nullptr);
}

Result<MigrationReport> ElasticMigrator::MigrateRelation(
    const std::string& name) {
  MigrationReport report;
  report.node_count = machine_->config().num_disk_nodes;
  GAMMA_RETURN_NOT_OK(MigrateOne(name, &report));
  FoldRegistry(report);
  return report;
}

Result<MigrationReport> ElasticMigrator::MigrateAll() {
  MigrationReport report;
  report.node_count = machine_->config().num_disk_nodes;
  for (const std::string& name : machine_->catalog().Names()) {
    GAMMA_RETURN_NOT_OK(MigrateOne(name, &report));
  }
  FoldRegistry(report);
  return report;
}

Status ElasticMigrator::ScanFragment(
    const RelationMeta& meta, int fragment,
    const std::function<void(Rid, std::span<const uint8_t>)>& fn) const {
  return machine_->ScanFile(
      fragment, meta.per_node_file[static_cast<size_t>(fragment)], fn);
}

Status ElasticMigrator::PlanMoves(RelationMeta* meta, Plan* plan) const {
  plan->new_spec = meta->partitioning;
  switch (meta->partitioning.strategy) {
    case PartitionStrategy::kHashed:
      return PlanHashed(meta, plan);
    case PartitionStrategy::kRange:
      return PlanRange(meta, plan);
    case PartitionStrategy::kRoundRobin:
      return PlanRoundRobin(meta, plan);
  }
  return Status::OK();
}

Status ElasticMigrator::PlanHashed(RelationMeta* meta, Plan* plan) const {
  GammaMachine& m = *machine_;
  const int n = m.config_.num_disk_nodes;
  PartitionSpec& spec = plan->new_spec;
  // An empty bucket map means the relation was created at the current
  // width: hash % n already spreads it over every node (AddNode converts
  // pre-growth relations to bucket routing before the width changes).
  if (spec.bucket_map.empty()) return Status::OK();

  const size_t buckets = spec.bucket_map.size();
  const int key_attr = spec.key_attr;
  const uint64_t salt = spec.hash_salt;

  // One charged planning scan counts each virtual bucket's population, so
  // the re-deal balances tuples, not bucket counts (bucket sizes vary with
  // the key distribution; whole-bucket granularity is the residual error).
  std::vector<uint64_t> bucket_tuples(buckets, 0);
  uint64_t total = 0;
  for (int f = 0; f < n; ++f) {
    GAMMA_RETURN_NOT_OK(
        ScanFragment(*meta, f, [&](Rid, std::span<const uint8_t> t) {
          const int32_t key = IntAttr(meta->schema, t, key_attr);
          ++bucket_tuples[HashInt32(key, salt) % buckets];
          ++total;
        }));
  }
  std::vector<uint64_t> load(static_cast<size_t>(n), 0);
  for (size_t b = 0; b < buckets; ++b) {
    const int32_t owner = spec.bucket_map[b];
    GAMMA_CHECK(owner >= 0 && owner < n);
    load[static_cast<size_t>(owner)] += bucket_tuples[b];
  }
  const std::vector<uint64_t> targets = FairShare(total, n);

  // Greedy re-deal, largest bucket first: while its owner is over share,
  // hand the bucket to the lightest node below share — but only when that
  // actually narrows the gap between the two. Deterministic (population
  // ties break toward the lower bucket index).
  std::vector<size_t> order(buckets);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return bucket_tuples[a] != bucket_tuples[b]
               ? bucket_tuples[a] > bucket_tuples[b]
               : a < b;
  });
  for (const size_t b : order) {
    const size_t owner = static_cast<size_t>(spec.bucket_map[b]);
    if (load[owner] <= targets[owner]) continue;
    int dest = -1;
    for (int i = 0; i < n; ++i) {
      if (load[static_cast<size_t>(i)] < targets[static_cast<size_t>(i)] &&
          (dest < 0 ||
           load[static_cast<size_t>(i)] < load[static_cast<size_t>(dest)])) {
        dest = i;
      }
    }
    if (dest < 0) break;
    if (load[static_cast<size_t>(dest)] + bucket_tuples[b] >= load[owner]) {
      continue;  // the whole bucket would overshoot past the donor
    }
    spec.bucket_map[b] = dest;
    load[owner] -= bucket_tuples[b];
    load[static_cast<size_t>(dest)] += bucket_tuples[b];
  }

  // Only fragments that lost a bucket can hold movers.
  std::set<int> donors;
  for (size_t b = 0; b < buckets; ++b) {
    if (spec.bucket_map[b] != meta->partitioning.bucket_map[b]) {
      donors.insert(meta->partitioning.bucket_map[b]);
    }
  }
  for (const int f : donors) {
    GAMMA_RETURN_NOT_OK(
        ScanFragment(*meta, f, [&](Rid rid, std::span<const uint8_t> t) {
          const int32_t key = IntAttr(meta->schema, t, key_attr);
          const int dest =
              spec.bucket_map[HashInt32(key, salt) % buckets];
          if (dest != f) {
            plan->movers.push_back(
                Mover{f, rid, {t.begin(), t.end()}, dest});
          }
        }));
  }
  return Status::OK();
}

Status ElasticMigrator::PlanRange(RelationMeta* meta, Plan* plan) const {
  GammaMachine& m = *machine_;
  const int n = m.config_.num_disk_nodes;
  PartitionSpec& spec = plan->new_spec;
  if (spec.range_nodes.empty()) {
    // Materialize the implicit range -> node map so splits can splice into
    // it (AddNode normally did this already, at the pre-growth width).
    spec.range_nodes.reserve(spec.num_ranges());
    for (size_t i = 0; i < spec.num_ranges(); ++i) {
      spec.range_nodes.push_back(meta->partitioning.RangeNode(i, n));
    }
  }

  std::set<int> served(spec.range_nodes.begin(), spec.range_nodes.end());
  std::vector<int> vacant;
  for (int i = 0; i < n; ++i) {
    if (served.find(i) == served.end()) vacant.push_back(i);
  }
  if (vacant.empty()) return Status::OK();

  // One charged planning pass builds per-range sorted key lists; each
  // vacant node then takes the upper half of the currently most populous
  // range (split at the median, ties broken toward the lowest range).
  std::vector<std::vector<int32_t>> keys(spec.num_ranges());
  const int key_attr = spec.key_attr;
  for (int f = 0; f < n; ++f) {
    GAMMA_RETURN_NOT_OK(
        ScanFragment(*meta, f, [&](Rid, std::span<const uint8_t> t) {
          const int32_t key = IntAttr(meta->schema, t, key_attr);
          keys[RangeOf(spec.range_boundaries, key)].push_back(key);
        }));
  }
  for (std::vector<int32_t>& ks : keys) std::sort(ks.begin(), ks.end());

  std::set<int> donors;
  for (const int target : vacant) {
    size_t best = 0;
    for (size_t r = 1; r < keys.size(); ++r) {
      if (keys[r].size() > keys[best].size()) best = r;
    }
    std::vector<int32_t>& ks = keys[best];
    if (ks.size() < 2) break;
    // The cut must leave both halves non-empty: snap the median down to
    // the first occurrence of its value, and if that is the smallest key,
    // up past the duplicates instead. All-equal keys cannot be split.
    size_t mid = ks.size() / 2;
    mid = static_cast<size_t>(
        std::lower_bound(ks.begin(), ks.end(), ks[mid]) - ks.begin());
    if (mid == 0) {
      mid = static_cast<size_t>(
          std::upper_bound(ks.begin(), ks.end(), ks.front()) - ks.begin());
    }
    if (mid >= ks.size()) break;
    const int32_t cut = ks[mid];
    donors.insert(spec.range_nodes[best]);
    spec.range_boundaries.insert(
        spec.range_boundaries.begin() + static_cast<long>(best), cut);
    spec.range_nodes.insert(
        spec.range_nodes.begin() + static_cast<long>(best) + 1, target);
    std::vector<int32_t> upper(ks.begin() + static_cast<long>(mid),
                               ks.end());
    ks.resize(mid);
    keys.insert(keys.begin() + static_cast<long>(best) + 1,
                std::move(upper));
  }

  // Movers: on each donor, the tuples whose key now lands elsewhere.
  for (const int f : donors) {
    GAMMA_RETURN_NOT_OK(
        ScanFragment(*meta, f, [&](Rid rid, std::span<const uint8_t> t) {
          const int32_t key = IntAttr(meta->schema, t, key_attr);
          const int dest =
              spec.range_nodes[RangeOf(spec.range_boundaries, key)];
          if (dest != f) {
            plan->movers.push_back(
                Mover{f, rid, {t.begin(), t.end()}, dest});
          }
        }));
  }
  return Status::OK();
}

Status ElasticMigrator::PlanRoundRobin(RelationMeta* meta,
                                       Plan* plan) const {
  GammaMachine& m = *machine_;
  const int n = m.config_.num_disk_nodes;
  // Fragment cardinalities are catalog metadata the scheduler already
  // knows; only the surplus fragments are scanned (charged) below.
  std::vector<uint64_t> counts(static_cast<size_t>(n), 0);
  uint64_t total = 0;
  for (int f = 0; f < n; ++f) {
    const uint32_t fid = meta->per_node_file[static_cast<size_t>(f)];
    if (fid == catalog::kNoFile) continue;
    counts[static_cast<size_t>(f)] =
        m.nodes_[static_cast<size_t>(f)]->file(fid).num_tuples();
    total += counts[static_cast<size_t>(f)];
  }
  const std::vector<uint64_t> targets = FairShare(total, n);

  // Deficit nodes in index order; each surplus fragment donates its tail
  // tuples (round-robin placement is positional, so any assignment is
  // valid — this one is deterministic and minimal).
  std::vector<std::pair<int, uint64_t>> deficits;
  for (int f = 0; f < n; ++f) {
    const uint64_t have = counts[static_cast<size_t>(f)];
    const uint64_t want = targets[static_cast<size_t>(f)];
    if (have < want) deficits.emplace_back(f, want - have);
  }
  size_t next_deficit = 0;
  for (int f = 0; f < n; ++f) {
    const uint64_t have = counts[static_cast<size_t>(f)];
    const uint64_t want = targets[static_cast<size_t>(f)];
    if (have <= want) continue;
    std::vector<std::pair<Rid, std::vector<uint8_t>>> entries;
    entries.reserve(have);
    GAMMA_RETURN_NOT_OK(
        ScanFragment(*meta, f, [&](Rid rid, std::span<const uint8_t> t) {
          entries.emplace_back(rid,
                               std::vector<uint8_t>(t.begin(), t.end()));
        }));
    for (size_t k = static_cast<size_t>(want); k < entries.size(); ++k) {
      while (next_deficit < deficits.size() &&
             deficits[next_deficit].second == 0) {
        ++next_deficit;
      }
      GAMMA_CHECK(next_deficit < deficits.size());
      plan->movers.push_back(Mover{f, entries[k].first,
                                   std::move(entries[k].second),
                                   deficits[next_deficit].first});
      --deficits[next_deficit].second;
    }
  }
  return Status::OK();
}

Status ElasticMigrator::MigrateOne(const std::string& name,
                                   MigrationReport* report) {
  GammaMachine& m = *machine_;
  GAMMA_RETURN_NOT_OK(m.RefuseIfCrashed("migrating"));
  if (!m.config_.enable_logging) {
    return Status::FailedPrecondition(
        "elastic migration requires enable_logging: the move is WAL-logged "
        "so a crash can roll it back");
  }
  GAMMA_ASSIGN_OR_RETURN(RelationMeta * meta, m.catalog_.Get(name));
  const int n = m.config_.num_disk_nodes;
  for (int i = 0; i < n; ++i) {
    if (m.faults_->IsDead(i)) {
      return Status::Unavailable("cannot migrate " + name +
                                 " while disk node " + std::to_string(i) +
                                 " is down");
    }
  }

  GammaMachine::WriteStatement stmt(&m, meta, /*external_txn=*/0);
  sim::CostTracker& tracker = stmt.tracker();
  RecoveryLog& log = stmt.log();
  // Journal the migration on the scheduler ring. Begin is emitted before
  // any work so a mid-migration crash dump shows the open migration; the
  // clock only advances at FinalizeObs, so both events carry exact
  // statement-boundary timestamps.
  m.journal_.Emit(m.config_.scheduler_node(),
                  obs::JournalEventKind::kMigrationBegin, 0, 0, name);

  // Simulated power loss at a chosen protocol point. Dirty pages are forced
  // first — the worst case, where every physical effect landed on disk
  // before the lights went out, so recovery must physically reverse (or
  // complete) the statement from the durable log rather than benefiting
  // from discarded buffers. The statement is dismissed: volatile state is
  // gone, there is nothing to abort; Recover() finishes the job. A node
  // that dies under that force fails the migration like any other write
  // error: the statement aborts and no crash is simulated.
  auto crash_now = [&](const std::string& where) -> Status {
    GAMMA_RETURN_NOT_OK(m.FlushAllPools());
    m.BindAll(nullptr);
    m.Crash();
    stmt.Dismiss();
    return Status::Unavailable("migration of " + name + " crashed " + where);
  };

  GAMMA_RETURN_NOT_OK(stmt.Open("migrate", static_cast<size_t>(n)));

  // --- Plan: charged scans decide which tuples move where and what the
  // post-migration spec looks like. Queries keep routing with the old spec
  // until the atomic flip below.
  Plan plan;
  GAMMA_RETURN_NOT_OK(PlanMoves(meta, &plan));
  const std::vector<uint8_t> old_image = meta->partitioning.Serialize();
  const std::vector<uint8_t> new_image = plan.new_spec.Serialize();
  const bool spec_changed = old_image != new_image;

  std::map<int, std::vector<size_t>> by_src;
  std::map<int, std::vector<size_t>> by_dst;
  std::set<int> touched;
  for (size_t i = 0; i < plan.movers.size(); ++i) {
    by_src[plan.movers[i].src].push_back(i);
    by_dst[plan.movers[i].dst].push_back(i);
    touched.insert(plan.movers[i].src);
    touched.insert(plan.movers[i].dst);
  }
  // X on every fragment the move rewrites (on top of the relation IX); a
  // conflict with an open transaction fails fast like any statement.
  for (const int f : touched) {
    GAMMA_RETURN_NOT_OK(stmt.LockFragment(f, txn::LockMode::kX));
  }

  uint64_t moved = 0;
  if (spec_changed || !plan.movers.empty()) {
    // --- Source side: delete every mover from its old fragment,
    // before-images logged so a crash rolls the move back, chained-backup
    // copies retired with it.
    for (const auto& [src, idxs] : by_src) {
      storage::StorageManager& sm = *m.nodes_[static_cast<size_t>(src)];
      sm.charge().Cpu(m.config_.hw.cost.instr_per_lock);
      DeferredUpdateFile deferred(&sm.charge(), m.config_.page_size);
      for (const size_t i : idxs) {
        const Mover& mv = plan.movers[i];
        GAMMA_RETURN_NOT_OK(
            stmt.RemoveAtHome(src, mv.rid, mv.tuple, &deferred));
        GAMMA_ASSIGN_OR_RETURN(const GammaMachine::Mirror mirror,
                               stmt.MirrorChange(src, mv.tuple, {}));
        stmt.Log(WalKind::kDelete, src, mv.rid, mv.tuple, {}, mirror);
        ++moved;
        if (options_.crash_after_moves != 0 &&
            moved == options_.crash_after_moves) {
          log.ForceTail(src);  // the logged deletes are durable losers
          return crash_now("mid-move, after " + std::to_string(moved) +
                           " logged deletes");
        }
      }
      GAMMA_RETURN_NOT_OK(deferred.Commit());
      log.ForceTail(src);
      tracker.ChargeControlMessage(src, m.config_.scheduler_node(),
                                   /*blocking=*/true);
    }

    // --- Target side: ship the arrivals over and rebuild each receiving
    // fragment from its current content plus the arrivals (restoring
    // clustered order, bulk-loading fresh B-trees), then mirror the
    // arrivals into the fragment's chained backup.
    for (const auto& [dst, idxs] : by_dst) {
      storage::StorageManager& dsm = *m.nodes_[static_cast<size_t>(dst)];
      dsm.charge().Cpu(m.config_.hw.cost.instr_per_lock);
      std::vector<uint8_t> tuples;
      GAMMA_RETURN_NOT_OK(
          m.CopyFile(dst, meta->per_node_file[static_cast<size_t>(dst)],
                     &tuples));
      const size_t existing = tuples.size() / meta->schema.tuple_size();
      for (const size_t i : idxs) {
        const Mover& mv = plan.movers[i];
        tracker.ChargeDataPacket(mv.src, dst, mv.tuple.size());
        report->bytes_shipped += mv.tuple.size();
        tuples.insert(tuples.end(), mv.tuple.begin(), mv.tuple.end());
      }
      std::vector<Rid> rids;
      GAMMA_ASSIGN_OR_RETURN(
          const GammaMachine::FragmentBuild build,
          m.BuildFragment(dst, meta->schema, meta->indices, tuples, &rids));
      m.SwapInFragment(dst, meta, build);

      for (size_t k = 0; k < idxs.size(); ++k) {
        const Mover& mv = plan.movers[idxs[k]];
        GammaMachine::Mirror mirror;
        if (meta->backed_up) {
          GAMMA_ASSIGN_OR_RETURN(
              mirror.backup_rid,
              stmt.MirrorInsert(dst, mv.tuple, /*charge_lock=*/true));
          report->bytes_shipped += mv.tuple.size();
          mirror.mirrored = true;
        }
        stmt.Log(WalKind::kInsert, dst, rids[existing + k], {}, mv.tuple,
                 mirror);
      }
      log.ForceTail(dst);
      tracker.ChargeControlMessage(dst, m.config_.scheduler_node(),
                                   /*blocking=*/true);
    }

    // --- Commit protocol: the placement flip is itself a logged record,
    // forced with everything else before any commit point; the in-memory
    // spec flips only after the commit record is durable.
    const int commit_site = touched.empty() ? 0 : *touched.begin();
    if (spec_changed) {
      stmt.Log(WalKind::kPartition, commit_site, {}, old_image, new_image,
               {});
      log.ForceTail(commit_site);
    }
    if (options_.crash_before_flip) {
      return crash_now("with every record forced, before commit");
    }
    GAMMA_RETURN_NOT_OK(m.FlushAllPools());
    GAMMA_RETURN_NOT_OK(stmt.ReachCommitPoint(
        std::vector<int>(touched.begin(), touched.end()),
        "migration of " + name));
    log.LogCommit(commit_site, stmt.wal_txn());
    if (options_.crash_after_commit) {
      // Durable winner, flip not yet applied: restart redo completes it
      // from the kPartition record.
      return crash_now("after commit, before the catalog flip");
    }
    if (spec_changed) meta->partitioning = std::move(plan.new_spec);
    m.MaybeAutoCheckpoint(&log, commit_site);
  }

  tracker.ChargeControlMessage(m.config_.scheduler_node(),
                               m.config_.host_node(), /*blocking=*/true);
  tracker.EndPhase();

  QueryResult result;
  result.result_tuples = moved;
  result = stmt.Finish(std::move(result));
  if (moved > 0) {
    // Fragment counts changed under the relation; refresh the planner's
    // statistics from the new placement (uncharged, like the test hooks).
    GAMMA_RETURN_NOT_OK(m.RecomputeStatistics(name));
  }

  report->tuples_moved += moved;
  if (moved > 0 || spec_changed) ++report->relations_migrated;
  auto finalized = m.FinalizeObs("migrate", std::move(result));
  GAMMA_RETURN_NOT_OK(finalized.status());
  report->migration_sec += finalized->metrics.TotalSec();
  m.journal_.Emit(m.config_.scheduler_node(),
                  obs::JournalEventKind::kMigrationEnd,
                  static_cast<int64_t>(moved), 0, name);
  return Status::OK();
}

}  // namespace gammadb::elastic
