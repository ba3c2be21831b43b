// Elastic machine growth: online registration of a fresh disk node with a
// running GammaMachine.
//
// AddNode() widens every machine-lifetime structure — the node vector, the
// fault injector's disk and packet streams and the transaction manager's
// lock tables (per-statement structures are sized from config_ at each
// statement, so they pick the new width up on their own) — and gives every
// relation an empty fragment on the new node. Tuple placement is
// deliberately untouched: hashed relations are first converted to
// virtual-bucket (bucket_map) routing that reproduces their old placement
// exactly, so queries keep their answers until an ElasticMigrator
// (src/elastic/migrator.h) rebalances fragments.
//
// The one physical move AddNode performs itself is the backup-ring
// rewiring for chained declustering. With backups at (f+1) % n, growing
// n -> n+1 relocates exactly one copy per relation: fragment n-1's backup
// leaves node 0 for the new node n (every other fragment keeps its host,
// since (f+1) % n == (f+1) % (n+1) for f < n-1), and the new fragment n
// gets an empty backup file on node 0. This must happen synchronously —
// the mirror write path computes hosts from the current width.

#include <algorithm>
#include <cstdint>

#include "common/macros.h"
#include "gamma/machine.h"
#include "obs/metrics_registry.h"

namespace gammadb::gamma {

using catalog::IndexMeta;
using catalog::PartitionStrategy;
using catalog::RelationMeta;

namespace {

/// Virtual buckets per disk node when converting a plain-hashed relation.
/// The map is sized from the *pre-growth* width so old_n divides the bucket
/// count and bucket b -> b % old_n reproduces hash % old_n placement
/// exactly; 16 buckets per node keeps later rebalances within ~1/16 of
/// perfect balance per step.
constexpr int kBucketsPerNode = 16;

}  // namespace

Result<GammaMachine::GrowthReport> GammaMachine::AddNode() {
  GAMMA_RETURN_NOT_OK(
      RefuseIfCrashed("adding a node", &Status::FailedPrecondition));
  // The ring rewiring reads node 0 and writes the new node, and every
  // relation gains a fragment everywhere; a dead node would leave the
  // catalog half-grown.
  for (int i = 0; i < config_.num_disk_nodes; ++i) {
    if (faults_->IsDead(i)) {
      return Status::Unavailable("cannot add a node while disk node " +
                                 std::to_string(i) + " is down");
    }
  }
  // TxnManager::Grow moves the relation-lock table; open transactions would
  // strand their locks under the old numbering.
  if (!txns_.quiescent()) {
    return Status::FailedPrecondition(
        "cannot add a node with transactions in flight");
  }

  const int old_n = config_.num_disk_nodes;
  const int new_node = old_n;
  GrowthReport report;
  report.node = new_node;

  // Convert plain-hashed relations to virtual-bucket placement before the
  // width changes: bucket_map[b] = b % old_n over kBucketsPerNode * old_n
  // buckets routes every key to the site hash % old_n chose, so this is a
  // pure metadata change — and the migrator later rebalances by rewriting
  // map entries instead of rehashing tuples (the catalog-side analogue of
  // exec::RouteSpec::kBucketMap).
  for (const std::string& name : catalog_.Names()) {
    auto meta_or = catalog_.Get(name);
    if (!meta_or.ok()) continue;
    RelationMeta* meta = *meta_or;
    catalog::PartitionSpec& spec = meta->partitioning;
    if (spec.strategy == PartitionStrategy::kHashed &&
        spec.bucket_map.empty()) {
      const int buckets = kBucketsPerNode * old_n;
      spec.bucket_map.resize(static_cast<size_t>(buckets));
      for (int b = 0; b < buckets; ++b) {
        spec.bucket_map[static_cast<size_t>(b)] = b % old_n;
      }
      ++report.relations_converted;
    } else if (spec.strategy == PartitionStrategy::kRange &&
               spec.range_nodes.empty()) {
      // Pin range placement too: the implicit min(range, nodes-1) fallback
      // would shift overflow ranges when the width changes.
      std::vector<int32_t> pinned;
      pinned.reserve(spec.num_ranges());
      for (size_t i = 0; i < spec.num_ranges(); ++i) {
        pinned.push_back(spec.RangeNode(i, old_n));
      }
      spec.range_nodes = std::move(pinned);
      ++report.relations_converted;
    }
  }

  // Register the node with the sim layer: disk + packet fault streams
  // seeded exactly as a fresh machine of the new width would seed them,
  // then the storage manager (its SimulatedDisk / charge servers bind to
  // whatever tracker each statement brings).
  faults_->AddDiskNode();
  nodes_.insert(nodes_.begin() + new_node,
                std::make_unique<storage::StorageManager>(
                    config_.page_size, config_.buffer_pool_bytes,
                    faults_.get(), new_node));
  config_.num_disk_nodes = old_n + 1;
  // Upper node ids (scheduler, host, recovery server) all shifted by one.
  txns_.Grow(config_.tracker_nodes(), config_.scheduler_node());
  // The flight recorder gains the new node's ring at its disk index, so
  // the control rings keep tracking their (shifted) tracker nodes; the
  // layers that cache a control-ring index are re-attached at the new ids.
  journal_.Grow(new_node);
  txns_.AttachJournal(&journal_, config_.scheduler_node());
  if (config_.enable_logging) {
    wal_.AttachJournal(&journal_, config_.recovery_node());
  }
  journal_.Emit(config_.scheduler_node(), obs::JournalEventKind::kNodeAdded,
                new_node);

  // Charged registration pass: every relation gains an empty fragment and
  // empty index slots on the new node, and backed-up relations get their
  // ring rewired. Sequential on the coordinator — deterministic at any
  // host-thread count.
  MaintenanceScope scope(this, "grow");
  storage::StorageManager& fresh = *nodes_[static_cast<size_t>(new_node)];

  for (const std::string& name : catalog_.Names()) {
    auto meta_or = catalog_.Get(name);
    if (!meta_or.ok()) continue;
    RelationMeta* meta = *meta_or;
    meta->per_node_file.push_back(fresh.CreateFile());
    for (IndexMeta& idx : meta->indices) {
      idx.per_node_index.push_back(fresh.CreateIndex());
    }
    if (!meta->backed_up) continue;

    // Relocate fragment old_n-1's backup: node 0 -> new node (the ring
    // host (old_n-1 + 1) % (old_n+1)). Charged scan + ship + store.
    const uint32_t old_bfid =
        meta->per_node_backup_file[static_cast<size_t>(old_n - 1)];
    if (old_bfid != catalog::kNoFile) {
      std::vector<uint8_t> tuples;
      GAMMA_RETURN_NOT_OK(CopyFile(0, old_bfid, &tuples));
      const size_t tuple_size = meta->schema.tuple_size();
      const storage::FileId new_bfid = fresh.CreateFile();
      for (size_t at = 0; at < tuples.size(); at += tuple_size) {
        scope.tracker().ChargeDataPacket(0, new_node, tuple_size);
        fresh.charge().Cpu(config_.hw.cost.instr_per_tuple_store);
        GAMMA_RETURN_NOT_OK(
            fresh.file(new_bfid)
                .Append(std::span(tuples).subspan(at, tuple_size))
                .status());
        report.bytes_shipped += tuple_size;
        ++report.backup_tuples_relocated;
      }
      nodes_[0]->DropFile(old_bfid);
      meta->per_node_backup_file[static_cast<size_t>(old_n - 1)] = new_bfid;
    }
    // The new (empty) fragment old_n chains its backup onto node 0.
    meta->per_node_backup_file.push_back(nodes_[0]->CreateFile());
  }

  GAMMA_ASSIGN_OR_RETURN(report.grow_sec, scope.Finish());
  journal_.Advance(report.grow_sec);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Instance();
  registry.counter("elastic.nodes_added").Inc();
  registry.counter("elastic.backup_tuples_relocated")
      .Inc(report.backup_tuples_relocated);
  registry.histogram("elastic.grow_seconds",
                     {0.01, 0.1, 1.0, 10.0, 100.0, 1000.0})
      .Observe(report.grow_sec);
  return report;
}

}  // namespace gammadb::gamma
