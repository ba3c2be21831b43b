#ifndef GAMMA_ELASTIC_MIGRATOR_H_
#define GAMMA_ELASTIC_MIGRATOR_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>

#include "catalog/catalog.h"
#include "common/result.h"
#include "storage/heap_file.h"

namespace gammadb::gamma {
class GammaMachine;
}  // namespace gammadb::gamma

namespace gammadb::elastic {

/// Crash hooks for recovery tests: each simulates a whole-machine power loss
/// (GammaMachine::Crash) at a chosen point inside a migration statement, so
/// a test can verify that Recover() either rolls the move back or completes
/// the catalog flip. Dirty pages are forced before the crash — the worst
/// case, where every physical effect reached disk, so recovery has real
/// undo/redo work to do. All hooks are off by default.
struct MigrationOptions {
  /// Crash after this many source-side deletes have been WAL-logged
  /// (0 = never): the statement is a loser, recovery must undo the moves.
  uint64_t crash_after_moves = 0;
  /// Crash after every move and the kPartition record are logged and forced
  /// but before the commit record: still a loser, recovery undoes
  /// everything including the (not yet applied) placement flip.
  bool crash_before_flip = false;
  /// Crash after the commit record is durable but before the in-memory
  /// catalog flip: a winner, recovery's redo pass completes the flip.
  bool crash_after_commit = false;
};

/// Totals of one MigrateRelation / MigrateAll call.
struct MigrationReport {
  /// Disk-node width the migration balanced onto.
  int node_count = 0;
  /// Relations whose placement actually changed (moves or a spec flip).
  uint64_t relations_migrated = 0;
  /// Tuples relocated to a new home fragment.
  uint64_t tuples_moved = 0;
  /// Bytes shipped over the simulated network (primary moves + backup
  /// re-mirroring).
  uint64_t bytes_shipped = 0;
  /// Simulated seconds the migration statements took.
  double migration_sec = 0;
};

/// \brief Incremental fragment migration after elastic growth.
///
/// After GammaMachine::AddNode() registers a fresh disk node, every
/// declustered relation still routes all its tuples to the old sites. The
/// migrator rebalances each relation onto the full width with one charged,
/// WAL-logged statement per relation:
///
///  - hashed relations: virtual buckets (PartitionSpec::bucket_map, the
///    catalog-side mirror of exec::RouteSpec::kBucketMap) are counted by a
///    charged planning scan and re-dealt — most populous first — toward a
///    largest-remainder tuple fair share; only the tuples of reassigned
///    buckets move;
///  - range relations: the most populous range is split at its median key
///    and the upper half handed to each node serving no range
///    (range_boundaries / range_nodes grow by one per split);
///  - round-robin relations: tail tuples of overfull fragments move to
///    underfull ones until counts match the fair share.
///
/// Each statement takes IX on the relation and X on every touched fragment,
/// deletes movers from their source fragments (before-images logged),
/// ships them over the simulated network, rebuilds each receiving fragment
/// with bulk-loaded indexes, re-mirrors chained-backup copies to the new
/// ring order, logs a kPartition record with both placement images, and
/// only after the commit record is durable flips the in-memory spec — so
/// queries interleaved with a migration always see one consistent
/// placement, and a crash at any point recovers to exactly the old or the
/// new one.
class ElasticMigrator {
 public:
  /// The machine must outlive the migrator. Migration statements are
  /// WAL-logged, so the machine must run with enable_logging.
  explicit ElasticMigrator(gamma::GammaMachine* machine,
                           MigrationOptions options = {});

  /// Rebalances one relation. Returns the move totals; a relation already
  /// in balance yields a zero-move report.
  Result<MigrationReport> MigrateRelation(const std::string& name);

  /// Rebalances every relation in the catalog, one statement each.
  Result<MigrationReport> MigrateAll();

 private:
  struct Mover;
  struct Plan;

  /// One charged, WAL-logged migration statement; accumulates into
  /// `report`.
  Status MigrateOne(const std::string& name, MigrationReport* report);

  Status PlanMoves(catalog::RelationMeta* meta, Plan* plan) const;
  Status PlanHashed(catalog::RelationMeta* meta, Plan* plan) const;
  Status PlanRange(catalog::RelationMeta* meta, Plan* plan) const;
  Status PlanRoundRobin(catalog::RelationMeta* meta, Plan* plan) const;

  /// GammaMachine::ScanFile of fragment `fragment`'s primary file.
  Status ScanFragment(
      const catalog::RelationMeta& meta, int fragment,
      const std::function<void(storage::Rid, std::span<const uint8_t>)>& fn)
      const;

  gamma::GammaMachine* machine_;
  MigrationOptions options_;
};

}  // namespace gammadb::elastic

#endif  // GAMMA_ELASTIC_MIGRATOR_H_
