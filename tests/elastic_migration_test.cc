// Elastic-growth property tests: AddNode must never change answers,
// migration must rebalance every declustering strategy while preserving
// content, a crash at any point inside a migration statement must recover
// to exactly the old or the new placement, and the whole scenario must be
// byte-identical at any host-thread width.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/partition.h"
#include "elastic/migrator.h"
#include "exec/predicate.h"
#include "gamma/machine.h"
#include "gamma/wal.h"
#include "sim/host_pool.h"
#include "test_util.h"

namespace gammadb {
namespace {

using exec::Predicate;
using gammadb::testing::MiniRelation;
using gammadb::testing::MiniSchema;

/// Runs `body` with the host pool set to `threads`, restoring the previous
/// width afterwards.
template <typename Fn>
auto WithThreads(int threads, Fn&& body) {
  auto& pool = sim::HostPool::Instance();
  const int prev = pool.num_threads();
  pool.set_num_threads(threads);
  auto result = body();
  pool.set_num_threads(prev);
  return result;
}

gamma::GammaConfig ElasticConfig(int disk_nodes, bool backups) {
  gamma::GammaConfig config;
  config.num_disk_nodes = disk_nodes;
  config.num_diskless_nodes = 0;
  config.enable_logging = true;  // migrations are WAL-logged statements
  config.chained_declustering = backups;
  return config;
}

std::vector<std::vector<uint8_t>> SortedContent(gamma::GammaMachine& machine,
                                                const std::string& name) {
  auto tuples = machine.ReadRelation(name);
  GAMMA_CHECK(tuples.ok());
  std::sort(tuples->begin(), tuples->end());
  return std::move(*tuples);
}

std::vector<uint64_t> PerNodeCounts(gamma::GammaMachine& machine,
                                    const std::string& name) {
  auto meta = machine.catalog().Get(name);
  GAMMA_CHECK(meta.ok());
  std::vector<uint64_t> counts;
  for (size_t i = 0; i < (*meta)->per_node_file.size(); ++i) {
    const uint32_t fid = (*meta)->per_node_file[i];
    counts.push_back(fid == catalog::kNoFile
                         ? 0
                         : machine.node(static_cast<int>(i))
                               .file(fid)
                               .num_tuples());
  }
  return counts;
}

/// Host-bound exact-match select on `attr == key`; returns the matching
/// tuples sorted.
std::vector<std::vector<uint8_t>> ExactMatch(gamma::GammaMachine& machine,
                                             const std::string& name,
                                             int attr, int32_t key) {
  gamma::SelectQuery query;
  query.relation = name;
  query.predicate = Predicate::Eq(attr, key);
  query.store_result = false;
  auto result = machine.RunSelect(query);
  GAMMA_CHECK(result.ok());
  std::sort(result->returned.begin(), result->returned.end());
  return result->returned;
}

/// LSN the next WAL record gets.
uint64_t NextLsn(gamma::GammaMachine& machine) {
  const auto& log = machine.wal()->records();
  return log.empty() ? 0 : log.back().lsn + 1;
}

/// Checks that every kInsert logged at or after `first_lsn` fetches exactly
/// its after-image at its rid on the primary of `name`'s fragment; returns
/// how many there were.
uint64_t ArrivalsFetchTheirImages(gamma::GammaMachine& machine,
                                  const std::string& name,
                                  uint64_t first_lsn) {
  auto meta = machine.catalog().Get(name);
  GAMMA_CHECK(meta.ok());
  uint64_t arrivals = 0;
  for (const gamma::WalRecord& r : machine.wal()->records()) {
    if (r.lsn < first_lsn || r.kind != gamma::WalKind::kInsert) continue;
    ++arrivals;
    const uint32_t fid =
        (*meta)->per_node_file[static_cast<size_t>(r.fragment)];
    const auto fetched = machine.node(r.fragment).file(fid).Fetch(r.rid);
    EXPECT_TRUE(fetched.ok()) << fetched.status().ToString();
    if (fetched.ok()) {
      EXPECT_EQ(*fetched, r.after) << "lsn " << r.lsn;
    }
  }
  return arrivals;
}

struct SpecCase {
  const char* label;
  catalog::PartitionSpec spec;
};

std::vector<SpecCase> AllSpecs() {
  return {
      {"hashed", catalog::PartitionSpec::Hashed(0)},
      {"range", catalog::PartitionSpec::RangeUser(0, {300})},
      {"round_robin", catalog::PartitionSpec::RoundRobin()},
  };
}

TEST(ElasticGrowth, AddNodePreservesPlacementAndAnswers) {
  for (const auto& [label, spec] : AllSpecs()) {
    SCOPED_TRACE(label);
    gamma::GammaMachine machine(ElasticConfig(2, /*backups=*/true));
    ASSERT_TRUE(machine.CreateRelation("M", MiniSchema(), spec).ok());
    const auto tuples = MiniRelation(500, 11);
    ASSERT_TRUE(machine.LoadTuples("M", tuples).ok());
    const auto before = SortedContent(machine, "M");

    auto grown = machine.AddNode();
    ASSERT_TRUE(grown.ok()) << grown.status().message();
    EXPECT_EQ(grown->node, 2);
    EXPECT_EQ(machine.config().num_disk_nodes, 3);

    // Placement untouched: same content, and the new node holds nothing.
    EXPECT_EQ(SortedContent(machine, "M"), before);
    EXPECT_EQ(PerNodeCounts(machine, "M").back(), 0u);

    auto meta = machine.catalog().Get("M");
    ASSERT_TRUE(meta.ok());
    if (spec.strategy == catalog::PartitionStrategy::kHashed) {
      // Converted to virtual buckets, placement-preservingly.
      EXPECT_EQ((*meta)->partitioning.bucket_map.size(), 32u);  // 16 * old n
      EXPECT_EQ(grown->relations_converted, 1u);
    }
    if (spec.strategy == catalog::PartitionStrategy::kRange) {
      // Range placement pinned against the width change.
      EXPECT_EQ((*meta)->partitioning.range_nodes.size(), 2u);
    }

    // Exact-match localization still finds every key (round-robin cannot
    // localize, so the machine scans — still correct).
    for (const int32_t key : {0, 123, 299, 300, 499}) {
      const auto hits = ExactMatch(machine, "M", 0, key);
      ASSERT_EQ(hits.size(), 1u) << "key " << key;
      EXPECT_EQ(catalog::TupleView(&MiniSchema(), hits[0]).GetInt(0), key);
    }
  }
}

TEST(ElasticMigration, RebalancesEveryStrategy) {
  for (const auto& [label, spec] : AllSpecs()) {
    SCOPED_TRACE(label);
    gamma::GammaMachine machine(ElasticConfig(2, /*backups=*/true));
    ASSERT_TRUE(machine.CreateRelation("M", MiniSchema(), spec).ok());
    const auto tuples = MiniRelation(600, 13);
    ASSERT_TRUE(machine.LoadTuples("M", tuples).ok());
    ASSERT_TRUE(machine.BuildIndex("M", 0, /*clustered=*/true).ok());
    ASSERT_TRUE(machine.BuildIndex("M", 1, /*clustered=*/false).ok());
    const auto before = SortedContent(machine, "M");

    ASSERT_TRUE(machine.AddNode().ok());
    ASSERT_TRUE(machine.AddNode().ok());

    const uint64_t first_lsn = NextLsn(machine);
    elastic::ElasticMigrator migrator(&machine);
    auto report = migrator.MigrateAll();
    ASSERT_TRUE(report.ok()) << report.status().message();
    EXPECT_EQ(ArrivalsFetchTheirImages(machine, "M", first_lsn),
              report->tuples_moved);
    EXPECT_EQ(report->node_count, 4);
    EXPECT_EQ(report->relations_migrated, 1u);
    EXPECT_GT(report->tuples_moved, 0u);
    EXPECT_GT(report->bytes_shipped, 0u);
    EXPECT_GT(report->migration_sec, 0.0);

    // Content is untouched; every node now serves tuples.
    EXPECT_EQ(SortedContent(machine, "M"), before);
    const auto counts = PerNodeCounts(machine, "M");
    ASSERT_EQ(counts.size(), 4u);
    for (const uint64_t count : counts) EXPECT_GT(count, 0u);
    if (spec.strategy == catalog::PartitionStrategy::kRoundRobin) {
      // Round-robin rebalances to the exact largest-remainder fair share.
      for (const uint64_t count : counts) EXPECT_EQ(count, 150u);
    }

    // Rebuilt clustered index still answers range queries correctly.
    gamma::SelectQuery query;
    query.relation = "M";
    query.predicate = Predicate::Range(0, 100, 300);
    query.access = gamma::AccessPath::kClusteredIndex;
    query.store_result = false;
    auto result = machine.RunSelect(query);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(
        gammadb::testing::ValuesOf(result->returned, MiniSchema(), 0),
        gammadb::testing::ReferenceSelect(tuples, MiniSchema(), 0, 100, 300,
                                          0));

    // Exact-match localization works under the new placement.
    for (const int32_t key : {0, 150, 310, 599}) {
      const auto hits = ExactMatch(machine, "M", 0, key);
      ASSERT_EQ(hits.size(), 1u) << "key " << key;
    }

    // A second migration at the same width is a no-op.
    elastic::ElasticMigrator again(&machine);
    auto noop = again.MigrateRelation("M");
    ASSERT_TRUE(noop.ok());
    EXPECT_EQ(noop->tuples_moved, 0u);
    EXPECT_EQ(noop->relations_migrated, 0u);
  }
}

// Every tuple has a byte-identical twin, so arrivals at one fragment can
// equal each other or a tuple already there. Each logged insert still names
// a slot holding its image, and a crash after the committed migration
// recovers the committed multiset.
TEST(ElasticMigration, ByteIdenticalTuplesSurviveCrashAndRecover) {
  for (const auto& [label, spec] : AllSpecs()) {
    SCOPED_TRACE(label);
    gamma::GammaMachine machine(ElasticConfig(2, /*backups=*/true));
    ASSERT_TRUE(machine.CreateRelation("D", MiniSchema(), spec).ok());
    std::vector<std::vector<uint8_t>> tuples = MiniRelation(300, 23);
    const std::vector<std::vector<uint8_t>> twins(tuples);
    tuples.insert(tuples.end(), twins.begin(), twins.end());
    ASSERT_TRUE(machine.LoadTuples("D", tuples).ok());
    ASSERT_TRUE(machine.BuildIndex("D", 0, /*clustered=*/true).ok());
    ASSERT_TRUE(machine.BuildIndex("D", 1, /*clustered=*/false).ok());
    std::sort(tuples.begin(), tuples.end());
    ASSERT_TRUE(machine.AddNode().ok());

    const uint64_t first_lsn = NextLsn(machine);
    elastic::ElasticMigrator migrator(&machine);
    auto report = migrator.MigrateRelation("D");
    ASSERT_TRUE(report.ok()) << report.status().message();
    ASSERT_GT(report->tuples_moved, 0u);
    EXPECT_EQ(ArrivalsFetchTheirImages(machine, "D", first_lsn),
              report->tuples_moved);
    EXPECT_EQ(SortedContent(machine, "D"), tuples);

    machine.Crash();
    auto recovered = machine.Recover();
    ASSERT_TRUE(recovered.ok()) << recovered.status().message();
    EXPECT_EQ(SortedContent(machine, "D"), tuples);
    EXPECT_GT(PerNodeCounts(machine, "D").back(), 0u);
    for (const int32_t key : {0, 150, 299}) {
      EXPECT_EQ(ExactMatch(machine, "D", 0, key).size(), 2u) << "key " << key;
    }
  }
}

TEST(ElasticMigration, GrownMachineMatchesStaticMachine) {
  const auto tuples = MiniRelation(600, 17);
  const auto answers = [&](gamma::GammaMachine& machine) {
    std::vector<std::vector<std::vector<uint8_t>>> out;
    out.push_back(SortedContent(machine, "M"));
    for (const int32_t key : {5, 250, 555}) {
      out.push_back(ExactMatch(machine, "M", 0, key));
    }
    gamma::SelectQuery query;
    query.relation = "M";
    query.predicate = Predicate::Range(1, 200, 900);
    query.store_result = false;
    auto result = machine.RunSelect(query);
    GAMMA_CHECK(result.ok());
    std::sort(result->returned.begin(), result->returned.end());
    out.push_back(result->returned);
    return out;
  };

  gamma::GammaMachine grown(ElasticConfig(2, /*backups=*/true));
  ASSERT_TRUE(grown
                  .CreateRelation("M", MiniSchema(),
                                  catalog::PartitionSpec::Hashed(0))
                  .ok());
  ASSERT_TRUE(grown.LoadTuples("M", tuples).ok());
  ASSERT_TRUE(grown.AddNode().ok());
  ASSERT_TRUE(grown.AddNode().ok());
  elastic::ElasticMigrator migrator(&grown);
  ASSERT_TRUE(migrator.MigrateAll().ok());

  gamma::GammaMachine fixed(ElasticConfig(4, /*backups=*/true));
  ASSERT_TRUE(fixed
                  .CreateRelation("M", MiniSchema(),
                                  catalog::PartitionSpec::Hashed(0))
                  .ok());
  ASSERT_TRUE(fixed.LoadTuples("M", tuples).ok());

  // Placements differ (bucket map vs plain hash) but every answer set is
  // byte-identical.
  EXPECT_EQ(answers(grown), answers(fixed));
}

/// Shared scaffold for the crash tests: a loaded hashed relation, one added
/// node, and a migration that crashes per `options`. Returns the recovered
/// machine.
std::unique_ptr<gamma::GammaMachine> CrashedMigration(
    const elastic::MigrationOptions& options, uint64_t* tuples_moved) {
  auto machine =
      std::make_unique<gamma::GammaMachine>(ElasticConfig(2, true));
  GAMMA_CHECK(machine
                  ->CreateRelation("M", MiniSchema(),
                                   catalog::PartitionSpec::Hashed(0))
                  .ok());
  GAMMA_CHECK(machine->LoadTuples("M", MiniRelation(500, 19)).ok());
  GAMMA_CHECK(machine->AddNode().ok());

  elastic::ElasticMigrator migrator(machine.get(), options);
  auto report = migrator.MigrateRelation("M");
  GAMMA_CHECK(!report.ok());  // the statement died with the machine
  GAMMA_CHECK(machine->crashed());

  auto recovered = machine->Recover();
  GAMMA_CHECK(recovered.ok());
  GAMMA_CHECK(recovered->losers + recovered->winners == 1);
  if (tuples_moved != nullptr) {
    *tuples_moved = recovered->records_undone + recovered->records_redone;
  }
  return machine;
}

TEST(ElasticMigration, CrashAfterMovesRollsBack) {
  const auto tuples = MiniRelation(500, 19);
  std::vector<std::vector<uint8_t>> expected(tuples);
  std::sort(expected.begin(), expected.end());

  elastic::MigrationOptions options;
  options.crash_after_moves = 5;
  uint64_t reversed = 0;
  auto machine = CrashedMigration(options, &reversed);
  EXPECT_EQ(reversed, 5u);  // the five forced deletes, physically undone

  // The loser rolled back: content intact, nothing on the new node.
  EXPECT_EQ(SortedContent(*machine, "M"), expected);
  EXPECT_EQ(PerNodeCounts(*machine, "M").back(), 0u);
  for (const int32_t key : {0, 250, 499}) {
    EXPECT_EQ(ExactMatch(*machine, "M", 0, key).size(), 1u);
  }

  // The machine stays usable: a clean migration now succeeds.
  elastic::ElasticMigrator migrator(machine.get());
  auto report = migrator.MigrateRelation("M");
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_GT(report->tuples_moved, 0u);
  EXPECT_EQ(SortedContent(*machine, "M"), expected);
  EXPECT_GT(PerNodeCounts(*machine, "M").back(), 0u);
}

// crash_now forces every dirty page before it simulates the power loss. A
// source node that dies under that force must fail the migration with a
// status, not abort the process: the statement aborts like any other
// failed write, and no crash is simulated. Node 0's k-th disk operation
// from now fails, for k = 1, 2, ... up to the first k that survives to the
// crash. The run before that one dies on node 0's last operation before
// the crash, a write-back of the forcing flush (its deletes left node 0's
// pool dirty).
TEST(ElasticMigration, NodeDeathInTheCrashFlushIsAStatus) {
  const auto tuples = MiniRelation(500, 19);
  std::vector<std::vector<uint8_t>> expected(tuples);
  std::sort(expected.begin(), expected.end());
  elastic::MigrationOptions options;
  options.crash_after_moves = 5;
  uint64_t ops = 1;
  for (;; ++ops) {
    SCOPED_TRACE(ops);
    ASSERT_LT(ops, 1000u);
    gamma::GammaMachine machine(ElasticConfig(2, true));
    ASSERT_TRUE(machine
                    .CreateRelation("M", MiniSchema(),
                                    catalog::PartitionSpec::Hashed(0))
                    .ok());
    ASSERT_TRUE(machine.LoadTuples("M", tuples).ok());
    ASSERT_TRUE(machine.AddNode().ok());
    machine.KillNodeAfterOps(0, ops);
    elastic::ElasticMigrator migrator(&machine, options);
    const auto report = migrator.MigrateRelation("M");
    ASSERT_FALSE(report.ok());
    EXPECT_TRUE(report.status().IsUnavailable()) << report.status().message();
    if (machine.crashed()) break;
    // Aborted, not crashed: fragment 0 is served from its backup, and the
    // undo took every logged delete back out of the surviving copies.
    ASSERT_TRUE(machine.faults().IsDead(0));
    EXPECT_EQ(SortedContent(machine, "M"), expected);
  }
  EXPECT_GT(ops, 1u);
}

TEST(ElasticMigration, CrashBeforeFlipRollsBack) {
  const auto tuples = MiniRelation(500, 19);
  std::vector<std::vector<uint8_t>> expected(tuples);
  std::sort(expected.begin(), expected.end());

  elastic::MigrationOptions options;
  options.crash_before_flip = true;
  uint64_t reversed = 0;
  auto machine = CrashedMigration(options, &reversed);
  EXPECT_GT(reversed, 0u);  // every move (delete + insert) physically undone

  // Every move and the placement flip were undone.
  EXPECT_EQ(SortedContent(*machine, "M"), expected);
  EXPECT_EQ(PerNodeCounts(*machine, "M").back(), 0u);
  auto meta = machine->catalog().Get("M");
  ASSERT_TRUE(meta.ok());
  for (const int32_t owner : (*meta)->partitioning.bucket_map) {
    EXPECT_LT(owner, 2);  // old placement: no bucket routed to node 2
  }
  for (const int32_t key : {0, 250, 499}) {
    EXPECT_EQ(ExactMatch(*machine, "M", 0, key).size(), 1u);
  }
}

TEST(ElasticMigration, CrashAfterCommitCompletesFlip) {
  const auto tuples = MiniRelation(500, 19);
  std::vector<std::vector<uint8_t>> expected(tuples);
  std::sort(expected.begin(), expected.end());

  elastic::MigrationOptions options;
  options.crash_after_commit = true;
  uint64_t reversed = 0;
  auto machine = CrashedMigration(options, &reversed);
  EXPECT_EQ(reversed, 1u);  // redo applied the logged placement flip

  // The winner completed: content intact, moves kept, flip applied.
  EXPECT_EQ(SortedContent(*machine, "M"), expected);
  EXPECT_GT(PerNodeCounts(*machine, "M").back(), 0u);
  auto meta = machine->catalog().Get("M");
  ASSERT_TRUE(meta.ok());
  bool any_on_new = false;
  for (const int32_t owner : (*meta)->partitioning.bucket_map) {
    any_on_new |= owner == 2;
  }
  EXPECT_TRUE(any_on_new);
  // Exact-match localization under the flipped spec proves catalog routing
  // and physical placement agree.
  for (const int32_t key : {0, 250, 499}) {
    EXPECT_EQ(ExactMatch(*machine, "M", 0, key).size(), 1u);
  }
}

TEST(ElasticMigration, DeterministicAcrossHostThreads) {
  struct Outcome {
    std::vector<std::vector<uint8_t>> content;
    std::vector<double> seconds;
    double migration_sec;
    bool operator==(const Outcome&) const = default;
  };
  const auto scenario = [] {
    Outcome out;
    gamma::GammaMachine machine(ElasticConfig(2, /*backups=*/true));
    GAMMA_CHECK(machine
                    .CreateRelation("M", MiniSchema(),
                                    catalog::PartitionSpec::Hashed(0))
                    .ok());
    GAMMA_CHECK(machine.LoadTuples("M", MiniRelation(600, 23)).ok());

    gamma::SelectQuery query;
    query.relation = "M";
    query.predicate = Predicate::Range(1, 100, 700);
    query.store_result = false;
    auto before = machine.RunSelect(query);
    GAMMA_CHECK(before.ok());
    out.seconds.push_back(before->seconds());

    GAMMA_CHECK(machine.AddNode().ok());
    GAMMA_CHECK(machine.AddNode().ok());
    elastic::ElasticMigrator migrator(&machine);
    auto report = migrator.MigrateAll();
    GAMMA_CHECK(report.ok());
    out.migration_sec = report->migration_sec;

    auto after = machine.RunSelect(query);
    GAMMA_CHECK(after.ok());
    out.seconds.push_back(after->seconds());
    out.content = SortedContent(machine, "M");
    return out;
  };

  const Outcome narrow = WithThreads(1, scenario);
  const Outcome wide = WithThreads(4, scenario);
  EXPECT_EQ(narrow, wide);  // bit-exact simulated seconds and bytes
}

TEST(ElasticMigration, ProfileRingFlushCoversMigration) {
  gamma::GammaConfig config = ElasticConfig(2, /*backups=*/false);
  config.trace.enabled = true;
  gamma::GammaMachine machine(config);
  ASSERT_TRUE(machine
                  .CreateRelation("M", MiniSchema(),
                                  catalog::PartitionSpec::Hashed(0))
                  .ok());
  ASSERT_TRUE(machine.LoadTuples("M", MiniRelation(300, 29)).ok());

  gamma::SelectQuery query;
  query.relation = "M";
  query.predicate = Predicate::Range(0, 0, 99);
  query.store_result = false;
  ASSERT_TRUE(machine.RunSelect(query).ok());
  ASSERT_TRUE(machine.RunSelect(query).ok());
  EXPECT_EQ(machine.profile_ring().size(), 2u);

  // Migration statements are traced like any other statement.
  ASSERT_TRUE(machine.AddNode().ok());
  elastic::ElasticMigrator migrator(&machine);
  ASSERT_TRUE(migrator.MigrateAll().ok());
  const size_t buffered = machine.profile_ring().size();
  EXPECT_GT(buffered, 2u);

  const std::string path = ::testing::TempDir() + "/elastic_ring.json";
  ASSERT_TRUE(machine.FlushProfileRing(path).ok());
  EXPECT_TRUE(machine.profile_ring().empty());  // flush drains the ring

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  EXPECT_NE(json.find("\"statements\":" + std::to_string(buffered)),
            std::string::npos);
  EXPECT_NE(json.find("process_name"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gammadb
