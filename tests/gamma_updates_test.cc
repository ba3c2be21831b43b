// Integration tests for Gamma's update queries (Table 3 semantics):
// appends, deletes and the three modify variants, with index maintenance
// through deferred-update files.

#include <cstdio>
#include <functional>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "elastic/migrator.h"
#include "gamma/machine.h"
#include "test_util.h"
#include "wisconsin/wisconsin.h"

namespace gammadb::gamma {
namespace {

using catalog::PartitionSpec;
using catalog::TupleView;
using exec::Predicate;
namespace wis = gammadb::wisconsin;

class GammaUpdatesTest : public ::testing::Test {
 protected:
  GammaUpdatesTest() : machine_(Config()) {
    tuples_ = wis::GenerateWisconsin(1000, 3);
    EXPECT_TRUE(machine_
                    .CreateRelation("R", wis::WisconsinSchema(),
                                    PartitionSpec::Hashed(wis::kUnique1))
                    .ok());
    EXPECT_TRUE(machine_.LoadTuples("R", tuples_).ok());
    EXPECT_TRUE(machine_.BuildIndex("R", wis::kUnique1, true).ok());
    EXPECT_TRUE(machine_.BuildIndex("R", wis::kUnique2, false).ok());
  }

  static GammaConfig Config() {
    GammaConfig config;
    config.num_disk_nodes = 4;
    config.num_diskless_nodes = 0;
    return config;
  }

  std::vector<uint8_t> MakeTuple(int32_t u1, int32_t u2) {
    catalog::TupleBuilder builder(&wis::WisconsinSchema());
    builder.SetInt(wis::kUnique1, u1).SetInt(wis::kUnique2, u2);
    builder.SetChar(wis::kStringU1, "new");
    return {builder.bytes().begin(), builder.bytes().end()};
  }

  /// Returns the unique2 value of the tuple with the given unique1, or -1.
  int32_t Unique2Of(int32_t u1) {
    const auto tuples = machine_.ReadRelation("R");
    for (const auto& tuple : *tuples) {
      const TupleView view(&wis::WisconsinSchema(), tuple);
      if (view.GetInt(wis::kUnique1) == u1) {
        return view.GetInt(wis::kUnique2);
      }
    }
    return -1;
  }

  GammaMachine machine_;
  std::vector<std::vector<uint8_t>> tuples_;
};

TEST_F(GammaUpdatesTest, AppendAddsTuple) {
  AppendQuery query;
  query.relation = "R";
  query.tuple = MakeTuple(5000, 5000);
  const auto result = machine_.RunAppend(query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*machine_.CountTuples("R"), 1001u);
  EXPECT_EQ(Unique2Of(5000), 5000);

  // The new tuple is findable through the maintained indices.
  SelectQuery select;
  select.relation = "R";
  select.predicate = Predicate::Eq(wis::kUnique2, 5000);
  select.access = AccessPath::kNonClusteredIndex;
  select.store_result = false;
  const auto found = machine_.RunSelect(select);
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found->result_tuples, 1u);
}

TEST_F(GammaUpdatesTest, AppendWithIndexCostsMore) {
  GammaMachine bare(Config());
  ASSERT_TRUE(bare.CreateRelation("R", wis::WisconsinSchema(),
                                  PartitionSpec::Hashed(wis::kUnique1))
                  .ok());
  ASSERT_TRUE(bare.LoadTuples("R", tuples_).ok());

  AppendQuery query;
  query.relation = "R";
  query.tuple = MakeTuple(6000, 6000);
  const auto no_index = bare.RunAppend(query);
  const auto with_index = machine_.RunAppend(query);
  ASSERT_TRUE(no_index.ok());
  ASSERT_TRUE(with_index.ok());
  // Table 3 rows 1-2: maintaining the indices (via the deferred-update
  // file) costs measurably more than a bare append.
  EXPECT_GT(with_index->seconds(), no_index->seconds() + 0.05);
}

TEST_F(GammaUpdatesTest, DeleteRemovesTupleAndIndexEntries) {
  DeleteQuery query;
  query.relation = "R";
  query.key_attr = wis::kUnique1;
  query.key = 123;
  const auto result = machine_.RunDelete(query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->result_tuples, 1u);
  EXPECT_EQ(*machine_.CountTuples("R"), 999u);
  EXPECT_EQ(Unique2Of(123), -1);

  // Index no longer finds it.
  SelectQuery select;
  select.relation = "R";
  select.predicate = Predicate::Eq(wis::kUnique1, 123);
  select.store_result = false;
  const auto found = machine_.RunSelect(select);
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found->result_tuples, 0u);

  // Deleting again is a no-op.
  const auto again = machine_.RunDelete(query);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->result_tuples, 0u);
}

TEST_F(GammaUpdatesTest, ModifyNonIndexedAttributeInPlace) {
  ModifyQuery query;
  query.relation = "R";
  query.locate_attr = wis::kUnique1;
  query.locate_key = 42;
  query.target_attr = wis::kTen;
  query.new_value = 77;
  const auto result = machine_.RunModify(query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->result_tuples, 1u);
  const auto all = machine_.ReadRelation("R");
  for (const auto& tuple : *all) {
    const TupleView view(&wis::WisconsinSchema(), tuple);
    if (view.GetInt(wis::kUnique1) == 42) {
      EXPECT_EQ(view.GetInt(wis::kTen), 77);
    }
  }
  EXPECT_EQ(*machine_.CountTuples("R"), 1000u);
}

TEST_F(GammaUpdatesTest, ModifyKeyAttributeRelocates) {
  const int32_t old_u2 = Unique2Of(10);
  ModifyQuery query;
  query.relation = "R";
  query.locate_attr = wis::kUnique1;
  query.locate_key = 10;
  query.target_attr = wis::kUnique1;
  query.new_value = 8888;
  const auto result = machine_.RunModify(query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->result_tuples, 1u);
  EXPECT_EQ(Unique2Of(10), -1);
  EXPECT_EQ(Unique2Of(8888), old_u2);
  EXPECT_EQ(*machine_.CountTuples("R"), 1000u);

  // Both the clustered index (at the new home) and the secondary index
  // still locate the relocated tuple.
  SelectQuery by_key;
  by_key.relation = "R";
  by_key.predicate = Predicate::Eq(wis::kUnique1, 8888);
  by_key.store_result = false;
  EXPECT_EQ(machine_.RunSelect(by_key)->result_tuples, 1u);
  SelectQuery by_u2;
  by_u2.relation = "R";
  by_u2.predicate = Predicate::Eq(wis::kUnique2, old_u2);
  by_u2.access = AccessPath::kNonClusteredIndex;
  by_u2.store_result = false;
  EXPECT_EQ(machine_.RunSelect(by_u2)->result_tuples, 1u);
}

TEST_F(GammaUpdatesTest, ModifyIndexedAttributeUpdatesIndex) {
  ModifyQuery query;
  query.relation = "R";
  query.locate_attr = wis::kUnique2;
  query.locate_key = 500;
  query.target_attr = wis::kUnique2;
  query.new_value = 7777;
  const auto result = machine_.RunModify(query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->result_tuples, 1u);

  SelectQuery old_value;
  old_value.relation = "R";
  old_value.predicate = Predicate::Eq(wis::kUnique2, 500);
  old_value.access = AccessPath::kNonClusteredIndex;
  old_value.store_result = false;
  EXPECT_EQ(machine_.RunSelect(old_value)->result_tuples, 0u);
  SelectQuery new_value = old_value;
  new_value.predicate = Predicate::Eq(wis::kUnique2, 7777);
  EXPECT_EQ(machine_.RunSelect(new_value)->result_tuples, 1u);
}

TEST_F(GammaUpdatesTest, UpdateTimesAreSubSecond) {
  // Table 3: every Gamma single-tuple update lands well under two seconds
  // regardless of relation size; sanity-check the model's magnitudes.
  AppendQuery append{.relation = "R", .tuple = MakeTuple(9999, 9999)};
  const auto a = machine_.RunAppend(append);
  EXPECT_LT(a->seconds(), 2.0);
  EXPECT_GT(a->seconds(), 0.01);

  DeleteQuery del{.relation = "R", .key_attr = wis::kUnique1, .key = 9999};
  const auto d = machine_.RunDelete(del);
  EXPECT_LT(d->seconds(), 2.0);
}


// --- Every write kind, pinned ---
//
// Each Gamma write statement (and one elastic migration) runs on a fresh
// machine with chained declustering and logging on, once with every node
// up and once with the backup host of the written fragment dead. The
// simulated seconds (at full double precision) and every WAL record the
// statement appended (kind, fragment, rid, mirrored, backup rid) are pinned:
// the write path must charge and log exactly this, in this order.

GammaConfig PinConfig() {
  GammaConfig config;
  config.num_disk_nodes = 4;
  config.num_diskless_nodes = 0;
  config.chained_declustering = true;
  config.enable_logging = true;
  return config;
}

std::vector<uint8_t> PinTuple(int32_t u1) {
  catalog::TupleBuilder builder(&wis::WisconsinSchema());
  builder.SetInt(wis::kUnique1, u1).SetInt(wis::kUnique2, u1);
  builder.SetChar(wis::kStringU1, "new");
  return {builder.bytes().begin(), builder.bytes().end()};
}

/// "H": heap, "R": clustered unique1 + non-clustered unique2, "S": a small
/// heap for the migration; all hashed on unique1.
std::unique_ptr<GammaMachine> PinMachine() {
  auto machine = std::make_unique<GammaMachine>(PinConfig());
  const auto spec = PartitionSpec::Hashed(wis::kUnique1);
  for (const auto& [name, n] :
       std::vector<std::pair<std::string, uint32_t>>{
           {"H", 400}, {"R", 400}, {"S", 24}}) {
    GAMMA_CHECK(
        machine->CreateRelation(name, wis::WisconsinSchema(), spec).ok());
    GAMMA_CHECK(
        machine->LoadTuples(name, wis::GenerateWisconsin(n, 3)).ok());
  }
  GAMMA_CHECK(machine->BuildIndex("R", wis::kUnique1, true).ok());
  GAMMA_CHECK(machine->BuildIndex("R", wis::kUnique2, false).ok());
  return machine;
}

int HomeOf(GammaMachine& machine, int32_t key) {
  const catalog::RelationMeta* meta = *machine.catalog().Get("R");
  return catalog::Partitioner(&meta->partitioning, &meta->schema, 4)
      .NodeForKey(key);
}

std::string RenderWal(const WalStore& wal, size_t from) {
  std::string out;
  const auto& records = wal.records();
  for (size_t i = from; i < records.size(); ++i) {
    const WalRecord& r = records[i];
    char line[96];
    std::snprintf(line, sizeof(line), "k%d f%d %u:%u m%d b%u:%u;",
                  static_cast<int>(r.kind), r.fragment, r.rid.page_index,
                  static_cast<unsigned>(r.rid.slot), r.mirrored ? 1 : 0,
                  r.backup_rid.page_index,
                  static_cast<unsigned>(r.backup_rid.slot));
    out += line;
  }
  return out;
}

/// First key >= 2000 whose home is two sites past `key`'s: a relocation
/// whose old and new backup hosts are both distinct from either home.
int32_t RelocationTarget(GammaMachine& machine, int32_t key) {
  const int want = (HomeOf(machine, key) + 2) % 4;
  int32_t candidate = 2000;
  while (HomeOf(machine, candidate) != want) ++candidate;
  return candidate;
}

struct WriteKind {
  const char* name;
  /// unique1 of the written tuple; its home's backup host is the one killed.
  int32_t key;
  std::function<Result<double>(GammaMachine&)> run;
  /// {TotalSec at %.17g, WAL records} with all nodes up / backup host dead
  /// ("" seconds: the statement is refused as Unavailable).
  std::pair<std::string, std::string> all_up;
  std::pair<std::string, std::string> backup_dead;
};

Result<double> Seconds(const Result<QueryResult>& result) {
  if (!result.ok()) return result.status();
  return result->metrics.TotalSec();
}

std::vector<WriteKind> AllWriteKinds() {
  return {
      {"append/heap", 1001,
       [](GammaMachine& m) {
         return Seconds(m.RunAppend({"H", PinTuple(1001)}));
       },
       {"0.15570608130081304",
        "k0 f2 5:2 m1 b5:2;k3 f-1 0:0 m1 b0:0;"},
       {"0.15029008130081301",
        "k0 f2 5:2 m0 b0:0;k3 f-1 0:0 m1 b0:0;"}},
      {"append/indexed", 1002,
       [](GammaMachine& m) {
         return Seconds(m.RunAppend({"R", PinTuple(1002)}));
       },
       {"0.33635811382113817",
        "k0 f0 4:18 m1 b4:18;k3 f-1 0:0 m1 b0:0;"},
       {"0.33094211382113825",
        "k0 f0 4:18 m0 b0:0;k3 f-1 0:0 m1 b0:0;"}},
      {"delete/index", 17,
       [](GammaMachine& m) {
         return Seconds(m.RunDelete({"R", wis::kUnique1, 17}));
       },
       {"0.33377544715447155",
        "k1 f3 0:4 m1 b1:18;k3 f-1 0:0 m1 b0:0;"},
       {"0.32835944715447152",
        "k1 f3 0:4 m0 b0:0;k3 f-1 0:0 m1 b0:0;"}},
      {"delete/scan", 18,
       [](GammaMachine& m) {
         return Seconds(m.RunDelete({"H", wis::kUnique1, 18}));
       },
       {"0.28061691056910576",
        "k1 f0 1:6 m1 b1:6;k3 f-1 0:0 m1 b0:0;"},
       {"0.27520091056910578",
        "k1 f0 1:6 m0 b0:0;k3 f-1 0:0 m1 b0:0;"}},
      {"modify/non-indexed", 19,
       [](GammaMachine& m) {
         return Seconds(
             m.RunModify({"R", wis::kUnique1, 19, wis::kOddOnePercent, 999}));
       },
       {"0.22357291056910575",
        "k2 f0 0:4 m1 b4:11;k3 f-1 0:0 m1 b0:0;"},
       {"0.18695349593495936",
        "k2 f0 0:4 m0 b0:0;k3 f-1 0:0 m1 b0:0;"}},
      {"modify/indexed", 20,
       [](GammaMachine& m) {
         return Seconds(
             m.RunModify({"R", wis::kUnique1, 20, wis::kUnique2, 5000}));
       },
       {"0.33419144715447152",
        "k2 f3 0:5 m1 b2:11;k3 f-1 0:0 m1 b0:0;"},
       {"0.32877544715447155",
        "k2 f3 0:5 m0 b0:0;k3 f-1 0:0 m1 b0:0;"}},
      {"modify/key-relocates", 21,
       [](GammaMachine& m) {
         return Seconds(m.RunModify({"R", wis::kUnique1, 21, wis::kUnique1,
                                     RelocationTarget(m, 21)}));
       },
       {"0.38119144715447151",
        "k1 f1 0:6 m1 b2:14;"
        "k0 f3 5:11 m1 b5:11;"
        "k3 f-1 0:0 m1 b0:0;"},
       {"0.37577544715447153",
        "k1 f1 0:6 m0 b0:0;"
        "k0 f3 5:11 m1 b5:11;"
        "k3 f-1 0:0 m1 b0:0;"}},
      {"migrate", 0,
       [](GammaMachine& m) -> Result<double> {
         GAMMA_ASSIGN_OR_RETURN(
             const elastic::MigrationReport report,
             elastic::ElasticMigrator(&m).MigrateRelation("S"));
         return report.migration_sec;
       },
       {"0.39835749593495945",
        "k1 f0 0:1 m1 b0:1;"
        "k1 f0 0:5 m1 b0:5;"
        "k1 f1 0:1 m1 b0:1;"
        "k1 f1 0:2 m1 b0:2;"
        "k1 f3 0:2 m1 b0:2;"
        "k0 f0 0:4 m1 b0:6;"
        "k0 f4 0:0 m1 b0:0;"
        "k0 f4 0:1 m1 b0:1;"
        "k0 f4 0:2 m1 b0:2;"
        "k0 f4 0:3 m1 b0:3;"
        "k7 f-1 0:0 m1 b0:0;"
        "k3 f-1 0:0 m1 b0:0;"},
       {"",
        ""}},
  };
}

TEST(WritePathPin, EveryWriteKindKeepsItsChargesAndRecords) {
  for (const WriteKind& kind : AllWriteKinds()) {
    for (const bool backup_dead : {false, true}) {
      SCOPED_TRACE(std::string(kind.name) +
                   (backup_dead ? " / backup host dead" : " / all up"));
      auto machine = PinMachine();
      const int backup_host = (HomeOf(*machine, kind.key) + 1) % 4;
      // The migration grows the machine first; its dead-backup run is
      // refused because migrations need every node alive.
      if (std::string(kind.name) == "migrate") {
        ASSERT_TRUE(machine->AddNode().ok());
      }
      if (backup_dead) machine->KillNode(backup_host);
      const size_t before = machine->wal()->records().size();
      const Result<double> seconds = kind.run(*machine);
      std::string got_seconds;
      if (seconds.ok()) {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", *seconds);
        got_seconds = buf;
      } else {
        EXPECT_TRUE(seconds.status().IsUnavailable())
            << seconds.status().ToString();
      }
      const auto& want = backup_dead ? kind.backup_dead : kind.all_up;
      EXPECT_EQ(got_seconds, want.first);
      EXPECT_EQ(RenderWal(*machine->wal(), before), want.second);
    }
  }
}

// --- Aborts undo through the WAL at both logging settings ---

/// One disk node with a four-frame pool: a statement that walks the 400
/// tuples' pages evicts (writes back) its dirty pages as it goes.
std::unique_ptr<GammaMachine> SmallPoolMachine(bool logging) {
  GammaConfig config;
  config.num_disk_nodes = 1;
  config.num_diskless_nodes = 0;
  config.buffer_pool_bytes = 4 * config.page_size;
  config.enable_logging = logging;
  auto machine = std::make_unique<GammaMachine>(config);
  GAMMA_CHECK(machine
                  ->CreateRelation("R", wis::WisconsinSchema(),
                                   PartitionSpec::Hashed(wis::kUnique1))
                  .ok());
  GAMMA_CHECK(machine->LoadTuples("R", wis::GenerateWisconsin(400, 3)).ok());
  return machine;
}

ModifyQuery SetTen(int locate_attr, int32_t locate_key, int32_t value) {
  ModifyQuery query;
  query.relation = "R";
  query.locate_attr = locate_attr;
  query.locate_key = locate_key;
  query.target_attr = wis::kTen;
  query.new_value = value;
  return query;
}

// An auto-commit modify fails on a page lock that an open transaction holds
// on the last page in scan order. By then the pool has written back the
// statement's earlier dirty pages, so discarding the pool is not enough:
// the undo must reverse them. Aborting the holder then undoes its modify.
TEST(AbortUndoTest, FailedStatementUndoesItsEvictedPages) {
  for (const bool logging : {false, true}) {
    SCOPED_TRACE(logging ? "logging on" : "logging off");
    auto machine = SmallPoolMachine(logging);
    const auto loaded = *machine->ReadRelation("R");
    const int32_t last =
        TupleView(&wis::WisconsinSchema(), loaded.back()).GetInt(wis::kUnique1);

    const uint64_t holder = machine->BeginTxn();
    ASSERT_TRUE(
        machine->RunModify(SetTen(wis::kUnique1, last, 77), holder).ok());
    const auto before = *machine->ReadRelation("R");
    const uint64_t evictions = machine->node(0).pool().evictions();

    const auto failed =
        machine->RunModify(SetTen(wis::kTwo, last % 2, 99));
    ASSERT_FALSE(failed.ok());
    EXPECT_TRUE(failed.status().IsFailedPrecondition())
        << failed.status().ToString();
    EXPECT_GT(machine->node(0).pool().evictions(), evictions);
    EXPECT_TRUE(*machine->ReadRelation("R") == before);

    machine->AbortTxn(holder);
    EXPECT_TRUE(*machine->ReadRelation("R") == loaded);
  }
}

// An explicit transaction's statements are all undone by AbortTxn.
TEST(AbortUndoTest, AbortTxnUndoesEveryStatement) {
  for (const bool logging : {false, true}) {
    SCOPED_TRACE(logging ? "logging on" : "logging off");
    auto machine = SmallPoolMachine(logging);
    const auto loaded = *machine->ReadRelation("R");
    const uint64_t txn = machine->BeginTxn();
    ASSERT_TRUE(machine->RunModify(SetTen(wis::kUnique1, 5, 77), txn).ok());
    catalog::TupleBuilder builder(&wis::WisconsinSchema());
    builder.SetInt(wis::kUnique1, 5000).SetInt(wis::kUnique2, 5000);
    ASSERT_TRUE(machine
                    ->RunAppend({"R", {builder.bytes().begin(),
                                       builder.bytes().end()}},
                                txn)
                    .ok());
    ASSERT_EQ(machine->ReadRelation("R")->size(), 401u);
    machine->AbortTxn(txn);
    EXPECT_TRUE(*machine->ReadRelation("R") == loaded);
    EXPECT_TRUE(machine->txns().quiescent());
  }
}

// An aborted append leaves the catalog count where the relation is: the
// undo recounts what it changed. Round-robin placement reads that count, so
// the next append lands where a machine that never saw the aborted one
// puts it.
TEST(AbortUndoTest, AbortedAppendLeavesTheCountExact) {
  const auto machine_for = [](bool logging) {
    GammaConfig config;
    config.num_disk_nodes = 4;
    config.num_diskless_nodes = 0;
    config.enable_logging = logging;
    auto machine = std::make_unique<GammaMachine>(config);
    GAMMA_CHECK(machine
                    ->CreateRelation("RR", wis::WisconsinSchema(),
                                     PartitionSpec::RoundRobin())
                    .ok());
    GAMMA_CHECK(
        machine->LoadTuples("RR", wis::GenerateWisconsin(401, 3)).ok());
    return machine;
  };
  const auto append = [](GammaMachine& machine, int32_t key, uint64_t txn) {
    catalog::TupleBuilder builder(&wis::WisconsinSchema());
    builder.SetInt(wis::kUnique1, key).SetInt(wis::kUnique2, key);
    return machine.RunAppend(
        {"RR", {builder.bytes().begin(), builder.bytes().end()}}, txn);
  };
  const auto fragment_sizes = [](GammaMachine& machine) {
    const catalog::RelationMeta& meta = **machine.catalog().Get("RR");
    std::vector<uint64_t> sizes;
    for (int n = 0; n < machine.config().num_disk_nodes; ++n) {
      sizes.push_back(machine.node(n)
                          .file(meta.per_node_file[static_cast<size_t>(n)])
                          .num_tuples());
    }
    return sizes;
  };
  for (const bool logging : {false, true}) {
    SCOPED_TRACE(logging ? "logging on" : "logging off");
    auto machine = machine_for(logging);
    const uint64_t txn = machine->BeginTxn();
    ASSERT_TRUE(append(*machine, 5000, txn).ok());
    machine->AbortTxn(txn);
    EXPECT_EQ((*machine->catalog().Get("RR"))->num_tuples,
              *machine->CountTuples("RR"));

    auto never_aborted = machine_for(logging);
    ASSERT_TRUE(append(*machine, 5001, 0).ok());
    ASSERT_TRUE(append(*never_aborted, 5001, 0).ok());
    EXPECT_EQ(fragment_sizes(*machine), fragment_sizes(*never_aborted));
  }
}

}  // namespace
}  // namespace gammadb::gamma
