// Failure-injection tests: every public API must turn bad input into a
// descriptive Status, never a crash or a silent wrong answer, and must leave
// the machine usable afterwards.

#include <cstring>

#include <gtest/gtest.h>

#include "gamma/machine.h"
#include "storage/disk.h"
#include "teradata/machine.h"
#include "test_util.h"
#include "wisconsin/wisconsin.h"

namespace gammadb {
namespace {

namespace wis = gammadb::wisconsin;
using exec::Predicate;

class GammaErrorTest : public ::testing::Test {
 protected:
  GammaErrorTest() : machine_(Config()) {
    GAMMA_CHECK(machine_
                    .CreateRelation("A", wis::WisconsinSchema(),
                                    catalog::PartitionSpec::Hashed(
                                        wis::kUnique1))
                    .ok());
    GAMMA_CHECK(
        machine_.LoadTuples("A", wis::GenerateWisconsin(500, 1)).ok());
  }
  static gamma::GammaConfig Config() {
    gamma::GammaConfig config;
    config.num_disk_nodes = 2;
    config.num_diskless_nodes = 0;  // Remote joins impossible
    return config;
  }
  gamma::GammaMachine machine_;
};

TEST_F(GammaErrorTest, UnknownRelationEverywhere) {
  gamma::SelectQuery select;
  select.relation = "nope";
  EXPECT_TRUE(machine_.RunSelect(select).status().IsNotFound());

  gamma::JoinQuery join;
  join.outer = "A";
  join.inner = "nope";
  join.outer_attr = 0;
  join.inner_attr = 0;
  join.mode = gamma::JoinMode::kLocal;
  EXPECT_TRUE(machine_.RunJoin(join).status().IsNotFound());

  gamma::AggregateQuery agg;
  agg.relation = "nope";
  agg.value_attr = 0;
  EXPECT_TRUE(machine_.RunAggregate(agg).status().IsNotFound());

  EXPECT_TRUE(machine_.ReadRelation("nope").status().IsNotFound());
  EXPECT_TRUE(machine_.CountTuples("nope").status().IsNotFound());
}

TEST_F(GammaErrorTest, DuplicateRelationRejected) {
  EXPECT_FALSE(machine_
                   .CreateRelation("A", wis::WisconsinSchema(),
                                   catalog::PartitionSpec::RoundRobin())
                   .ok());
}

TEST_F(GammaErrorTest, SchemaMismatchOnLoadAndAppend) {
  const std::vector<std::vector<uint8_t>> bad = {{1, 2, 3}};
  EXPECT_TRUE(machine_.LoadTuples("A", bad).IsInvalidArgument());
  gamma::AppendQuery append{"A", {1, 2, 3}};
  EXPECT_TRUE(machine_.RunAppend(append).status().IsInvalidArgument());
  EXPECT_EQ(*machine_.CountTuples("A"), 500u);  // nothing leaked in
}

TEST_F(GammaErrorTest, AttributeRangeChecks) {
  gamma::JoinQuery join;
  join.outer = "A";
  join.inner = "A";
  join.outer_attr = 99;
  join.inner_attr = 0;
  join.mode = gamma::JoinMode::kLocal;
  EXPECT_TRUE(machine_.RunJoin(join).status().IsInvalidArgument());

  gamma::AggregateQuery agg;
  agg.relation = "A";
  agg.value_attr = 99;
  EXPECT_TRUE(machine_.RunAggregate(agg).status().IsInvalidArgument());
  agg.value_attr = 0;
  agg.group_attr = 99;
  EXPECT_TRUE(machine_.RunAggregate(agg).status().IsInvalidArgument());

  gamma::DeleteQuery del{"A", -1, 0};
  EXPECT_TRUE(machine_.RunDelete(del).status().IsInvalidArgument());

  gamma::ModifyQuery modify{"A", 0, 1, 99, 0};
  EXPECT_TRUE(machine_.RunModify(modify).status().IsInvalidArgument());
  // Modifying a string attribute is not supported.
  gamma::ModifyQuery strings{"A", wis::kUnique1, 1, wis::kStringU1, 0};
  EXPECT_TRUE(machine_.RunModify(strings).status().IsInvalidArgument());
}

TEST_F(GammaErrorTest, RemoteJoinWithoutDisklessNodes) {
  gamma::JoinQuery join;
  join.outer = "A";
  join.inner = "A";
  join.outer_attr = wis::kUnique2;
  join.inner_attr = wis::kUnique2;
  join.mode = gamma::JoinMode::kRemote;
  EXPECT_TRUE(machine_.RunJoin(join).status().IsInvalidArgument());
  // Local mode still works afterwards.
  join.mode = gamma::JoinMode::kLocal;
  const auto result = machine_.RunJoin(join);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->result_tuples, 500u);  // self-join on a unique attr
}

TEST_F(GammaErrorTest, BuildIndexValidation) {
  EXPECT_TRUE(machine_.BuildIndex("nope", 0, true).IsNotFound());
  EXPECT_TRUE(machine_.BuildIndex("A", 99, true).IsInvalidArgument());
  ASSERT_TRUE(machine_.BuildIndex("A", wis::kUnique2, false).ok());
  // Clustered after non-clustered would invalidate rids: rejected.
  EXPECT_FALSE(machine_.BuildIndex("A", wis::kUnique1, true).ok());
}

// A one-int-plus-string schema whose tuple is `string_bytes` + 4 bytes.
catalog::Schema WideSchema(uint32_t string_bytes) {
  return catalog::Schema({{"key", catalog::AttrType::kInt32, 4},
                          {"text", catalog::AttrType::kChar, string_bytes}});
}

// A partitioning key LoadTuples cannot hash or range (out of range, or a
// char attribute), and a tuple no page can hold, are refused when the
// relation is created. Nothing is registered, and the largest tuple that
// fits a 4 KB page loads.
TEST_F(GammaErrorTest, CreateRelationRejectsUnusableKeyAndOversizedTuple) {
  const auto& schema = wis::WisconsinSchema();
  for (const catalog::PartitionSpec& spec :
       {catalog::PartitionSpec::Hashed(99),
        catalog::PartitionSpec::Hashed(wis::kStringU1),
        catalog::PartitionSpec::RangeUser(-1, {100}),
        catalog::PartitionSpec::RangeUser(wis::kString4, {100}),
        catalog::PartitionSpec::RangeUniform(wis::kStringU2, 0, 499, 2)}) {
    EXPECT_TRUE(machine_.CreateRelation("B", schema, spec).IsInvalidArgument());
  }
  EXPECT_TRUE(machine_
                  .CreateRelation("B", WideSchema(5000),
                                  catalog::PartitionSpec::RoundRobin())
                  .IsInvalidArgument());
  // 4 + 4077 bytes plus the page's header and slot is one byte too many.
  EXPECT_TRUE(machine_
                  .CreateRelation("B", WideSchema(4077),
                                  catalog::PartitionSpec::RoundRobin())
                  .IsInvalidArgument());
  EXPECT_EQ(machine_.catalog().Names(), std::vector<std::string>{"A"});

  ASSERT_TRUE(machine_
                  .CreateRelation("B", WideSchema(4076),
                                  catalog::PartitionSpec::Hashed(0))
                  .ok());
  const std::vector<std::vector<uint8_t>> wide(3,
                                               std::vector<uint8_t>(4080, 1));
  ASSERT_TRUE(machine_.LoadTuples("B", wide).ok());
  EXPECT_EQ(*machine_.CountTuples("B"), 3u);
  EXPECT_EQ(*machine_.CountTuples("A"), 500u);
}

TEST_F(GammaErrorTest, ForcedIndexPathWithoutIndex) {
  gamma::SelectQuery select;
  select.relation = "A";
  select.predicate = Predicate::Range(wis::kUnique1, 0, 49);
  select.access = gamma::AccessPath::kClusteredIndex;
  EXPECT_TRUE(machine_.RunSelect(select).status().IsInvalidArgument());
  select.access = gamma::AccessPath::kNonClusteredIndex;
  EXPECT_TRUE(machine_.RunSelect(select).status().IsInvalidArgument());
  // An index on another attribute does not match the predicate either.
  ASSERT_TRUE(machine_.BuildIndex("A", wis::kUnique2, false).ok());
  EXPECT_TRUE(machine_.RunSelect(select).status().IsInvalidArgument());
  // No partial result relation leaked; the machine answers the next query.
  EXPECT_EQ(machine_.catalog().Names().size(), 1u);
  select.access = gamma::AccessPath::kAuto;
  const auto result = machine_.RunSelect(select);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->result_tuples, 50u);
}

TEST_F(GammaErrorTest, DeleteAndModifyMissingKeyAreNoOps) {
  gamma::DeleteQuery del{"A", wis::kUnique1, 99999};
  const auto deleted = machine_.RunDelete(del);
  ASSERT_TRUE(deleted.ok());
  EXPECT_EQ(deleted->result_tuples, 0u);
  gamma::ModifyQuery modify{"A", wis::kUnique1, 99999, wis::kTen, 1};
  const auto modified = machine_.RunModify(modify);
  ASSERT_TRUE(modified.ok());
  EXPECT_EQ(modified->result_tuples, 0u);
  EXPECT_EQ(*machine_.CountTuples("A"), 500u);
}

// A result name that names an existing relation is refused up front:
// nothing is charged, created or dropped, and the machine stays usable.
TEST_F(GammaErrorTest, ResultNameCollisionIsAlreadyExists) {
  gamma::SelectQuery select;
  select.relation = "A";
  select.predicate = Predicate::Range(wis::kUnique1, 0, 9);
  select.result_name = "A";
  const auto selected = machine_.RunSelect(select);
  EXPECT_TRUE(selected.status().IsAlreadyExists())
      << selected.status().ToString();

  gamma::JoinQuery join;
  join.outer = "A";
  join.inner = "A";
  join.outer_attr = wis::kUnique1;
  join.inner_attr = wis::kUnique1;
  join.mode = gamma::JoinMode::kLocal;
  join.result_name = "A";
  const auto joined = machine_.RunJoin(join);
  EXPECT_TRUE(joined.status().IsAlreadyExists()) << joined.status().ToString();
  EXPECT_EQ(machine_.catalog().Names(), std::vector<std::string>{"A"});
  EXPECT_EQ(*machine_.CountTuples("A"), 500u);

  // A host-bound select ignores the name; a fresh name still stores.
  select.store_result = false;
  EXPECT_TRUE(machine_.RunSelect(select).ok());
  select.store_result = true;
  select.result_name = "R";
  const auto stored = machine_.RunSelect(select);
  ASSERT_TRUE(stored.ok()) << stored.status().ToString();
  EXPECT_EQ(*machine_.CountTuples("R"), 10u);
}

// A stored join whose result tuple (two 2104-byte tuples side by side) no
// page can hold is refused before anything is charged or created; the same
// join returned to the host still runs.
TEST_F(GammaErrorTest, OversizedStoredJoinResultIsInvalidArgument) {
  ASSERT_TRUE(machine_
                  .CreateRelation("W", WideSchema(2100),
                                  catalog::PartitionSpec::Hashed(0))
                  .ok());
  std::vector<std::vector<uint8_t>> wide;
  for (int32_t key = 0; key < 3; ++key) {
    wide.emplace_back(2104, 7);
    std::memcpy(wide.back().data(), &key, sizeof(key));
  }
  ASSERT_TRUE(machine_.LoadTuples("W", wide).ok());
  gamma::JoinQuery join;
  join.outer = "W";
  join.inner = "W";
  join.outer_attr = 0;
  join.inner_attr = 0;
  join.mode = gamma::JoinMode::kLocal;
  const auto stored = machine_.RunJoin(join);
  EXPECT_TRUE(stored.status().IsInvalidArgument())
      << stored.status().ToString();
  EXPECT_EQ(machine_.catalog().Names(),
            (std::vector<std::string>{"A", "W"}));

  join.store_result = false;
  const auto returned = machine_.RunJoin(join);
  ASSERT_TRUE(returned.ok()) << returned.status().ToString();
  EXPECT_EQ(returned->result_tuples, 3u);
}

// A non-clustered index entry whose record vanished behind the index's back
// fails the select with Corruption instead of aborting the process.
TEST_F(GammaErrorTest, DanglingIndexEntryIsCorruption) {
  ASSERT_TRUE(machine_.BuildIndex("A", wis::kUnique2, false).ok());
  const catalog::RelationMeta& meta = **machine_.catalog().Get("A");
  storage::HeapFile& fragment = machine_.node(0).file(meta.per_node_file[0]);
  ASSERT_TRUE(fragment.Delete(storage::Rid{0, 0}).ok());
  gamma::SelectQuery select;
  select.relation = "A";
  select.predicate = Predicate::Range(wis::kUnique2, 0, 499);
  select.access = gamma::AccessPath::kNonClusteredIndex;
  const auto result = machine_.RunSelect(select);
  EXPECT_TRUE(result.status().IsCorruption()) << result.status().ToString();
  EXPECT_EQ(machine_.catalog().Names(), std::vector<std::string>{"A"});
}

TEST(TeradataErrorTest, ValidationMirrorsGamma) {
  teradata::TeradataMachine machine{teradata::TeradataConfig{}};
  EXPECT_TRUE(machine
                  .CreateRelation("A", wis::WisconsinSchema(),
                                  /*primary_key_attr=*/99)
                  .IsInvalidArgument());
  EXPECT_TRUE(machine
                  .CreateRelation("A", wis::WisconsinSchema(), wis::kStringU1)
                  .IsInvalidArgument());
  EXPECT_TRUE(
      machine.CreateRelation("A", WideSchema(5000), 0).IsInvalidArgument());
  EXPECT_TRUE(
      machine.CreateRelation("A", WideSchema(4077), 0).IsInvalidArgument());
  ASSERT_TRUE(
      machine.CreateRelation("A", wis::WisconsinSchema(), wis::kUnique1)
          .ok());
  EXPECT_FALSE(
      machine.CreateRelation("A", wis::WisconsinSchema(), wis::kUnique1)
          .ok());
  ASSERT_TRUE(
      machine.LoadTuples("A", wis::GenerateWisconsin(500, 1)).ok());

  EXPECT_TRUE(machine.LoadTuples("A", {{1, 2}}).IsInvalidArgument());
  EXPECT_TRUE(machine.BuildSecondaryIndex("A", 99).IsInvalidArgument());
  EXPECT_TRUE(machine.BuildSecondaryIndex("nope", 0).IsNotFound());

  teradata::TdSelectQuery select;
  select.relation = "nope";
  EXPECT_TRUE(machine.RunSelect(select).status().IsNotFound());

  teradata::TdJoinQuery join;
  join.outer = "A";
  join.inner = "A";
  join.outer_attr = 99;
  join.inner_attr = 0;
  EXPECT_TRUE(machine.RunJoin(join).status().IsInvalidArgument());

  teradata::TdAppendQuery append{"A", {1}};
  EXPECT_TRUE(machine.RunAppend(append).status().IsInvalidArgument());
  teradata::TdDeleteQuery del{"A", -1, 0};
  EXPECT_TRUE(machine.RunDelete(del).status().IsInvalidArgument());
  teradata::TdModifyQuery modify{"A", 0, 1, 99, 0};
  EXPECT_TRUE(machine.RunModify(modify).status().IsInvalidArgument());

  // A stored or spooled join result no page can hold is refused up front.
  ASSERT_TRUE(machine.CreateRelation("W", WideSchema(2100), 0).ok());
  std::vector<std::vector<uint8_t>> wide;
  for (int32_t key = 0; key < 3; ++key) {
    wide.emplace_back(2104, 7);
    std::memcpy(wide.back().data(), &key, sizeof(key));
  }
  ASSERT_TRUE(machine.LoadTuples("W", wide).ok());
  teradata::TdJoinQuery wide_join;
  wide_join.outer = "W";
  wide_join.inner = "W";
  wide_join.outer_attr = 0;
  wide_join.inner_attr = 0;
  for (const bool temp : {false, true}) {
    wide_join.result_is_temp = temp;
    const auto joined = machine.RunJoin(wide_join);
    EXPECT_TRUE(joined.status().IsInvalidArgument())
        << temp << " " << joined.status().ToString();
  }
  EXPECT_EQ(machine.catalog().Names(), (std::vector<std::string>{"A", "W"}));

  // Machine still fully functional after the barrage.
  select.relation = "A";
  select.predicate = Predicate::Range(wis::kUnique1, 0, 49);
  select.store_result = false;
  const auto result = machine.RunSelect(select);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->result_tuples, 50u);
}

TEST(DiskBoundsTest, OutOfRangeAccessIsDescriptive) {
  storage::SimulatedDisk disk(64);
  std::vector<uint8_t> buf(64, 0);
  const uint32_t page = disk.Allocate().value();
  ASSERT_TRUE(disk.Read(page, buf.data()).ok());

  const Status read = disk.Read(page + 1, buf.data());
  EXPECT_TRUE(read.IsOutOfRange());
  EXPECT_NE(read.message().find("read"), std::string::npos);
  const Status write = disk.Write(page + 1, buf.data());
  EXPECT_TRUE(write.IsOutOfRange());
  EXPECT_NE(write.message().find("write"), std::string::npos);
  EXPECT_TRUE(disk.Read(0xFFFFFFFF, buf.data()).IsOutOfRange());

  // The failures left the disk usable.
  EXPECT_TRUE(disk.Write(page, buf.data()).ok());
}

TEST(DiskBoundsTest, AllocateStopsAtCapacity) {
  storage::SimulatedDisk disk(64);  // smallest pages: capacity is page count
  for (uint32_t i = 0; i < storage::SimulatedDisk::kMaxPages; ++i) {
    ASSERT_TRUE(disk.Allocate().ok());
  }
  const auto overflow = disk.Allocate();
  ASSERT_FALSE(overflow.ok());
  EXPECT_TRUE(overflow.status().IsResourceExhausted());
  EXPECT_EQ(disk.num_pages(), storage::SimulatedDisk::kMaxPages);
}

// The cap counts live pages, not page numbers ever handed out: a disk that
// keeps freeing what it allocates never fills up.
TEST(DiskBoundsTest, AllocateAndFreePastCapacity) {
  storage::SimulatedDisk disk(64);
  const uint32_t kept = disk.Allocate().value();
  for (uint32_t i = 0; i < storage::SimulatedDisk::kMaxPages + 10; ++i) {
    const auto page = disk.Allocate();
    ASSERT_TRUE(page.ok()) << "allocation " << i << ": "
                           << page.status().ToString();
    disk.Free(*page);
  }
  EXPECT_EQ(disk.live_pages(), 1u);
  EXPECT_EQ(disk.num_pages(), storage::SimulatedDisk::kMaxPages + 11);
  EXPECT_EQ(disk.num_slots(), 2u);
  std::vector<uint8_t> buf(64, 0);
  EXPECT_TRUE(disk.Read(kept, buf.data()).ok());
}

TEST(TeradataErrorTest, DeleteMissingKeyIsNoOp) {
  teradata::TeradataMachine machine{teradata::TeradataConfig{}};
  ASSERT_TRUE(
      machine.CreateRelation("A", wis::WisconsinSchema(), wis::kUnique1)
          .ok());
  ASSERT_TRUE(machine.LoadTuples("A", wis::GenerateWisconsin(100, 1)).ok());
  teradata::TdDeleteQuery del{"A", wis::kUnique1, 424242};
  const auto result = machine.RunDelete(del);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->result_tuples, 0u);
  EXPECT_EQ(*machine.CountTuples("A"), 100u);
}

TEST(TeradataErrorTest, ResultNameCollisionIsAlreadyExists) {
  teradata::TeradataMachine machine{teradata::TeradataConfig{}};
  ASSERT_TRUE(
      machine.CreateRelation("A", wis::WisconsinSchema(), wis::kUnique1)
          .ok());
  ASSERT_TRUE(machine.LoadTuples("A", wis::GenerateWisconsin(100, 1)).ok());
  // The fresh result name of the first unnamed store, taken by a user.
  ASSERT_TRUE(machine
                  .CreateRelation("td_result_1", wis::WisconsinSchema(),
                                  wis::kUnique1)
                  .ok());

  teradata::TdSelectQuery select;
  select.relation = "A";
  select.predicate = Predicate::Range(wis::kUnique1, 0, 9);
  select.result_name = "A";
  const auto selected = machine.RunSelect(select);
  EXPECT_TRUE(selected.status().IsAlreadyExists())
      << selected.status().ToString();

  teradata::TdJoinQuery join;
  join.outer = "A";
  join.inner = "A";
  join.outer_attr = wis::kUnique2;
  join.inner_attr = wis::kUnique2;
  join.result_name = "td_result_1";
  const auto joined = machine.RunJoin(join);
  EXPECT_TRUE(joined.status().IsAlreadyExists()) << joined.status().ToString();
  EXPECT_EQ(machine.catalog().Names(),
            (std::vector<std::string>{"A", "td_result_1"}));
  EXPECT_EQ(*machine.CountTuples("A"), 100u);

  // Unnamed results skip the taken fresh name.
  select.result_name.clear();
  const auto stored = machine.RunSelect(select);
  ASSERT_TRUE(stored.ok()) << stored.status().ToString();
  EXPECT_EQ(stored->result_relation, "td_result_2");
  EXPECT_EQ(*machine.CountTuples("td_result_2"), 10u);
}

}  // namespace
}  // namespace gammadb
