// Unit tests for schema/tuple handling, partitioning, the catalog, the lock
// manager and deferred-update files.

#include <set>

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "catalog/partition.h"
#include "catalog/schema.h"
#include "storage/deferred_update.h"
#include "storage/storage_manager.h"
#include "test_util.h"
#include "wisconsin/wisconsin.h"

namespace gammadb {
namespace {

using catalog::AttrType;
using catalog::PartitionSpec;
using catalog::Partitioner;
using catalog::Schema;
using catalog::TupleBuilder;
using catalog::TupleView;

TEST(SchemaTest, OffsetsAndSize) {
  const Schema& schema = wisconsin::WisconsinSchema();
  EXPECT_EQ(schema.num_attrs(), 16u);
  EXPECT_EQ(schema.tuple_size(), 208u);  // 13*4 + 3*52 (§4)
  EXPECT_EQ(schema.offset(0), 0u);
  EXPECT_EQ(schema.offset(13), 52u);   // first string after 13 ints
  EXPECT_EQ(schema.offset(15), 156u);
}

TEST(SchemaTest, IndexOfByName) {
  const Schema& schema = wisconsin::WisconsinSchema();
  EXPECT_EQ(*schema.IndexOf("unique2"), 1u);
  EXPECT_FALSE(schema.IndexOf("nonexistent").has_value());
}

TEST(SchemaTest, BuilderViewRoundTrip) {
  const Schema& schema = gammadb::testing::MiniSchema();
  TupleBuilder builder(&schema);
  builder.SetInt(0, -17).SetInt(1, 99).SetChar(2, "abc");
  const TupleView view(&schema, builder.bytes());
  EXPECT_EQ(view.GetInt(0), -17);
  EXPECT_EQ(view.GetInt(1), 99);
  EXPECT_EQ(view.GetChar(2).substr(0, 3), "abc");
  EXPECT_EQ(view.GetChar(2)[3], ' ');  // space padded
  EXPECT_EQ(view.GetChar(2).size(), 16u);
}

TEST(SchemaTest, ConcatPrefixesCollidingNames) {
  const Schema joined = Schema::Concat(gammadb::testing::MiniSchema(),
                                       gammadb::testing::MiniSchema());
  EXPECT_EQ(joined.num_attrs(), 6u);
  EXPECT_EQ(joined.tuple_size(),
            2 * gammadb::testing::MiniSchema().tuple_size());
  EXPECT_EQ(*joined.IndexOf("id"), 0u);
  EXPECT_EQ(*joined.IndexOf("r_id"), 3u);
}

TEST(SchemaTest, ConcatTuplesBytes) {
  const auto left = gammadb::testing::MiniTuple(1, 2);
  const auto right = gammadb::testing::MiniTuple(3, 4);
  // A reused buffer is overwritten, not appended to.
  std::vector<uint8_t> joined(7, 0xFF);
  catalog::ConcatInto(joined, left, right);
  ASSERT_EQ(joined.size(), left.size() + right.size());
  const Schema schema = Schema::Concat(gammadb::testing::MiniSchema(),
                                       gammadb::testing::MiniSchema());
  const TupleView view(&schema, joined);
  EXPECT_EQ(view.GetInt(0), 1);
  EXPECT_EQ(view.GetInt(3), 3);
  EXPECT_EQ(view.GetInt(4), 4);
}

TEST(PartitionTest, RoundRobinCycles) {
  const PartitionSpec spec = PartitionSpec::RoundRobin();
  Partitioner partitioner(&spec, &gammadb::testing::MiniSchema(), 4);
  const auto tuple = gammadb::testing::MiniTuple(0, 0);
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(partitioner.NodeFor(tuple), i % 4);
  }
  EXPECT_EQ(partitioner.NodeForKey(7), -1);  // not localizable
}

TEST(PartitionTest, HashedIsDeterministicAndBalanced) {
  const PartitionSpec spec = PartitionSpec::Hashed(0);
  Partitioner partitioner(&spec, &gammadb::testing::MiniSchema(), 8);
  int counts[8] = {0};
  for (int32_t id = 0; id < 8000; ++id) {
    const int node = partitioner.NodeFor(gammadb::testing::MiniTuple(id, 0));
    EXPECT_EQ(node, partitioner.NodeForKey(id));
    counts[node] += 1;
  }
  for (int node = 0; node < 8; ++node) {
    EXPECT_GT(counts[node], 800);
    EXPECT_LT(counts[node], 1200);
  }
}

TEST(PartitionTest, RangeUserBoundaries) {
  const PartitionSpec spec = PartitionSpec::RangeUser(0, {100, 200, 300});
  Partitioner partitioner(&spec, &gammadb::testing::MiniSchema(), 4);
  EXPECT_EQ(partitioner.NodeForKey(-5), 0);
  EXPECT_EQ(partitioner.NodeForKey(99), 0);
  EXPECT_EQ(partitioner.NodeForKey(100), 1);
  EXPECT_EQ(partitioner.NodeForKey(250), 2);
  EXPECT_EQ(partitioner.NodeForKey(300), 3);
  EXPECT_EQ(partitioner.NodeForKey(99999), 3);
}

TEST(PartitionTest, RangeUniformCoversDomainEvenly) {
  const PartitionSpec spec = PartitionSpec::RangeUniform(0, 0, 9999, 4);
  Partitioner partitioner(&spec, &gammadb::testing::MiniSchema(), 4);
  int counts[4] = {0};
  for (int32_t key = 0; key < 10000; ++key) {
    counts[partitioner.NodeForKey(key)] += 1;
  }
  for (int node = 0; node < 4; ++node) EXPECT_EQ(counts[node], 2500);
}

TEST(CatalogTest, RegisterGetDrop) {
  catalog::Catalog cat;
  catalog::RelationMeta meta;
  meta.name = "r";
  meta.schema = gammadb::testing::MiniSchema();
  ASSERT_TRUE(cat.Register(std::move(meta)).ok());
  EXPECT_TRUE(cat.Contains("r"));
  catalog::RelationMeta duplicate;
  duplicate.name = "r";
  EXPECT_FALSE(cat.Register(std::move(duplicate)).ok());
  ASSERT_TRUE(cat.Get("r").ok());
  EXPECT_TRUE(cat.Get("missing").status().IsNotFound());
  EXPECT_TRUE(cat.Drop("r").ok());
  EXPECT_FALSE(cat.Contains("r"));
  EXPECT_TRUE(cat.Drop("r").IsNotFound());
}

TEST(CatalogTest, FindIndexPrefersClustered) {
  catalog::RelationMeta meta;
  meta.indices.push_back({.attr = 1, .clustered = false, .per_node_index = {}});
  meta.indices.push_back({.attr = 1, .clustered = true, .per_node_index = {}});
  meta.indices.push_back({.attr = 2, .clustered = false, .per_node_index = {}});
  EXPECT_TRUE(meta.FindIndex(1)->clustered);
  EXPECT_FALSE(meta.FindIndex(2)->clustered);
  EXPECT_EQ(meta.FindIndex(9), nullptr);
  EXPECT_EQ(meta.FindClusteredIndex()->attr, 1);
}

TEST(DeferredUpdateTest, CommitAppliesQueuedChanges) {
  storage::StorageManager sm(4096, 256 * 1024);
  storage::BTree& tree = sm.index(sm.CreateIndex());
  storage::DeferredUpdateFile deferred(&sm.charge(), 4096);
  deferred.LogInsert(&tree, 10, storage::Rid{1, 1});
  deferred.LogInsert(&tree, 20, storage::Rid{1, 2});
  deferred.LogDelete(&tree, 10, storage::Rid{1, 1});
  EXPECT_EQ(deferred.pending(), 3u);
  EXPECT_EQ(tree.num_entries(), 0u);  // nothing applied yet (Halloween-safe)
  deferred.Commit();
  EXPECT_EQ(deferred.pending(), 0u);
  EXPECT_EQ(tree.num_entries(), 1u);
  EXPECT_EQ(tree.RangeLookup(20, 20).value().size(), 1u);
}

TEST(DeferredUpdateTest, AbortDropsQueuedChanges) {
  storage::StorageManager sm(4096, 256 * 1024);
  storage::BTree& tree = sm.index(sm.CreateIndex());
  storage::DeferredUpdateFile deferred(&sm.charge(), 4096);
  deferred.LogInsert(&tree, 10, storage::Rid{1, 1});
  deferred.Abort();
  deferred.Commit();
  EXPECT_EQ(tree.num_entries(), 0u);
}

}  // namespace
}  // namespace gammadb
