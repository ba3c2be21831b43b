// Integration tests for the Teradata DBC/1012 baseline: correctness of its
// query paths plus the design behaviours the paper's analysis identifies
// (full index scans for range predicates, never-short-circuited result
// redistribution, costly recovery on inserts).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <set>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "sim/host_pool.h"
#include "teradata/machine.h"
#include "test_util.h"
#include "wisconsin/wisconsin.h"

namespace gammadb::teradata {
namespace {

using exec::Predicate;
using gammadb::testing::ReferenceJoinCount;
using gammadb::testing::ValuesOf;
namespace wis = gammadb::wisconsin;

TeradataConfig SmallConfig() {
  TeradataConfig config;
  config.num_amps = 5;
  return config;
}

constexpr int kManyThreadsForLoad = 4;

/// `tuple` with integer attribute `attr` overwritten by `value`.
std::vector<uint8_t> WithInt(std::vector<uint8_t> tuple, int attr,
                             int32_t value) {
  std::memcpy(tuple.data() +
                  wis::WisconsinSchema().offset(static_cast<size_t>(attr)),
              &value, sizeof(value));
  return tuple;
}

int32_t IntOf(const std::vector<uint8_t>& tuple, int attr) {
  return catalog::TupleView(&wis::WisconsinSchema(), tuple)
      .GetInt(static_cast<size_t>(attr));
}

class TeradataMachineTest : public ::testing::Test {
 protected:
  TeradataMachineTest() : machine_(SmallConfig()) {
    tuples_ = wis::GenerateWisconsin(2000, 7);
    EXPECT_TRUE(machine_
                    .CreateRelation("A", wis::WisconsinSchema(),
                                    wis::kUnique1)
                    .ok());
    EXPECT_TRUE(machine_.LoadTuples("A", tuples_).ok());
  }

  TeradataMachine machine_;
  std::vector<std::vector<uint8_t>> tuples_;
};

TEST_F(TeradataMachineTest, LoadsAllTuplesHashDeclustered) {
  EXPECT_EQ(*machine_.CountTuples("A"), 2000u);
}

TEST_F(TeradataMachineTest, RangeSelectionByScanCorrect) {
  TdSelectQuery query;
  query.relation = "A";
  query.predicate = Predicate::Range(wis::kUnique2, 100, 299);
  const auto result = machine_.RunSelect(query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->result_tuples, 200u);
  const auto stored = *machine_.ReadRelation(result->result_relation);
  EXPECT_EQ(ValuesOf(stored, wis::WisconsinSchema(), wis::kUnique2),
            gammadb::testing::ReferenceSelect(tuples_, wis::WisconsinSchema(),
                                              wis::kUnique2, 100, 299,
                                              wis::kUnique2));
}

TEST_F(TeradataMachineTest, ExactMatchOnPrimaryKeyIsOneAccess) {
  TdSelectQuery query;
  query.relation = "A";
  query.predicate = Predicate::Eq(wis::kUnique1, 1234);
  query.store_result = false;
  const auto result = machine_.RunSelect(query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->result_tuples, 1u);
  // Single hash access: one page read, no scan.
  EXPECT_LE(result->metrics.Totals().pages_read, 2u);
  // Fast path: well under the multi-AMP step overhead.
  EXPECT_LT(result->seconds(), kStepOverheadSec * 2);
}

TEST_F(TeradataMachineTest, DenseIndexScansWholeIndex) {
  ASSERT_TRUE(machine_.BuildSecondaryIndex("A", wis::kUnique2).ok());
  TdSelectQuery query;
  query.relation = "A";
  query.predicate = Predicate::Range(wis::kUnique2, 0, 19);  // 1%
  query.store_result = false;
  const auto with_index = machine_.RunSelect(query);
  ASSERT_TRUE(with_index.ok());
  EXPECT_EQ(with_index->result_tuples, 20u);

  query.allow_index = false;
  const auto without_index = machine_.RunSelect(query);
  ASSERT_TRUE(without_index.ok());
  EXPECT_EQ(without_index->result_tuples, 20u);

  // The §5.1 observation: because the whole (unordered) index is scanned,
  // the indexed plan is NOT much faster than the file scan — the same
  // number of comparisons happens either way.
  EXPECT_GT(with_index->seconds(), without_index->seconds() * 0.5);
  EXPECT_LT(with_index->seconds(), without_index->seconds() * 1.5);
}

TEST_F(TeradataMachineTest, ResultStoreNeverShortCircuits) {
  TdSelectQuery query;
  query.relation = "A";
  query.predicate = Predicate::Range(wis::kUnique1, 0, 199);
  const auto result = machine_.RunSelect(query);
  ASSERT_TRUE(result.ok());
  // §4: result tuples keep the same primary key, so they would stay on
  // their own AMP — yet every packet pays the network path.
  EXPECT_EQ(result->metrics.Totals().packets_short_circuited, 0u);
  EXPECT_GT(result->metrics.Totals().packets_sent, 0u);
}

TEST_F(TeradataMachineTest, InsertRecoveryCostDominatesSelectionWithStore) {
  TdSelectQuery stored;
  stored.relation = "A";
  stored.predicate = Predicate::Range(wis::kUnique1, 0, 199);  // 10%
  const auto with_store = machine_.RunSelect(stored);
  TdSelectQuery returned = stored;
  returned.store_result = false;
  const auto to_host = machine_.RunSelect(returned);
  ASSERT_TRUE(with_store.ok());
  ASSERT_TRUE(to_host.ok());
  // §4 / [DEWI87]: storing results through the logging insert path costs
  // several times more than returning them.
  EXPECT_GT(with_store->seconds(), to_host->seconds() * 2);
}

TEST_F(TeradataMachineTest, SortMergeJoinCorrect) {
  const auto bprime = wis::GenerateWisconsin(200, 8);
  ASSERT_TRUE(machine_
                  .CreateRelation("Bprime", wis::WisconsinSchema(),
                                  wis::kUnique1)
                  .ok());
  ASSERT_TRUE(machine_.LoadTuples("Bprime", bprime).ok());

  TdJoinQuery query;
  query.outer = "A";
  query.inner = "Bprime";
  query.outer_attr = wis::kUnique2;
  query.inner_attr = wis::kUnique2;
  const auto result = machine_.RunJoin(query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->result_tuples,
            ReferenceJoinCount(bprime, wis::WisconsinSchema(), wis::kUnique2,
                               tuples_, wis::WisconsinSchema(),
                               wis::kUnique2));
}

// Simulated seconds of a 2k x 1k non-key join (redistribute, external sort
// over several runs per AMP, merge), stored and returned, pinned at %.17g:
// running the sort step as per-AMP host tasks, flushing the pools inline
// and recycling the spool and run pages must not move the 1988 clock by a
// bit.
TEST(TeradataGoldenTest, NonKeyJoinSecondsArePinned) {
  std::string seconds[2];
  for (const bool store : {false, true}) {
    TeradataConfig config = SmallConfig();
    config.sort_memory_bytes = 16 << 10;
    TeradataMachine machine(config);
    ASSERT_TRUE(
        machine.CreateRelation("A", wis::WisconsinSchema(), wis::kUnique1)
            .ok());
    ASSERT_TRUE(machine.LoadTuples("A", wis::GenerateWisconsin(2000, 7)).ok());
    ASSERT_TRUE(
        machine.CreateRelation("B", wis::WisconsinSchema(), wis::kUnique1)
            .ok());
    ASSERT_TRUE(machine.LoadTuples("B", wis::GenerateWisconsin(1000, 8)).ok());
    TdJoinQuery query;
    query.outer = "A";
    query.inner = "B";
    query.outer_attr = wis::kUnique2;
    query.inner_attr = wis::kUnique2;
    query.store_result = store;
    const auto result = machine.RunJoin(query);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->result_tuples, 1000u);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", result->metrics.TotalSec());
    seconds[store ? 1 : 0] = buf;
  }
  EXPECT_EQ(seconds[0], "29.972577233538765");
  EXPECT_EQ(seconds[1], "70.02183501131536");
}

// Simulated seconds of every other Teradata statement shape, pinned at
// %.17g: selects (point, scan and dense index; stored and returned), joins
// (key join stored, non-key join into an intermediate) and Table 3's
// updates. Each runs on a fresh 2k-tuple machine. The write shapes pin
// each path's charge order down to the last bit: delete logs before its
// data-page write, modify and relocation write the page before logging.
TEST(TeradataGoldenTest, StatementSecondsArePinned) {
  struct Shape {
    const char* name;
    /// Builds a secondary index on unique2 before the statement.
    bool index;
    std::function<Result<exec::QueryResult>(TeradataMachine&)> run;
    uint64_t tuples;
    const char* seconds;
  };
  const auto select = [](Predicate pred, bool store) {
    return [pred, store](TeradataMachine& m) {
      TdSelectQuery query;
      query.relation = "A";
      query.predicate = pred;
      query.store_result = store;
      return m.RunSelect(query);
    };
  };
  const auto join = [](int attr, bool temp) {
    return [attr, temp](TeradataMachine& m) {
      TdJoinQuery query;
      query.outer = "A";
      query.inner = "B";
      query.outer_attr = attr;
      query.inner_attr = attr;
      query.result_is_temp = temp;
      return m.RunJoin(query);
    };
  };
  const auto append = [](TeradataMachine& m) {
    catalog::TupleBuilder builder(&wis::WisconsinSchema());
    builder.SetInt(wis::kUnique1, 9999).SetInt(wis::kUnique2, 9999);
    return m.RunAppend(
        {"A", {builder.bytes().begin(), builder.bytes().end()}});
  };
  const auto modify = [](int locate, int target, int32_t value) {
    return [=](TeradataMachine& m) {
      return m.RunModify({"A", locate, 55, target, value});
    };
  };
  const auto del = [](int attr) {
    return [attr](TeradataMachine& m) { return m.RunDelete({"A", attr, 55}); };
  };
  const std::vector<Shape> shapes = {
      {"select_point_stored", false,
       select(Predicate::Eq(wis::kUnique1, 1234), true), 1,
       "1.0310448888888888"},
      {"select_point_returned", false,
       select(Predicate::Eq(wis::kUnique1, 1234), false), 1,
       "0.84018355555555557"},
      {"select_scan_stored", false,
       select(Predicate::Range(wis::kUnique2, 100, 299), true), 200,
       "13.000408444444496"},
      {"select_scan_returned", false,
       select(Predicate::Range(wis::kUnique2, 100, 299), false), 200,
       "3.0968742222222287"},
      {"select_index_stored", true,
       select(Predicate::Range(wis::kUnique2, 0, 19), true), 20,
       "5.2821426666666671"},
      {"select_index_returned", true,
       select(Predicate::Range(wis::kUnique2, 0, 19), false), 20,
       "2.8985524444444457"},
      {"join_key_stored", false, join(wis::kUnique1, false), 1000,
       "45.992357777776782"},
      {"join_temp", false, join(wis::kUnique2, true), 1000,
       "32.941471961609352"},
      {"append", false, append, 1, "1.011136888888889"},
      {"append_indexed", true, append, 1, "1.0316880000000002"},
      {"delete_pk", false, del(wis::kUnique1), 1, "0.95540222222222226"},
      {"delete_indexed", true, del(wis::kUnique2), 1, "0.97917777777777781"},
      {"modify_in_place", false,
       modify(wis::kUnique1, wis::kOddOnePercent, 999), 1,
       "0.95540222222222226"},
      {"modify_in_place_indexed", true,
       modify(wis::kUnique1, wis::kUnique2, 70001), 1, "1.007228888888889"},
      {"modify_locate_by_index", true,
       modify(wis::kUnique2, wis::kOddOnePercent, 999), 1,
       "0.9479022222222222"},
      {"modify_locate_by_scan", false,
       modify(wis::kUnique2, wis::kOddOnePercent, 999), 1,
       "2.020313333333327"},
      {"modify_relocate", true, modify(wis::kUnique1, wis::kUnique1, 70001), 1,
       "2.105"},
  };
  for (const Shape& shape : shapes) {
    TeradataMachine machine(SmallConfig());
    ASSERT_TRUE(
        machine.CreateRelation("A", wis::WisconsinSchema(), wis::kUnique1)
            .ok());
    ASSERT_TRUE(machine.LoadTuples("A", wis::GenerateWisconsin(2000, 7)).ok());
    ASSERT_TRUE(
        machine.CreateRelation("B", wis::WisconsinSchema(), wis::kUnique1)
            .ok());
    ASSERT_TRUE(machine.LoadTuples("B", wis::GenerateWisconsin(1000, 8)).ok());
    if (shape.index) {
      ASSERT_TRUE(machine.BuildSecondaryIndex("A", wis::kUnique2).ok());
    }
    const auto result = shape.run(machine);
    ASSERT_TRUE(result.ok()) << shape.name << ": "
                             << result.status().ToString();
    EXPECT_EQ(result->result_tuples, shape.tuples) << shape.name;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", result->metrics.TotalSec());
    EXPECT_EQ(std::string(buf), shape.seconds) << shape.name;
  }
}

TEST_F(TeradataMachineTest, JoinOverRottedPageFailsAndCleansUp) {
  const auto bprime = wis::GenerateWisconsin(200, 8);
  ASSERT_TRUE(machine_
                  .CreateRelation("Bprime", wis::WisconsinSchema(),
                                  wis::kUnique1)
                  .ok());
  ASSERT_TRUE(machine_.LoadTuples("Bprime", bprime).ok());
  // A's first page on AMP 2 was evicted from the 16-frame pool during the
  // load; rot it on disk.
  machine_.amp(2).disk().CorruptStoredPage(0);

  for (const bool key_join : {false, true}) {
    TdJoinQuery query;
    query.outer = "A";
    query.inner = "Bprime";
    query.outer_attr = key_join ? wis::kUnique1 : wis::kUnique2;
    query.inner_attr = key_join ? wis::kUnique1 : wis::kUnique2;
    query.result_name = key_join ? "J_key" : "J";
    const auto result = machine_.RunJoin(query);
    ASSERT_FALSE(result.ok()) << "key join " << key_join;
    EXPECT_TRUE(result.status().IsCorruption()) << result.status().ToString();
    // The partial result relation is gone.
    EXPECT_FALSE(machine_.CountTuples(query.result_name).ok());
  }
  // The machine stays usable: a join that does not touch A still runs.
  TdJoinQuery self_join;
  self_join.outer = "Bprime";
  self_join.inner = "Bprime";
  self_join.outer_attr = wis::kUnique2;
  self_join.inner_attr = wis::kUnique2;
  const auto ok = machine_.RunJoin(self_join);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->result_tuples, 200u);
}

TEST_F(TeradataMachineTest, SelectOverRottedPageFails) {
  ASSERT_TRUE(machine_.BuildSecondaryIndex("A", wis::kUnique2).ok());
  const auto bprime = wis::GenerateWisconsin(200, 8);
  ASSERT_TRUE(machine_
                  .CreateRelation("Bprime", wis::WisconsinSchema(),
                                  wis::kUnique1)
                  .ok());
  ASSERT_TRUE(machine_.LoadTuples("Bprime", bprime).ok());
  // Disk page 0 of AMP 2 is A's first page there. Read the keys of one of
  // its tuples for the index and point paths, drop the page from the
  // pool, then rot it on disk.
  storage::StorageManager& amp2 = machine_.amp(2);
  const catalog::RelationMeta* a = *machine_.catalog().Get("A");
  int32_t pk_on_page0 = -1;
  int32_t key_on_page0 = -1;
  ASSERT_TRUE(amp2.file(a->per_node_file[2])
                  .ScanPages(0, 0,
                             [&](storage::Rid, std::span<const uint8_t> t) {
                               const catalog::TupleView view(
                                   &wis::WisconsinSchema(), t);
                               pk_on_page0 = view.GetInt(wis::kUnique1);
                               key_on_page0 = view.GetInt(wis::kUnique2);
                               return false;
                             })
                  .ok());
  ASSERT_GE(key_on_page0, 0);
  ASSERT_TRUE(amp2.pool().Invalidate().ok());
  amp2.disk().CorruptStoredPage(0);

  struct Case {
    const char* name;
    Predicate predicate;
    bool store;
  };
  const Case cases[] = {
      {"scan_store", Predicate::Range(wis::kUnique1, 0, 1999), true},
      {"scan_host", Predicate::Range(wis::kUnique1, 0, 1999), false},
      {"index", Predicate::Eq(wis::kUnique2, key_on_page0), true},
      {"point", Predicate::Eq(wis::kUnique1, pk_on_page0), false},
  };
  for (const Case& c : cases) {
    TdSelectQuery query;
    query.relation = "A";
    query.predicate = c.predicate;
    query.store_result = c.store;
    query.result_name = std::string("R_") + c.name;
    const auto result = machine_.RunSelect(query);
    ASSERT_FALSE(result.ok()) << c.name;
    EXPECT_TRUE(result.status().IsCorruption())
        << c.name << ": " << result.status().ToString();
    EXPECT_FALSE(machine_.CountTuples(query.result_name).ok()) << c.name;
  }
  // The machine stays usable: a select that does not touch A still runs.
  TdSelectQuery other;
  other.relation = "Bprime";
  other.predicate = Predicate::Range(wis::kUnique1, 0, 199);
  const auto ok = machine_.RunSelect(other);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->result_tuples, 200u);
  EXPECT_EQ(*machine_.CountTuples(ok->result_relation), 200u);
}

TEST_F(TeradataMachineTest, KeyAttributeJoinSkipsRedistribution) {
  const auto bprime = wis::GenerateWisconsin(200, 8);
  ASSERT_TRUE(machine_
                  .CreateRelation("Bprime", wis::WisconsinSchema(),
                                  wis::kUnique1)
                  .ok());
  ASSERT_TRUE(machine_.LoadTuples("Bprime", bprime).ok());

  TdJoinQuery non_key;
  non_key.outer = "A";
  non_key.inner = "Bprime";
  non_key.outer_attr = wis::kUnique2;
  non_key.inner_attr = wis::kUnique2;
  non_key.store_result = false;
  const auto slow = machine_.RunJoin(non_key);

  TdJoinQuery on_key = non_key;
  on_key.outer_attr = wis::kUnique1;
  on_key.inner_attr = wis::kUnique1;
  const auto fast = machine_.RunJoin(on_key);
  ASSERT_TRUE(slow.ok());
  ASSERT_TRUE(fast.ok());
  EXPECT_EQ(fast->result_tuples, 200u);
  // §6.1: joining on the key means tuples already live at their join AMP;
  // the redistribution traffic short-circuits and the join runs faster.
  EXPECT_GT(slow->metrics.Totals().bytes_sent,
            fast->metrics.Totals().bytes_sent * 4);
  EXPECT_LT(fast->seconds(), slow->seconds());
}

TEST_F(TeradataMachineTest, AppendDeleteModifyRoundTrip) {
  ASSERT_TRUE(machine_.BuildSecondaryIndex("A", wis::kUnique2).ok());

  catalog::TupleBuilder builder(&wis::WisconsinSchema());
  builder.SetInt(wis::kUnique1, 9999).SetInt(wis::kUnique2, 9999);
  TdAppendQuery append;
  append.relation = "A";
  append.tuple.assign(builder.bytes().begin(), builder.bytes().end());
  ASSERT_TRUE(machine_.RunAppend(append).ok());
  EXPECT_EQ(*machine_.CountTuples("A"), 2001u);

  TdModifyQuery modify;
  modify.relation = "A";
  modify.locate_attr = wis::kUnique1;
  modify.locate_key = 9999;
  modify.target_attr = wis::kUnique2;
  modify.new_value = 8888;
  const auto modified = machine_.RunModify(modify);
  ASSERT_TRUE(modified.ok());
  EXPECT_EQ(modified->result_tuples, 1u);

  // Locate through the secondary index at its new value.
  TdSelectQuery select;
  select.relation = "A";
  select.predicate = Predicate::Eq(wis::kUnique2, 8888);
  select.store_result = false;
  EXPECT_EQ(machine_.RunSelect(select)->result_tuples, 1u);

  TdDeleteQuery del;
  del.relation = "A";
  del.key_attr = wis::kUnique1;
  del.key = 9999;
  const auto deleted = machine_.RunDelete(del);
  ASSERT_TRUE(deleted.ok());
  EXPECT_EQ(deleted->result_tuples, 1u);
  EXPECT_EQ(*machine_.CountTuples("A"), 2000u);
}

// A delete by an attribute with no index on it falls back to a scan, the
// same locate step modify uses: it removes exactly the matching tuple.
TEST_F(TeradataMachineTest, DeleteOnNonIndexedAttributeScans) {
  const int32_t key = IntOf(tuples_[17], wis::kUnique2);
  const auto deleted = machine_.RunDelete({"A", wis::kUnique2, key});
  ASSERT_TRUE(deleted.ok()) << deleted.status().ToString();
  EXPECT_EQ(deleted->result_tuples, 1u);
  EXPECT_EQ(*machine_.CountTuples("A"), 1999u);
  EXPECT_EQ((*machine_.catalog().Get("A"))->num_tuples, 1999u);
  // The tuple is gone from the key directory too.
  TdSelectQuery point;
  point.relation = "A";
  point.predicate =
      Predicate::Eq(wis::kUnique1, IntOf(tuples_[17], wis::kUnique1));
  point.store_result = false;
  const auto found = machine_.RunSelect(point);
  ASSERT_TRUE(found.ok()) << found.status().ToString();
  EXPECT_EQ(found->result_tuples, 0u);
}

// Dense index entry files are append-only: a modify or delete leaves the
// old entry behind. The index path fetches each rid once, skips a dead
// slot and re-checks the predicate, so stale entries never reach the
// answer.
TEST_F(TeradataMachineTest, IndexSelectIgnoresStaleEntries) {
  ASSERT_TRUE(machine_.BuildSecondaryIndex("A", wis::kUnique2).ok());
  const auto count = [&](int32_t lo, int32_t hi) -> uint64_t {
    TdSelectQuery select;
    select.relation = "A";
    select.predicate = Predicate::Range(wis::kUnique2, lo, hi);
    select.store_result = false;
    const auto result = machine_.RunSelect(select);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? result->result_tuples : 0;
  };
  const auto modify = [&](int32_t from, int32_t to) {
    const auto result =
        machine_.RunModify({"A", wis::kUnique2, from, wis::kUnique2, to});
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->result_tuples, 1u);
  };
  // 100 of 2000 tuples: 5% selectivity, the index path.
  modify(150, 90000);
  EXPECT_EQ(count(100, 199), 99u);  // entry 150 now names a tuple outside
  modify(90000, 160);
  EXPECT_EQ(count(100, 199), 100u);  // entries 150 and 160 name one rid
  const auto deleted = machine_.RunDelete({"A", wis::kUnique2, 120});
  ASSERT_TRUE(deleted.ok()) << deleted.status().ToString();
  EXPECT_EQ(deleted->result_tuples, 1u);
  EXPECT_EQ(count(100, 149), 49u);  // entry 120 names a dead slot
}

TEST_F(TeradataMachineTest, ModifyPrimaryKeyRelocates) {
  TdModifyQuery modify;
  modify.relation = "A";
  modify.locate_attr = wis::kUnique1;
  modify.locate_key = 55;
  modify.target_attr = wis::kUnique1;
  modify.new_value = 70001;
  const auto result = machine_.RunModify(modify);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->result_tuples, 1u);
  EXPECT_EQ(*machine_.CountTuples("A"), 2000u);

  TdSelectQuery select;
  select.relation = "A";
  select.predicate = Predicate::Eq(wis::kUnique1, 70001);
  select.store_result = false;
  EXPECT_EQ(machine_.RunSelect(select)->result_tuples, 1u);
  select.predicate = Predicate::Eq(wis::kUnique1, 55);
  EXPECT_EQ(machine_.RunSelect(select)->result_tuples, 0u);
}

TEST_F(TeradataMachineTest, SecondaryIndexOverRottedPageFails) {
  // The next file id on every AMP: a failed build must leave no partial
  // entry file behind under it.
  std::vector<storage::FileId> next_file;
  for (int amp = 0; amp < SmallConfig().num_amps; ++amp) {
    const storage::FileId probe = machine_.amp(amp).CreateFile();
    machine_.amp(amp).DropFile(probe);
    next_file.push_back(probe + 1);
  }
  // The load settled AMP 2's pool, so its first fragment page is read back
  // from disk by the index build's scan.
  machine_.amp(2).disk().CorruptStoredPage(0);

  const Status status = machine_.BuildSecondaryIndex("A", wis::kUnique2);
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  EXPECT_TRUE((*machine_.catalog().Get("A"))->indices.empty());
  for (int amp = 0; amp < SmallConfig().num_amps; ++amp) {
    EXPECT_FALSE(machine_.amp(amp).HasFile(next_file[static_cast<size_t>(amp)]))
        << "amp " << amp;
  }
  // Reading the relation back hits the same page and says so.
  const auto rows = machine_.ReadRelation("A");
  ASSERT_FALSE(rows.ok());
  EXPECT_TRUE(rows.status().IsCorruption()) << rows.status().ToString();

  // The machine stays usable: a healthy relation still gets its index.
  const auto bprime = wis::GenerateWisconsin(300, 8);
  ASSERT_TRUE(machine_
                  .CreateRelation("Bprime", wis::WisconsinSchema(),
                                  wis::kUnique1)
                  .ok());
  ASSERT_TRUE(machine_.LoadTuples("Bprime", bprime).ok());
  ASSERT_TRUE(machine_.BuildSecondaryIndex("Bprime", wis::kUnique2).ok());
  TdSelectQuery query;
  query.relation = "Bprime";
  query.predicate = Predicate::Range(wis::kUnique2, 10, 12);
  query.store_result = false;
  const auto result = machine_.RunSelect(query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->result_tuples, 3u);
}

TEST_F(TeradataMachineTest, LoadAppendFailureRollsBackTheBatch) {
  // Rot the tail page of AMP 2's fragment: the next batch's first append
  // there must read it back, and fails.
  storage::SimulatedDisk& disk = machine_.amp(2).disk();
  disk.CorruptStoredPage(disk.num_pages() - 1);

  std::vector<std::vector<uint8_t>> batch;
  for (int i = 0; i < 500; ++i) {
    batch.push_back(WithInt(tuples_[static_cast<size_t>(i)], wis::kUnique1,
                            100000 + i));
  }
  const Status status = machine_.LoadTuples("A", batch);
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();

  // All or nothing: the AMPs that took their share tombstoned it again, and
  // no key of the batch is reachable through the key directory.
  EXPECT_EQ(*machine_.CountTuples("A"), 2000u);
  TdSelectQuery point;
  point.relation = "A";
  point.store_result = false;
  for (int i = 0; i < 500; ++i) {
    point.predicate = Predicate::Eq(wis::kUnique1, 100000 + i);
    const auto result = machine_.RunSelect(point);
    ASSERT_TRUE(result.ok()) << i << ": " << result.status().ToString();
    EXPECT_EQ(result->result_tuples, 0u) << i;
  }
  // Batch-1 keys on the healthy AMPs are still one access away.
  const uint64_t salt = (*machine_.catalog().Get("A"))->partitioning.hash_salt;
  for (int32_t key = 0; key < 50; ++key) {
    if (HashInt32(key, salt) % 5 == 2) continue;
    point.predicate = Predicate::Eq(wis::kUnique1, key);
    const auto found = machine_.RunSelect(point);
    ASSERT_TRUE(found.ok()) << key << ": " << found.status().ToString();
    EXPECT_EQ(found->result_tuples, 1u) << key;
  }
}

// --- Update paths over a rotted page: each returns Corruption and leaves
// the machine usable. ---

class TeradataRottedUpdateTest : public TeradataMachineTest {
 protected:
  /// Primary key of the first tuple on AMP 2's first fragment page, which
  /// is then dropped from the pool and rotted on disk.
  int32_t RotFirstPageOfAmp2() {
    storage::StorageManager& amp2 = machine_.amp(2);
    const catalog::RelationMeta* a = *machine_.catalog().Get("A");
    int32_t pk = -1;
    EXPECT_TRUE(amp2.file(a->per_node_file[2])
                    .ScanPages(0, 0,
                               [&](storage::Rid, std::span<const uint8_t> t) {
                                 pk = IntOf({t.begin(), t.end()},
                                            wis::kUnique1);
                                 return false;
                               })
                    .ok());
    EXPECT_TRUE(amp2.pool().Invalidate().ok());
    amp2.disk().CorruptStoredPage(0);
    return pk;
  }

  /// Rots the tail page of AMP 2's fragment, where its next append lands.
  void RotTailPageOfAmp2() {
    EXPECT_TRUE(machine_.amp(2).pool().Invalidate().ok());
    storage::SimulatedDisk& disk = machine_.amp(2).disk();
    disk.CorruptStoredPage(disk.num_pages() - 1);
  }

  /// The first key at or past `from` whose home is AMP `amp`.
  int32_t KeyOnAmp(int amp, int32_t from) {
    const uint64_t salt =
        (*machine_.catalog().Get("A"))->partitioning.hash_salt;
    int32_t key = from;
    while (static_cast<int>(HashInt32(key, salt) % 5) != amp) ++key;
    return key;
  }

  /// Asserts `result` failed with Corruption and a healthy append still
  /// runs.
  void ExpectCorruptionThenUsable(const Result<exec::QueryResult>& result) {
    ASSERT_FALSE(result.ok());
    EXPECT_TRUE(result.status().IsCorruption()) << result.status().ToString();
    const auto ok = machine_.RunAppend(
        {"A", WithInt(tuples_[0], wis::kUnique1, KeyOnAmp(0, 200000))});
    ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  }
};

TEST_F(TeradataRottedUpdateTest, AppendReturnsCorruption) {
  RotTailPageOfAmp2();
  ExpectCorruptionThenUsable(machine_.RunAppend(
      {"A", WithInt(tuples_[0], wis::kUnique1, KeyOnAmp(2, 100000))}));
  EXPECT_EQ(*machine_.CountTuples("A"), 2001u);
}

TEST_F(TeradataRottedUpdateTest, DeleteReturnsCorruption) {
  const int32_t pk = RotFirstPageOfAmp2();
  ExpectCorruptionThenUsable(
      machine_.RunDelete({"A", wis::kUnique1, pk}));
}

TEST_F(TeradataRottedUpdateTest, InPlaceModifyReturnsCorruption) {
  const int32_t pk = RotFirstPageOfAmp2();
  ExpectCorruptionThenUsable(machine_.RunModify(
      {"A", wis::kUnique1, pk, wis::kOddOnePercent, 999}));
}

TEST_F(TeradataRottedUpdateTest, KeyModifyReturnsCorruptionAndKeepsTuple) {
  // The tuple leaves a healthy AMP for AMP 2, whose tail page is rotted.
  RotTailPageOfAmp2();
  const int32_t key = KeyOnAmp(0, 0);
  ExpectCorruptionThenUsable(machine_.RunModify(
      {"A", wis::kUnique1, key, wis::kUnique1, KeyOnAmp(2, 100000)}));
  // The failed relocation put the tuple back at its old home.
  TdSelectQuery point;
  point.relation = "A";
  point.predicate = Predicate::Eq(wis::kUnique1, key);
  point.store_result = false;
  const auto found = machine_.RunSelect(point);
  ASSERT_TRUE(found.ok()) << found.status().ToString();
  EXPECT_EQ(found->result_tuples, 1u);
  EXPECT_EQ(*machine_.CountTuples("A"), 2001u);
}

// Two batches with duplicate primary keys, loaded at 1 and at 4 host
// threads: the stored hash-key order and every key-directory lookup are
// identical, and each AMP's fragment holds its share of batch 1 stably
// sorted by placement hash, followed by its share of batch 2.
TEST(TeradataLoadTest, HashOrderAndKeyDirectoryIdenticalAcrossThreadCounts) {
  const auto base = wis::GenerateWisconsin(2100, 11);
  std::vector<std::vector<uint8_t>> batch1;
  std::vector<std::vector<uint8_t>> batch2;
  for (int i = 0; i < 1500; ++i) {  // keys 0..499, three copies each
    batch1.push_back(WithInt(base[static_cast<size_t>(i)], wis::kUnique1,
                             i % 500));
  }
  for (int i = 0; i < 600; ++i) {  // keys 300..899: half old, half new
    batch2.push_back(WithInt(base[static_cast<size_t>(1500 + i)],
                             wis::kUnique1, 300 + i));
  }
  constexpr int kKeys = 900;

  struct Run {
    uint64_t salt = 0;
    std::vector<std::vector<uint8_t>> rows;
    std::vector<std::vector<std::vector<uint8_t>>> lookups;
    std::vector<double> lookup_seconds;
  };
  const auto run = [&](int threads) {
    sim::HostPool& pool = sim::HostPool::Instance();
    const int prev = pool.num_threads();
    pool.set_num_threads(threads);
    Run out;
    TeradataMachine machine(SmallConfig());
    EXPECT_TRUE(machine
                    .CreateRelation("A", wis::WisconsinSchema(),
                                    wis::kUnique1)
                    .ok());
    EXPECT_TRUE(machine.LoadTuples("A", batch1).ok());
    EXPECT_TRUE(machine.LoadTuples("A", batch2).ok());
    out.salt = (*machine.catalog().Get("A"))->partitioning.hash_salt;
    out.rows = *machine.ReadRelation("A");
    TdSelectQuery point;
    point.relation = "A";
    point.store_result = false;
    for (int key = 0; key < kKeys; ++key) {
      point.predicate = Predicate::Eq(wis::kUnique1, key);
      const auto result = machine.RunSelect(point);
      EXPECT_TRUE(result.ok());
      out.lookups.push_back(result->returned);
      out.lookup_seconds.push_back(result->seconds());
    }
    pool.set_num_threads(prev);
    return out;
  };
  const Run one = run(1);
  const Run four = run(kManyThreadsForLoad);
  EXPECT_EQ(one.rows, four.rows);
  EXPECT_EQ(one.lookups, four.lookups);
  EXPECT_EQ(one.lookup_seconds, four.lookup_seconds);

  const int num_amps = SmallConfig().num_amps;
  const auto hash_of = [&](const std::vector<uint8_t>& t) {
    return HashInt32(IntOf(t, wis::kUnique1), one.salt);
  };
  std::vector<std::vector<uint8_t>> expected;
  for (int amp = 0; amp < num_amps; ++amp) {
    for (const auto* batch : {&batch1, &batch2}) {
      std::vector<std::vector<uint8_t>> share;
      for (const auto& t : *batch) {
        if (hash_of(t) % static_cast<uint64_t>(num_amps) ==
            static_cast<uint64_t>(amp)) {
          share.push_back(t);
        }
      }
      std::stable_sort(share.begin(), share.end(),
                       [&](const auto& a, const auto& b) {
                         return hash_of(a) < hash_of(b);
                       });
      expected.insert(expected.end(), share.begin(), share.end());
    }
  }
  EXPECT_EQ(one.rows, expected);

  // Every lookup finds exactly the copies of its key.
  std::vector<std::multiset<int32_t>> copies(kKeys);
  for (const auto* batch : {&batch1, &batch2}) {
    for (const auto& t : *batch) {
      copies[static_cast<size_t>(IntOf(t, wis::kUnique1))].insert(
          IntOf(t, wis::kUnique2));
    }
  }
  for (int key = 0; key < kKeys; ++key) {
    std::multiset<int32_t> found;
    for (const auto& t : one.lookups[static_cast<size_t>(key)]) {
      found.insert(IntOf(t, wis::kUnique2));
    }
    EXPECT_EQ(found, copies[static_cast<size_t>(key)]) << "key " << key;
  }
}

}  // namespace
}  // namespace gammadb::teradata
