// Tests for the recovery server extension (§8 future work): log-record
// accounting, the cost it adds, and that answers never change.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "gamma/machine.h"
#include "gamma/recovery_log.h"
#include "test_util.h"
#include "wisconsin/wisconsin.h"

namespace gammadb::gamma {
namespace {

namespace wis = gammadb::wisconsin;
using exec::Predicate;

TEST(RecoveryLogUnit, PacketAndPageAccounting) {
  sim::CostTracker tracker(sim::MachineParams::GammaDefaults(), 4);
  tracker.BeginPhase("p", sim::PhaseKind::kPipelined);
  WalStore wal(4);
  RecoveryLog log(&tracker, /*recovery_node=*/3, /*page_size=*/4096, wal);
  // 100 records of 208-byte images = 24 KB of log: expect ~11 packets and
  // ~6 log pages (5 full + 1 forced tail).
  for (int i = 0; i < 100; ++i) log.Append(0, 208);
  log.Commit(0);
  tracker.EndPhase();
  const auto metrics = tracker.Finish();
  EXPECT_EQ(log.stats().records, 100u);
  EXPECT_EQ(log.stats().bytes, 100u * (208 + RecoveryLog::kRecordHeaderBytes));
  EXPECT_GE(log.stats().log_pages_written, 5u);
  const auto totals = metrics.Totals();
  EXPECT_GE(totals.packets_sent, 11u);
  EXPECT_EQ(totals.pages_written, log.stats().log_pages_written);
  // All log pages were written at the recovery node, sequentially.
  EXPECT_EQ(totals.seq_page_ios, log.stats().log_pages_written);
  EXPECT_GT(metrics.phases[0].per_node[3].disk_sec, 0.0);
}

// Logging off is a null tracker: nothing is charged or counted, but the
// record and the commit marker are kept, since every abort undoes through
// the WalStore.
TEST(RecoveryLogUnit, NullTrackerIsUncharged) {
  WalStore wal(4);
  RecoveryLog log(nullptr, 0, 4096, wal);
  const std::vector<uint8_t> image(100, 7);
  for (int i = 0; i < 10; ++i) log.Append(0, 100);
  WalRecord header;
  header.txn = 1;
  header.kind = WalKind::kInsert;
  log.Log(0, std::move(header), {}, image);
  log.LogCommit(0, 1);
  log.ChargeCheckpoint(0);
  log.Commit(0);
  const RecoveryLog::Stats stats = log.stats();
  EXPECT_EQ(stats.records, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(stats.log_pages_written, 0u);
  EXPECT_EQ(stats.forced_flushes, 0u);
  ASSERT_EQ(wal.records().size(), 2u);
  EXPECT_EQ(wal.records()[0].kind, WalKind::kInsert);
  EXPECT_EQ(wal.records()[0].after, image);
  EXPECT_EQ(wal.records()[1].kind, WalKind::kCommit);
  EXPECT_TRUE(wal.IsCommitted(1));
}

class RecoveryLogMachine : public ::testing::Test {
 protected:
  static std::unique_ptr<GammaMachine> MakeMachine(bool logging) {
    GammaConfig config;
    config.num_disk_nodes = 4;
    config.num_diskless_nodes = 4;
    config.enable_logging = logging;
    auto machine = std::make_unique<GammaMachine>(config);
    const auto tuples = wis::GenerateWisconsin(2000, 9);
    GAMMA_CHECK(machine
                    ->CreateRelation("A", wis::WisconsinSchema(),
                                     catalog::PartitionSpec::Hashed(
                                         wis::kUnique1))
                    .ok());
    GAMMA_CHECK(machine->LoadTuples("A", tuples).ok());
    GAMMA_CHECK(machine->BuildIndex("A", wis::kUnique1, true).ok());
    return machine;
  }
};

TEST_F(RecoveryLogMachine, SelectionWithStoreCostsMoreAndAnswersMatch) {
  auto plain_ptr = MakeMachine(false);
  auto logged_ptr = MakeMachine(true);
  GammaMachine& plain = *plain_ptr;
  GammaMachine& logged = *logged_ptr;
  SelectQuery query;
  query.relation = "A";
  query.predicate = Predicate::Range(wis::kUnique1, 0, 199);  // 10%
  const auto without = plain.RunSelect(query);
  const auto with = logged.RunSelect(query);
  ASSERT_TRUE(without.ok());
  ASSERT_TRUE(with.ok());
  EXPECT_EQ(without->result_tuples, 200u);
  EXPECT_EQ(with->result_tuples, 200u);
  EXPECT_GT(with->seconds(), without->seconds());
}

TEST_F(RecoveryLogMachine, HostBoundSelectionUnaffected) {
  auto plain_ptr = MakeMachine(false);
  auto logged_ptr = MakeMachine(true);
  GammaMachine& plain = *plain_ptr;
  GammaMachine& logged = *logged_ptr;
  SelectQuery query;
  query.relation = "A";
  query.predicate = Predicate::Range(wis::kUnique1, 0, 199);
  query.store_result = false;  // nothing stored -> nothing logged
  const auto without = plain.RunSelect(query);
  const auto with = logged.RunSelect(query);
  EXPECT_NEAR(with->seconds(), without->seconds(), 1e-9);
}

TEST_F(RecoveryLogMachine, UpdatesPayLoggingOverhead) {
  auto plain_ptr = MakeMachine(false);
  auto logged_ptr = MakeMachine(true);
  GammaMachine& plain = *plain_ptr;
  GammaMachine& logged = *logged_ptr;
  catalog::TupleBuilder builder(&wis::WisconsinSchema());
  builder.SetInt(wis::kUnique1, 5000).SetInt(wis::kUnique2, 5000);
  AppendQuery append{"A", {builder.bytes().begin(), builder.bytes().end()}};
  const double without = plain.RunAppend(append)->seconds();
  const double with = logged.RunAppend(append)->seconds();
  EXPECT_GT(with, without + 0.01);  // log force + ack round trip
  EXPECT_EQ(*plain.CountTuples("A"), 2001u);
  EXPECT_EQ(*logged.CountTuples("A"), 2001u);

  ModifyQuery modify{"A", wis::kUnique1, 77, wis::kTen, 3};
  EXPECT_GT(logged.RunModify(modify)->seconds(),
            plain.RunModify(modify)->seconds());
}

TEST_F(RecoveryLogMachine, LogAccountingLandsInQueryMetrics) {
  auto plain_ptr = MakeMachine(false);
  auto logged_ptr = MakeMachine(true);
  catalog::TupleBuilder builder(&wis::WisconsinSchema());
  builder.SetInt(wis::kUnique1, 6000).SetInt(wis::kUnique2, 6000);
  AppendQuery append{"A", {builder.bytes().begin(), builder.bytes().end()}};

  const auto logged = logged_ptr->RunAppend(append);
  ASSERT_TRUE(logged.ok());
  EXPECT_EQ(logged->metrics.log_records, 1u);
  EXPECT_GE(logged->metrics.log_forced_flushes, 1u);  // commit forces the tail

  const auto plain = plain_ptr->RunAppend(append);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->metrics.log_records, 0u);
  EXPECT_EQ(plain->metrics.log_forced_flushes, 0u);

  // A stored selection logs one record per stored tuple.
  SelectQuery query;
  query.relation = "A";
  query.predicate = Predicate::Range(wis::kUnique1, 0, 99);
  const auto select = logged_ptr->RunSelect(query);
  ASSERT_TRUE(select.ok());
  EXPECT_EQ(select->metrics.log_records, select->result_tuples);
  EXPECT_GE(select->metrics.log_forced_flushes, 1u);

  // With logging off, stores log nothing either.
  const auto plain_select = plain_ptr->RunSelect(query);
  ASSERT_TRUE(plain_select.ok());
  EXPECT_EQ(plain_select->result_tuples, 100u);
  EXPECT_EQ(plain_select->metrics.log_records, 0u);
  EXPECT_EQ(plain_select->metrics.log_forced_flushes, 0u);
  JoinQuery join;
  join.outer = "A";
  join.inner = "A";
  join.outer_attr = wis::kUnique1;
  join.inner_attr = wis::kUnique1;
  const auto plain_join = plain_ptr->RunJoin(join);
  ASSERT_TRUE(plain_join.ok());
  EXPECT_EQ(plain_join->result_tuples, 2001u);
  EXPECT_EQ(plain_join->metrics.log_records, 0u);
  EXPECT_EQ(plain_join->metrics.log_forced_flushes, 0u);
}

// The logged statement shapes WritePathPin does not reach: stores, a
// host-bound select, an explicit transaction and the auto-checkpoint
// cadence. Each pins the statement's %.17g seconds, its log record and
// forced-flush counts and the pages the recovery node wrote; a shape with
// several statements pins each one in order.
std::string RenderLogPin(const GammaMachine& machine, const QueryResult& r) {
  const auto recovery = static_cast<size_t>(machine.config().recovery_node());
  uint64_t log_pages = 0;
  for (const sim::PhaseMetrics& phase : r.metrics.phases) {
    log_pages += phase.per_node[recovery].pages_written;
  }
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%.17g r%llu f%llu p%llu;",
                r.metrics.TotalSec(),
                static_cast<unsigned long long>(r.metrics.log_records),
                static_cast<unsigned long long>(r.metrics.log_forced_flushes),
                static_cast<unsigned long long>(log_pages));
  return buf;
}

std::unique_ptr<GammaMachine> LogPinMachine(uint64_t join_memory,
                                            uint64_t checkpoint_every) {
  GammaConfig config;
  config.num_disk_nodes = 4;
  config.num_diskless_nodes = 4;
  config.enable_logging = true;
  if (join_memory != 0) config.join_memory_total = join_memory;
  config.checkpoint_every_commits = checkpoint_every;
  auto machine = std::make_unique<GammaMachine>(config);
  for (const auto& [name, n, seed] :
       {std::tuple{"A", 2000u, 9}, std::tuple{"B", 1000u, 10}}) {
    GAMMA_CHECK(machine
                    ->CreateRelation(name, wis::WisconsinSchema(),
                                     catalog::PartitionSpec::Hashed(
                                         wis::kUnique1))
                    .ok());
    GAMMA_CHECK(machine->LoadTuples(name, wis::GenerateWisconsin(n, seed))
                    .ok());
  }
  return machine;
}

AppendQuery PinAppend(int32_t key) {
  catalog::TupleBuilder builder(&wis::WisconsinSchema());
  builder.SetInt(wis::kUnique1, key).SetInt(wis::kUnique2, key);
  return {"A", {builder.bytes().begin(), builder.bytes().end()}};
}

TEST(RecoveryLogPin, LoggedStatementShapesKeepTheirCharges) {
  struct Shape {
    const char* name;
    uint64_t join_memory;
    uint64_t checkpoint_every;
    std::function<std::string(GammaMachine&)> run;
    const char* want;
  };
  const auto select = [](bool store) {
    return [store](GammaMachine& m) {
      SelectQuery query;
      query.relation = "A";
      query.predicate = Predicate::Range(wis::kUnique1, 0, 299);
      query.store_result = store;
      const auto result = m.RunSelect(query);
      GAMMA_CHECK(result.ok());
      return RenderLogPin(m, *result);
    };
  };
  const Shape shapes[] = {
      {"stored select", 0, 32, select(true),
       "1.25708333333333 r300 f4 p20;"},
      {"stored simple-hash join, one overflow round", 160 << 10, 32,
       [](GammaMachine& m) {
         JoinQuery join;
         join.outer = "A";
         join.inner = "B";
         join.outer_attr = wis::kUnique2;
         join.inner_attr = wis::kUnique2;
         join.algorithm = JoinAlgorithm::kSimpleHash;
         const auto result = m.RunJoin(join);
         GAMMA_CHECK(result.ok());
         EXPECT_EQ(result->metrics.overflow_rounds, 1u);
         return RenderLogPin(m, *result);
       },
       "5.0674999999999812 r1000 f4 p112;"},
      {"host-bound select", 0, 32, select(false),
       "0.82058333333333056 r0 f0 p0;"},
      {"explicit txn: two appends and CommitTxn", 0, 1,
       [](GammaMachine& m) {
         const uint64_t txn = m.BeginTxn();
         std::string out;
         for (const int32_t key : {7001, 7002}) {
           const auto result = m.RunAppend(PinAppend(key), txn);
           GAMMA_CHECK(result.ok());
           out += RenderLogPin(m, *result);
         }
         m.CommitTxn(txn);
         // CommitTxn seals the winner marker uncharged; at a cadence of one
         // it also writes the checkpoint.
         return out + "ckpt" + std::to_string(m.wal()->checkpoint_lsn()) +
                " n" + std::to_string(m.wal()->records().size());
       },
       "0.14405941463414634 r1 f1 p1;"
       "0.14405941463414634 r1 f1 p1;"
       "ckpt4 n5"},
      {"three auto-commit appends, checkpoint every 2 commits", 0, 2,
       [](GammaMachine& m) {
         std::string out;
         for (const int32_t key : {7001, 7002, 7003}) {
           const auto result = m.RunAppend(PinAppend(key));
           GAMMA_CHECK(result.ok());
           out += RenderLogPin(m, *result);
         }
         return out + "ckpt" + std::to_string(m.wal()->checkpoint_lsn());
       },
       "0.15029008130081301 r1 f2 p2;"
       "0.15775141463414638 r1 f3 p3;"
       "0.13212504065040653 r1 f2 p2;"
       "ckpt5"},
  };
  for (const Shape& shape : shapes) {
    SCOPED_TRACE(shape.name);
    auto machine = LogPinMachine(shape.join_memory, shape.checkpoint_every);
    EXPECT_EQ(shape.run(*machine), shape.want);
  }
}

// Logging off keeps every write's record for the undo but charges nothing
// for it, and truncates the log at every commit (even with the checkpoint
// cadence off). Across a few hundred auto-commit appends, modifies and
// deletes plus explicit transactions the retained log never holds more than
// an open transaction's two records, no statement counts a log record, no
// WAL event is journaled, and every statement's seconds are the ones
// logging off gave before it kept a log (pinned as runs of equal "%.17g"
// values, "value*count;").
TEST(RecoveryLogPin, LoggingOffKeepsABoundedUnchargedLog) {
  GammaConfig config;
  config.num_disk_nodes = 4;
  config.num_diskless_nodes = 4;
  config.checkpoint_every_commits = 0;
  GammaMachine m(config);
  GAMMA_CHECK(m.CreateRelation("A", wis::WisconsinSchema(),
                               catalog::PartitionSpec::Hashed(wis::kUnique1))
                  .ok());
  GAMMA_CHECK(m.LoadTuples("A", wis::GenerateWisconsin(2000, 9)).ok());

  std::string runs;
  std::string last;
  int repeat = 0;
  uint64_t peak_retained = 0;
  const auto note = [&](const Result<QueryResult>& result) {
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->metrics.log_records, 0u);
    EXPECT_EQ(result->metrics.log_forced_flushes, 0u);
    peak_retained = std::max(peak_retained, m.wal()->retained_bytes());
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", result->metrics.TotalSec());
    if (buf == last) {
      ++repeat;
      return;
    }
    if (repeat > 0) runs += last + "*" + std::to_string(repeat) + ";";
    last = buf;
    repeat = 1;
  };
  for (int32_t i = 0; i < 300; ++i) {
    note(m.RunAppend(PinAppend(7000 + i)));
    if (i % 50 == 3) {
      ModifyQuery modify;
      modify.relation = "A";
      modify.locate_attr = wis::kUnique1;
      modify.locate_key = i;
      modify.target_attr = wis::kTen;
      modify.new_value = 77;
      note(m.RunModify(modify));
    }
    if (i % 60 == 5) {
      DeleteQuery del;
      del.relation = "A";
      del.key_attr = wis::kUnique1;
      del.key = 1000 + i;
      note(m.RunDelete(del));
    }
    if (i % 60 == 30) {
      const uint64_t txn = m.BeginTxn();
      note(m.RunAppend(PinAppend(9000 + i), txn));
      note(m.RunAppend(PinAppend(9500 + i), txn));
      ASSERT_TRUE(m.CommitTxn(txn).ok());
    }
  }
  runs += last + "*" + std::to_string(repeat) + ";";

  EXPECT_EQ(runs,
            "0.12341274796747968*3;0.10524770731707317*1;"
            "0.9212861788617861*1;0.12341274796747968*1;"
            "0.10524770731707317*1;0.91611951219511956*1;"
            "0.10524770731707317*50;0.93753455284552611*1;"
            "0.10524770731707317*12;0.9296195121951194*1;"
            "0.10524770731707317*40;0.96728292682926575*1;"
            "0.10524770731707317*22;0.9568678861788591*1;"
            "0.10524770731707317*30;0.95028455284552593*1;"
            "0.10524770731707317*32;0.96511788617885896*1;"
            "0.10524770731707317*18;0.96378455284552578*1;"
            "0.10524770731707317*44;0.99011626016259879*1;"
            "0.10524770731707317*8;1.0105313008130052*1;"
            "0.10524770731707317*48;");
  const uint64_t record =
      WalRecord::kHeaderBytes + wis::WisconsinSchema().tuple_size();
  EXPECT_LE(peak_retained, 2 * record);
  EXPECT_GT(m.wal()->total_bytes(), 300 * record);
  for (const obs::Journal::MergedEvent& e : m.journal().Merged()) {
    EXPECT_NE(e.event->kind, obs::JournalEventKind::kWalForce);
    EXPECT_NE(e.event->kind, obs::JournalEventKind::kCheckpoint);
  }
  EXPECT_EQ(*m.CountTuples("A"), 2000u + 300u + 10u - 5u);
  EXPECT_EQ(m.wal()->retained_bytes(), 0u);
}

}  // namespace
}  // namespace gammadb::gamma
