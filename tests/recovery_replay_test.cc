// Crash-replay property tests for the replayable recovery log: a machine
// that loses a node at a commit point, then crashes wholesale, must come
// back — via Recover() and ReintegrateNode() — byte-identical to a
// fault-free machine that ran only the committed statements. The whole
// scenario must also be deterministic in the host-thread width. The
// scenarios pin recovery's simulated seconds, WAL stamps and stored bytes,
// and a restart or reintegration that fails on a rotten disk must leave the
// machine ready for a retry.

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "exec/predicate.h"
#include "gamma/machine.h"
#include "gamma/wal.h"
#include "sim/host_pool.h"
#include "test_util.h"
#include "wisconsin/wisconsin.h"

namespace gammadb {
namespace {

namespace wis = gammadb::wisconsin;
using exec::Predicate;

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

gamma::GammaConfig LoggedConfig() {
  gamma::GammaConfig config;
  config.num_disk_nodes = 4;
  config.num_diskless_nodes = 0;
  config.chained_declustering = true;
  config.enable_logging = true;
  config.checkpoint_every_commits = 8;
  return config;
}

/// A machine loaded with the `keep` Wisconsin tuples whose unique1 < 600
/// out of a 650-tuple generation; the remaining 50 serve as fresh appends.
struct Loaded {
  std::unique_ptr<gamma::GammaMachine> machine;
  std::vector<std::vector<uint8_t>> extras;
};

Loaded MakeLoaded(gamma::GammaConfig config) {
  Loaded out;
  out.machine = std::make_unique<gamma::GammaMachine>(config);
  GAMMA_CHECK(out.machine
                  ->CreateRelation("A", wis::WisconsinSchema(),
                                   catalog::PartitionSpec::Hashed(
                                       wis::kUnique1))
                  .ok());
  const auto all = wis::GenerateWisconsin(650, 7);
  std::vector<std::vector<uint8_t>> keep;
  const catalog::Schema& schema = wis::WisconsinSchema();
  for (const auto& tuple : all) {
    const int32_t unique1 =
        catalog::TupleView(&schema, tuple).GetInt(wis::kUnique1);
    if (unique1 < 600) {
      keep.push_back(tuple);
    } else {
      out.extras.push_back(tuple);
    }
  }
  GAMMA_CHECK(out.machine->LoadTuples("A", keep).ok());
  GAMMA_CHECK(out.machine->BuildIndex("A", wis::kUnique2, false).ok());
  return out;
}

std::vector<std::vector<uint8_t>> Read(gamma::GammaMachine& machine) {
  auto tuples = machine.ReadRelation("A");
  GAMMA_CHECK(tuples.ok());
  return std::move(*tuples);
}

// --- Pins: the simulated clock, counters, WAL stamps and stored bytes of a
// scenario, recorded as one text block so a mismatch diffs line by line.

/// FNV-1a, 64 bits.
struct Fnv {
  uint64_t h = 1469598103934665603ull;
  void Add(const void* data, size_t n) {
    const auto* p = static_cast<const uint8_t*>(data);
    for (size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 1099511628211ull;
  }
  template <typename T>
  void AddValue(const T& value) {
    Add(&value, sizeof(value));
  }
};

std::string Hex(uint64_t h) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
  return buf;
}

std::string Secs(double sec) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", sec);
  return buf;
}

std::string Pin(const gamma::GammaMachine::RecoveryReport& r) {
  return "recover sec=" + Secs(r.recovery_sec) +
         " redone=" + std::to_string(r.records_redone) +
         " undone=" + std::to_string(r.records_undone) + "\n";
}

std::string Pin(const gamma::GammaMachine::RebuildReport& r) {
  return "rebuild sec=" + Secs(r.rebuild_sec) +
         " replayed=" + std::to_string(r.log_records_replayed) +
         " undone=" + std::to_string(r.records_undone) + "\n";
}

/// Every retained data record's `mirrored` flag and `backup_rid`, in LSN
/// order.
std::string WalStamps(gamma::GammaMachine& machine) {
  Fnv fnv;
  size_t data = 0;
  for (const gamma::WalRecord& r : machine.wal()->records()) {
    if (r.kind != gamma::WalKind::kInsert &&
        r.kind != gamma::WalKind::kDelete &&
        r.kind != gamma::WalKind::kModify) {
      continue;
    }
    ++data;
    fnv.AddValue(r.lsn);
    fnv.AddValue(r.mirrored);
    fnv.AddValue(r.backup_rid.page_index);
    fnv.AddValue(r.backup_rid.slot);
  }
  return "wal records=" + std::to_string(data) + " stamps=" + Hex(fnv.h) +
         "\n";
}

/// Every primary and backup file of "A" on a live node: page and tuple
/// counts, then each live record's rid and bytes in scan order. Reads
/// through the unbound (uncharged) pools, so call it only where the next
/// step is Crash() or the end of the scenario.
std::string FileBytes(gamma::GammaMachine& machine) {
  const catalog::RelationMeta* meta =
      *std::as_const(machine.catalog()).Get("A");
  const int n = static_cast<int>(meta->per_node_file.size());
  std::string out;
  for (int frag = 0; frag < n; ++frag) {
    const std::pair<const char*, std::pair<int, uint32_t>> copies[] = {
        {"primary", {frag, meta->per_node_file[static_cast<size_t>(frag)]}},
        {"backup",
         {(frag + 1) % n,
          meta->per_node_backup_file[static_cast<size_t>(frag)]}}};
    for (const auto& [role, where] : copies) {
      const auto [node, fid] = where;
      if (!machine.NodeAlive(node) || fid == catalog::kNoFile) continue;
      const storage::HeapFile& file = machine.node(node).file(fid);
      Fnv fnv;
      fnv.AddValue(file.num_pages());
      fnv.AddValue(file.num_tuples());
      GAMMA_CHECK(file.Scan([&](storage::Rid rid,
                                std::span<const uint8_t> t) {
                        fnv.AddValue(rid.page_index);
                        fnv.AddValue(rid.slot);
                        fnv.Add(t.data(), t.size());
                        return true;
                      })
                      .ok());
      out += std::string(role) + std::to_string(frag) + "=" + Hex(fnv.h) +
             " ";
    }
  }
  out.back() = '\n';
  return out;
}

/// One randomized workload statement, issued identically to the victim and
/// (when the victim committed it) to the fault-free oracle.
struct Statement {
  enum Kind { kAppend, kDelete, kModifyInPlace, kRelocate } kind;
  std::vector<uint8_t> tuple;  // kAppend
  int32_t key = 0;             // the unique1 to locate
  int32_t new_value = 0;       // kModifyInPlace / kRelocate
};

std::vector<Statement> MakeWorkload(const std::vector<std::vector<uint8_t>>&
                                        extras,
                                    uint64_t seed) {
  Rng rng(seed);
  std::vector<Statement> workload;
  size_t next_extra = 0;
  for (int i = 0; i < 60; ++i) {
    Statement stmt;
    switch (rng.Uniform(4)) {
      case 0:
        if (next_extra < extras.size()) {
          stmt.kind = Statement::kAppend;
          stmt.tuple = extras[next_extra++];
          break;
        }
        [[fallthrough]];
      case 1:
        stmt.kind = Statement::kDelete;
        stmt.key = static_cast<int32_t>(rng.Uniform(650));
        break;
      case 2:
        stmt.kind = Statement::kModifyInPlace;
        stmt.key = static_cast<int32_t>(rng.Uniform(650));
        stmt.new_value = static_cast<int32_t>(5000 + i);
        break;
      default:
        stmt.kind = Statement::kRelocate;
        stmt.key = static_cast<int32_t>(rng.Uniform(650));
        // A fresh partitioning key forces the delete-here/insert-there path.
        stmt.new_value = static_cast<int32_t>(100000 + i);
        break;
    }
    workload.push_back(std::move(stmt));
  }
  return workload;
}

/// Issues `stmt` as an auto-commit statement, or inside `txn` when nonzero.
Result<gamma::QueryResult> Issue(gamma::GammaMachine& machine,
                                 const Statement& stmt, uint64_t txn = 0) {
  switch (stmt.kind) {
    case Statement::kAppend: {
      gamma::AppendQuery query;
      query.relation = "A";
      query.tuple = stmt.tuple;
      return machine.RunAppend(query, txn);
    }
    case Statement::kDelete: {
      gamma::DeleteQuery query;
      query.relation = "A";
      query.key_attr = wis::kUnique1;
      query.key = stmt.key;
      return machine.RunDelete(query, txn);
    }
    case Statement::kModifyInPlace: {
      gamma::ModifyQuery query;
      query.relation = "A";
      query.locate_attr = wis::kUnique1;
      query.locate_key = stmt.key;
      query.target_attr = wis::kUnique2;
      query.new_value = stmt.new_value;
      return machine.RunModify(query, txn);
    }
    case Statement::kRelocate: {
      gamma::ModifyQuery query;
      query.relation = "A";
      query.locate_attr = wis::kUnique1;
      query.locate_key = stmt.key;
      query.target_attr = wis::kUnique1;
      query.new_value = stmt.new_value;
      return machine.RunModify(query, txn);
    }
  }
  GAMMA_CHECK(false);
  return Status::InvalidArgument("unreachable");
}

// Pinned outcomes of the scenarios below. Replay's locate rules (DESIGN.md
// §12) show on the simulated clock, so a change that moves a rule moves a
// pin: re-pin here only when the change means to.
constexpr const char* kRandomWorkloadPins =
    "recover sec=0.30473048780487755 redone=0 undone=0\n"
    "rebuild sec=2.4109154634147041 replayed=11 undone=2\n"
    "wal records=33 stamps=f96dd46a5ba74eb3\n"
    "primary0=6381b42b88aaffeb backup0=d4bc71c9503e7ba9 "
    "primary1=ce6966db2af3211c backup1=dd6edd45b4745282 "
    "primary2=2abe8fc4becb14e3 backup2=74769248475e9cb9 "
    "primary3=a62f30fc6dfbdeb5 backup3=a62f30fc6dfbdeb5\n"
    "recover sec=0.22081544715447149 redone=0 undone=0\n"
    "primary0=6381b42b88aaffeb backup0=d4bc71c9503e7ba9 "
    "primary1=ce6966db2af3211c backup1=dd6edd45b4745282 "
    "primary2=2abe8fc4becb14e3 backup2=74769248475e9cb9 "
    "primary3=a62f30fc6dfbdeb5 backup3=a62f30fc6dfbdeb5\n";
constexpr const char* kExplicitLoserPins =
    "recover sec=0.59104430894309079 redone=0 undone=5\n"
    "primary0=b26117ee0b1acb75 backup0=b26117ee0b1acb75 "
    "primary1=1928c64c1dfe2776 backup1=1928c64c1dfe2776 "
    "primary2=b8f7df69aa923a3a backup2=b8f7df69aa923a3a "
    "primary3=5f27a30d5b7b3eca backup3=5f27a30d5b7b3eca\n";
constexpr const char* kLostWritePins =
    "recover sec=0.55221422764227768 redone=5 undone=0\n"
    "primary0=ff3a0dfba50e2128 backup0=ff3a0dfba50e2128 "
    "primary1=965cd56bd4d68e96 backup1=965cd56bd4d68e96 "
    "primary2=aed7d06245fc1aae backup2=aed7d06245fc1aae "
    "primary3=844c212b8d64c950 backup3=844c212b8d64c950\n";
constexpr const char* kRenumberedPins =
    "recover sec=1.0131439024389981 redone=0 undone=0\n"
    "primary0=d31e382560b8b027 backup0=894d89711b45ecc4 "
    "primary1=74aa2003c9c74a35 backup1=df27a44c07b9d1df "
    "primary2=6b00f107cd022dc1 backup2=8f76ce9a8038b5e4 "
    "primary3=bf018ddc2f282cf3 backup3=81f9c167add24c6c\n";
constexpr const char* kCatchUpPins =
    "rebuild sec=1.8480203902439278 replayed=8 undone=1\n"
    "wal records=28 stamps=b1e2ea287642fc19\n"
    "primary0=f6afe47a7146d5f2 backup0=f6afe47a7146d5f2 "
    "primary1=8c2f5a570a6b0ab5 backup1=8c2f5a570a6b0ab5 "
    "primary2=9fff14c0ee9e5ed7 backup2=9fff14c0ee9e5ed7 "
    "primary3=838b35b638c08361 backup3=375fceb016a816da\n"
    "recover sec=0.16282032520325201 redone=0 undone=0\n"
    "primary0=fdc92e448648aec7 backup0=fdc92e448648aec7 "
    "primary1=9874fd3e7b474e8c backup1=9874fd3e7b474e8c "
    "primary2=ba6dfe929836c5bc backup2=75c5e486150c6bad "
    "primary3=30edb25d9c55bfd7 backup3=dc2659ae2be2b4ca\n";

/// What a scenario leaves behind: the relation's contents and its pins.
struct Outcome {
  std::vector<std::vector<uint8_t>> contents;
  std::string pins;
};

/// The full property scenario at one host-pool width: random workload, node
/// death at a commit point, whole-machine crash, Recover(), reintegration.
/// Returns the surviving relation contents and the pins for cross-width
/// comparison.
Outcome CrashReplayScenario() {
  Outcome out;
  Loaded victim = MakeLoaded(LoggedConfig());
  Loaded oracle = MakeLoaded(LoggedConfig());

  // Node 1 dies at its 6th commit point: after that statement forced its
  // log records and pages, before its commit record sealed.
  victim.machine->KillNodeAtCommit(1, 6);

  const auto workload = MakeWorkload(victim.extras, 42);
  int committed = 0;
  int refused = 0;
  for (const Statement& stmt : workload) {
    const auto result = Issue(*victim.machine, stmt);
    if (result.ok()) {
      ++committed;
      const auto expected = Issue(*oracle.machine, stmt);
      GAMMA_CHECK(expected.ok());
      EXPECT_EQ(result->result_tuples, expected->result_tuples);
    } else {
      EXPECT_TRUE(result.status().IsUnavailable())
          << result.status().ToString();
      ++refused;
    }
  }
  EXPECT_FALSE(victim.machine->NodeAlive(1));
  EXPECT_GT(committed, 0);
  EXPECT_GT(refused, 0);  // the commit-point death surfaced as Unavailable

  // Before any restart: the crashed statement's effects must already be
  // invisible (its alive-node records were reversed at abort), so reads
  // that fail over around the corpse agree with the oracle.
  EXPECT_EQ(Read(*victim.machine), Read(*oracle.machine));

  // Whole-machine crash: volatile state gone, queries refused.
  victim.machine->Crash();
  EXPECT_TRUE(victim.machine->crashed());
  {
    gamma::SelectQuery query;
    query.relation = "A";
    query.store_result = false;
    const auto refused_query = victim.machine->RunSelect(query);
    GAMMA_CHECK(!refused_query.ok());
    EXPECT_TRUE(refused_query.status().IsUnavailable());
  }

  const auto recovery = victim.machine->Recover();
  GAMMA_CHECK(recovery.ok());
  EXPECT_FALSE(victim.machine->crashed());
  EXPECT_GT(recovery->log_records_scanned, 0u);
  EXPECT_GT(recovery->winners, 0u);
  EXPECT_EQ(Read(*victim.machine), Read(*oracle.machine));
  out.pins += Pin(*recovery);

  // Catch-up replays the committed records node 1 missed into its stale
  // backup of fragment 0 and stamps them mirrored.
  const auto rebuild = victim.machine->ReintegrateNode(1);
  GAMMA_CHECK(rebuild.ok());
  EXPECT_TRUE(victim.machine->NodeAlive(1));
  EXPECT_GT(rebuild->fragments_rebuilt, 0u);
  EXPECT_GT(rebuild->tuples_copied, 0u);
  EXPECT_EQ(Read(*victim.machine), Read(*oracle.machine));
  out.pins += Pin(*rebuild) + WalStamps(*victim.machine) +
              FileBytes(*victim.machine);

  // A second restart replays to the identical state (idempotent redo/undo).
  // Its redo locates fragment 1's records in a renumbered rebuild.
  victim.machine->Crash();
  const auto second = victim.machine->Recover();
  GAMMA_CHECK(second.ok());
  EXPECT_EQ(Read(*victim.machine), Read(*oracle.machine));
  out.pins += Pin(*second);

  // The machine is fully back: new statements land on both, including on
  // the reintegrated node, and the maintained index agrees.
  {
    gamma::ModifyQuery query;
    query.relation = "A";
    query.locate_attr = wis::kUnique1;
    query.locate_key = 100000;  // a relocated tuple, if statement 0 ran
    query.target_attr = wis::kUnique2;
    query.new_value = 424242;
    const auto a = victim.machine->RunModify(query);
    const auto b = oracle.machine->RunModify(query);
    GAMMA_CHECK(a.ok());
    GAMMA_CHECK(b.ok());
    EXPECT_EQ(a->result_tuples, b->result_tuples);
  }
  {
    gamma::SelectQuery query;
    query.relation = "A";
    query.predicate = Predicate::Range(wis::kUnique2, 0, 400);
    query.store_result = false;
    const auto a = victim.machine->RunSelect(query);
    const auto b = oracle.machine->RunSelect(query);
    GAMMA_CHECK(a.ok() && b.ok());
    EXPECT_EQ(a->result_tuples, b->result_tuples);
  }
  EXPECT_EQ(Read(*victim.machine), Read(*oracle.machine));
  out.contents = Read(*victim.machine);
  out.pins += FileBytes(*victim.machine);
  return out;
}

TEST(CrashReplayTest, RandomWorkloadRecoversByteIdenticalAtAnyWidth) {
  const Outcome one = WithThreads(1, CrashReplayScenario);
  const Outcome four = WithThreads(4, CrashReplayScenario);
  EXPECT_EQ(one.contents, four.contents);
  EXPECT_FALSE(one.contents.empty());
  EXPECT_EQ(one.pins, four.pins);
  EXPECT_EQ(one.pins, kRandomWorkloadPins);
}

TEST(CrashReplayTest, ExplicitTxnLoserIsUndoneOnRecover) {
  Loaded machine = MakeLoaded(LoggedConfig());
  Loaded oracle = MakeLoaded(LoggedConfig());

  // Committed transaction: survives the crash on both sides.
  const uint64_t winner = machine.machine->BeginTxn();
  {
    gamma::AppendQuery append;
    append.relation = "A";
    append.tuple = machine.extras[0];
    ASSERT_TRUE(machine.machine->RunAppend(append, winner).ok());
    ASSERT_TRUE(oracle.machine->RunAppend(append).ok());
    gamma::DeleteQuery del;
    del.relation = "A";
    del.key_attr = wis::kUnique1;
    del.key = 17;
    ASSERT_TRUE(machine.machine->RunDelete(del, winner).ok());
    ASSERT_TRUE(oracle.machine->RunDelete(del).ok());
    for (const Statement& stmt :
         {Statement{Statement::kModifyInPlace, {}, 31, 888888},
          Statement{Statement::kRelocate, {}, 41, 200041}}) {
      ASSERT_TRUE(Issue(*machine.machine, stmt, winner).ok());
      ASSERT_TRUE(Issue(*oracle.machine, stmt).ok());
    }
  }
  machine.machine->CommitTxn(winner);

  // Loser: statements complete, the transaction never commits, the machine
  // dies. Recover() must erase every trace.
  const uint64_t loser = machine.machine->BeginTxn();
  {
    gamma::AppendQuery append;
    append.relation = "A";
    append.tuple = machine.extras[1];
    ASSERT_TRUE(machine.machine->RunAppend(append, loser).ok());
    gamma::ModifyQuery modify;
    modify.relation = "A";
    modify.locate_attr = wis::kUnique1;
    modify.locate_key = 23;
    modify.target_attr = wis::kUnique2;
    modify.new_value = 777777;
    ASSERT_TRUE(machine.machine->RunModify(modify, loser).ok());
    for (const Statement& stmt :
         {Statement{Statement::kDelete, {}, 55, 0},
          Statement{Statement::kRelocate, {}, 67, 300067}}) {
      ASSERT_TRUE(Issue(*machine.machine, stmt, loser).ok());
    }
  }

  // Redo verifies the winner's insert, delete (its hint slot is dead),
  // in-place modify and relocation; undo reverses the loser's.
  machine.machine->Crash();
  const auto recovery = machine.machine->Recover();
  ASSERT_TRUE(recovery.ok()) << recovery.status().ToString();
  EXPECT_EQ(recovery->losers, 1u);
  EXPECT_GE(recovery->records_undone, 5u);
  EXPECT_EQ(Read(*machine.machine), Read(*oracle.machine));
  EXPECT_EQ(*machine.machine->CountTuples("A"), 600u);  // +1 append, -1 del

  // Fresh statements work after recovery.
  gamma::AppendQuery append;
  append.relation = "A";
  append.tuple = machine.extras[2];
  ASSERT_TRUE(machine.machine->RunAppend(append).ok());
  ASSERT_TRUE(oracle.machine->RunAppend(append).ok());
  EXPECT_EQ(Read(*machine.machine), Read(*oracle.machine));
  EXPECT_EQ(Pin(*recovery) + FileBytes(*machine.machine), kExplicitLoserPins);
}

TEST(CrashReplayTest, RedoReappliesCommittedEffectsMissingFromDisk) {
  Loaded machine = MakeLoaded(LoggedConfig());
  Loaded oracle = MakeLoaded(LoggedConfig());
  const uint64_t txn = machine.machine->BeginTxn();
  for (const Statement& stmt :
       {Statement{Statement::kAppend, machine.extras[0]},
        Statement{Statement::kDelete, {}, 17, 0},
        Statement{Statement::kModifyInPlace, {}, 23, 777777},
        Statement{Statement::kRelocate, {}, 29, 200029}}) {
    ASSERT_TRUE(Issue(*machine.machine, stmt, txn).ok());
    ASSERT_TRUE(Issue(*oracle.machine, stmt).ok());
  }
  machine.machine->CommitTxn(txn);

  // Take the committed effects off the disks, newest first, on the primary
  // and on the backup, as if their forced pages had never landed. An
  // insert's slot goes dead, a delete's image comes back at its rid and a
  // modify's slot holds its before image again. Indexes are left alone.
  const catalog::RelationMeta* meta =
      *std::as_const(machine.machine->catalog()).Get("A");
  const auto& log = machine.machine->wal()->records();
  uint64_t reverted = 0;
  for (auto it = log.rbegin(); it != log.rend(); ++it) {
    const gamma::WalRecord& r = *it;
    if (r.txn != txn || (r.kind != gamma::WalKind::kInsert &&
                         r.kind != gamma::WalKind::kDelete &&
                         r.kind != gamma::WalKind::kModify)) {
      continue;
    }
    const size_t frag = static_cast<size_t>(r.fragment);
    ASSERT_TRUE(r.mirrored);
    const std::pair<storage::HeapFile*, storage::Rid> copies[] = {
        {&machine.machine->node(r.fragment).file(meta->per_node_file[frag]),
         r.rid},
        {&machine.machine->node((r.fragment + 1) % 4)
              .file(meta->per_node_backup_file[frag]),
         r.backup_rid}};
    for (const auto& [file, rid] : copies) {
      switch (r.kind) {
        case gamma::WalKind::kInsert:
          ASSERT_TRUE(file->Delete(rid).ok());
          break;
        case gamma::WalKind::kDelete:
          ASSERT_TRUE(file->Restore(rid, r.before).ok());
          break;
        default:
          ASSERT_EQ(r.kind, gamma::WalKind::kModify);
          ASSERT_TRUE(file->Update(rid, r.before).ok());
          break;
      }
    }
    ++reverted;
  }
  EXPECT_EQ(reverted, 5u);  // the relocation logs a delete and an insert
  for (int n = 0; n < 4; ++n) {
    ASSERT_TRUE(machine.machine->node(n).pool().FlushAll().ok());
  }

  machine.machine->Crash();
  const auto recovery = machine.machine->Recover();
  ASSERT_TRUE(recovery.ok()) << recovery.status().ToString();
  EXPECT_EQ(recovery->records_redone, reverted);
  EXPECT_EQ(recovery->records_undone, 0u);
  EXPECT_EQ(Read(*machine.machine), Read(*oracle.machine));
  {
    gamma::SelectQuery query;
    query.relation = "A";
    query.predicate = Predicate::Range(wis::kUnique2, 0, 1000000);
    query.store_result = false;
    const auto a = machine.machine->RunSelect(query);
    const auto b = oracle.machine->RunSelect(query);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a->result_tuples, b->result_tuples);
  }
  EXPECT_EQ(Pin(*recovery) + FileBytes(*machine.machine), kLostWritePins);
}

TEST(CrashReplayTest, ReplayLocatesImagesInRenumberedRebuilds) {
  Loaded machine = MakeLoaded(LoggedConfig());
  Loaded oracle = MakeLoaded(LoggedConfig());
  // One committed transaction: twenty deletes leave tombstones on every
  // fragment, then an insert, in-place modifies and a relocation.
  const uint64_t txn = machine.machine->BeginTxn();
  std::vector<Statement> work;
  for (int32_t key = 0; key < 20; ++key) {
    work.push_back(Statement{Statement::kDelete, {}, key, 0});
  }
  work.push_back(Statement{Statement::kAppend, machine.extras[0]});
  for (int32_t key = 300; key < 308; ++key) {
    work.push_back(Statement{Statement::kModifyInPlace, {}, key, 700000 + key});
  }
  work.push_back(Statement{Statement::kRelocate, {}, 450, 200450});
  for (const Statement& stmt : work) {
    ASSERT_TRUE(Issue(*machine.machine, stmt, txn).ok());
    ASSERT_TRUE(Issue(*oracle.machine, stmt).ok());
  }
  machine.machine->CommitTxn(txn);
  // A loser left open across the rebuilds: the first reintegration's sweep
  // already reverses its in-place modifies, and the restart meets them
  // again.
  const uint64_t loser = machine.machine->BeginTxn();
  for (int32_t key = 310; key < 318; ++key) {
    const Statement stmt{Statement::kModifyInPlace, {}, key, 800000 + key};
    ASSERT_TRUE(Issue(*machine.machine, stmt, loser).ok());
  }

  // Rebuild every primary from its backup: the rebuild packs tuples past
  // the tombstones, so logged rids point at other tuples or past the end.
  for (int n = 0; n < 4; ++n) {
    machine.machine->KillNode(n);
    ASSERT_TRUE(machine.machine->ReintegrateNode(n).ok());
  }
  const catalog::RelationMeta* meta =
      *std::as_const(machine.machine->catalog()).Get("A");
  int moved_winners = 0;
  int moved_losers = 0;
  for (const gamma::WalRecord& r : machine.machine->wal()->records()) {
    if (r.kind != gamma::WalKind::kModify) continue;
    const auto cur =
        machine.machine->node(r.fragment)
            .file(meta->per_node_file[static_cast<size_t>(r.fragment)])
            .Fetch(r.rid);
    if (cur.ok() && (*cur == r.before || *cur == r.after)) continue;
    ++(r.txn == loser ? moved_losers : moved_winners);
  }
  EXPECT_GT(moved_winners, 0);
  EXPECT_GT(moved_losers, 0);

  // Redo and undo find every image by content: nothing to apply.
  machine.machine->Crash();
  const auto recovery = machine.machine->Recover();
  ASSERT_TRUE(recovery.ok()) << recovery.status().ToString();
  EXPECT_EQ(recovery->losers, 1u);
  EXPECT_EQ(recovery->records_redone, 0u);
  EXPECT_EQ(recovery->records_undone, 0u);
  EXPECT_EQ(Read(*machine.machine), Read(*oracle.machine));
  EXPECT_EQ(Pin(*recovery) + FileBytes(*machine.machine), kRenumberedPins);
}

/// Flips one byte of every stored page of `disk`; a second call repairs
/// them.
/// A disk's stored pages before Rot (empty for a freed page).
using StoredPages = std::vector<std::vector<uint8_t>>;

/// Rots every stored page of `disk` and returns the bytes Repair puts back.
StoredPages Rot(storage::SimulatedDisk& disk) {
  StoredPages pages(disk.num_pages());
  for (uint32_t page = 0; page < disk.num_pages(); ++page) {
    pages[page].resize(disk.page_size());
    if (!disk.Read(page, pages[page].data()).ok()) pages[page].clear();
    disk.CorruptStoredPage(page);
  }
  return pages;
}

/// Rewrites every page Rot rotted with its earlier bytes (a write replaces
/// rotted bytes and their checksum).
void Repair(storage::SimulatedDisk& disk, const StoredPages& pages) {
  for (uint32_t page = 0; page < pages.size(); ++page) {
    if (!pages[page].empty()) {
      ASSERT_TRUE(disk.Write(page, pages[page].data()).ok());
    }
  }
}

void ExpectNoNodeBound(gamma::GammaMachine& machine) {
  for (int n = 0; n < 4; ++n) {
    EXPECT_EQ(machine.node(n).charge().tracker, nullptr) << "node " << n;
  }
}

TEST(RecoveryFailureTest, FailedRecoverLeavesNoNodeBound) {
  Loaded machine = MakeLoaded(LoggedConfig());
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        Issue(*machine.machine, Statement{Statement::kAppend,
                                          machine.extras[i]})
            .ok());
  }
  machine.machine->Crash();
  std::vector<StoredPages> stored;
  for (int n = 0; n < 4; ++n) {
    stored.push_back(Rot(machine.machine->node(n).disk()));
  }

  // Redo's first page read fails its checksum.
  const auto recovery = machine.machine->Recover();
  ASSERT_FALSE(recovery.ok());
  EXPECT_TRUE(recovery.status().IsCorruption()) << recovery.status().ToString();
  EXPECT_TRUE(machine.machine->crashed());
  ExpectNoNodeBound(*machine.machine);

  // Once the disks are repaired, the restart goes through.
  for (int n = 0; n < 4; ++n) {
    Repair(machine.machine->node(n).disk(), stored[static_cast<size_t>(n)]);
  }
  ASSERT_TRUE(machine.machine->Recover().ok());
  EXPECT_FALSE(machine.machine->crashed());
  ExpectNoNodeBound(*machine.machine);
}

TEST(ReintegrationTest, FailedReintegrationLeavesTheNodeDownForARetry) {
  Loaded victim = MakeLoaded(LoggedConfig());
  Loaded oracle = MakeLoaded(LoggedConfig());
  victim.machine->KillNode(1);
  // Writes homed on node 1 are refused; fragment 0's land unmirrored, since
  // its backup lives on node 1.
  for (const auto& tuple : victim.extras) {
    const Statement stmt{Statement::kAppend, tuple};
    const auto result = Issue(*victim.machine, stmt);
    if (!result.ok()) {
      EXPECT_TRUE(result.status().IsUnavailable());
      continue;
    }
    ASSERT_TRUE(Issue(*oracle.machine, stmt).ok());
  }
  const auto mirrored_flags = [&] {
    std::vector<bool> flags;
    for (const gamma::WalRecord& r : victim.machine->wal()->records()) {
      flags.push_back(r.mirrored);
    }
    return flags;
  };
  const std::vector<bool> before = mirrored_flags();
  ASSERT_NE(std::count(before.begin(), before.end(), false), 0);

  // Rot node 2's disk: it holds fragment 1's backup, the source of node 1's
  // rebuild.
  storage::StorageManager& host = victim.machine->node(2);
  ASSERT_TRUE(host.pool().Invalidate().ok());
  const StoredPages stored = Rot(host.disk());
  const auto failed = victim.machine->ReintegrateNode(1);
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsCorruption()) << failed.status().ToString();
  EXPECT_FALSE(victim.machine->NodeAlive(1));
  EXPECT_EQ(mirrored_flags(), before);
  ExpectNoNodeBound(*victim.machine);

  // Repair the disk and retry: the stale backup catches up.
  Repair(host.disk(), stored);
  const auto retry = victim.machine->ReintegrateNode(1);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_TRUE(victim.machine->NodeAlive(1));
  EXPECT_GT(retry->log_records_replayed, 0u);
  for (const bool mirrored : mirrored_flags()) EXPECT_TRUE(mirrored);
  EXPECT_EQ(Read(*victim.machine), Read(*oracle.machine));
}

// Reintegration rewrites a clustered fragment through the same build as
// BuildIndex: the rebuilt primary holds the same tuples at the same rids,
// equal clustered keys in the same order, and every B-tree returns the same
// (key, rid) entries and range answers.
TEST(ReintegrationTest, ClusteredRebuildMatchesTheBuildIndexFragment) {
  gamma::GammaMachine machine(LoggedConfig());
  ASSERT_TRUE(machine
                  .CreateRelation("A", wis::WisconsinSchema(),
                                  catalog::PartitionSpec::Hashed(
                                      wis::kUnique1))
                  .ok());
  ASSERT_TRUE(machine.LoadTuples("A", wis::GenerateWisconsin(600, 7)).ok());
  ASSERT_TRUE(machine.BuildIndex("A", wis::kTen, /*clustered=*/true).ok());
  ASSERT_TRUE(machine.BuildIndex("A", wis::kUnique2, false).ok());

  using Entries = std::vector<std::pair<int32_t, storage::Rid>>;
  struct Fragment {
    std::vector<std::pair<storage::Rid, std::vector<uint8_t>>> tuples;
    std::vector<Entries> indexes;
    std::vector<std::vector<std::vector<uint8_t>>> ranges;
    bool operator==(const Fragment&) const = default;
  };
  const auto fragment = [&] {
    Fragment out;
    const catalog::RelationMeta& meta = **machine.catalog().Get("A");
    storage::StorageManager& sm = machine.node(1);
    EXPECT_TRUE(sm.file(meta.per_node_file[1])
                    .Scan([&](storage::Rid rid, std::span<const uint8_t> t) {
                      out.tuples.emplace_back(
                          rid, std::vector<uint8_t>(t.begin(), t.end()));
                      return true;
                    })
                    .ok());
    for (const catalog::IndexMeta& index : meta.indices) {
      Entries& entries = out.indexes.emplace_back();
      EXPECT_TRUE(sm.index(index.per_node_index[1])
                      .ScanFrom(INT32_MIN,
                                [&](const storage::BTree::Entry& e) {
                                  entries.emplace_back(e.key, e.rid);
                                  return true;
                                })
                      .ok());
      gamma::SelectQuery query;
      query.relation = "A";
      query.predicate = Predicate::Range(index.attr, 2, 4);
      query.access = index.clustered ? gamma::AccessPath::kClusteredIndex
                                     : gamma::AccessPath::kNonClusteredIndex;
      query.store_result = false;
      auto result = machine.RunSelect(query);
      EXPECT_TRUE(result.ok());
      if (result.ok()) out.ranges.push_back(result->returned);
    }
    return out;
  };
  const Fragment built = fragment();
  ASSERT_GT(built.tuples.size(), 100u);
  ASSERT_EQ(built.indexes.size(), 2u);
  ASSERT_FALSE(built.ranges[0].empty());

  machine.KillNode(1);
  const auto rebuild = machine.ReintegrateNode(1);
  ASSERT_TRUE(rebuild.ok()) << rebuild.status().ToString();
  EXPECT_EQ(rebuild->fragments_rebuilt, 1u);
  EXPECT_TRUE(fragment() == built);
}

TEST(CrashReplayTest, RecoverRequiresLoggingAndIsSafeWhenHealthy) {
  gamma::GammaConfig config = LoggedConfig();
  config.enable_logging = false;
  gamma::GammaMachine unlogged(config);
  EXPECT_TRUE(unlogged.Recover().status().IsFailedPrecondition());
  EXPECT_TRUE(unlogged.Checkpoint().status().IsFailedPrecondition());

  // On a healthy logged machine Recover() is a pure verification pass.
  Loaded healthy = MakeLoaded(LoggedConfig());
  const auto before = Read(*healthy.machine);
  const auto report = healthy.machine->Recover();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->records_redone, 0u);
  EXPECT_EQ(report->records_undone, 0u);
  EXPECT_EQ(Read(*healthy.machine), before);
}

TEST(CheckpointTest, FuzzyCheckpointsTruncateTheRetainedLog) {
  Loaded machine = MakeLoaded(LoggedConfig());  // checkpoint every 8 commits
  for (size_t i = 0; i < machine.extras.size(); ++i) {
    gamma::AppendQuery append;
    append.relation = "A";
    append.tuple = machine.extras[i];
    ASSERT_TRUE(machine.machine->RunAppend(append).ok());
  }
  gamma::WalStore* wal = machine.machine->wal();
  ASSERT_NE(wal, nullptr);
  EXPECT_GT(wal->checkpoint_lsn(), 0u);
  // 50 commits at cadence 8: every fully-mirrored committed record below
  // the last checkpoint was dropped, so the retained log is a small tail.
  EXPECT_LT(wal->records().size(), 30u);
  EXPECT_LT(wal->retained_bytes(), wal->total_bytes());

  // An explicit checkpoint seals and returns a fresh begin LSN.
  const auto lsn = machine.machine->Checkpoint();
  ASSERT_TRUE(lsn.ok());
  EXPECT_GT(*lsn, 0u);

  // Replay after truncation still lands on the exact committed state.
  Loaded oracle = MakeLoaded(LoggedConfig());
  for (size_t i = 0; i < oracle.extras.size(); ++i) {
    gamma::AppendQuery append;
    append.relation = "A";
    append.tuple = oracle.extras[i];
    ASSERT_TRUE(oracle.machine->RunAppend(append).ok());
  }
  machine.machine->Crash();
  const auto recovery = machine.machine->Recover();
  ASSERT_TRUE(recovery.ok()) << recovery.status().ToString();
  EXPECT_EQ(recovery->log_records_scanned, wal->records().size());
  EXPECT_EQ(Read(*machine.machine), Read(*oracle.machine));
  EXPECT_EQ(*machine.machine->CountTuples("A"), 650u);
}

TEST(ReintegrationTest, CrashAtCommitStatementStaysInvisible) {
  Loaded victim = MakeLoaded(LoggedConfig());
  Loaded oracle = MakeLoaded(LoggedConfig());

  // Node 2 dies at its very first commit point: the first statement whose
  // commit site lands there forces its records and pages, then dies before
  // acknowledging.
  victim.machine->KillNodeAtCommit(2, 1);
  bool crashed_statement = false;
  size_t next_extra = 0;
  while (next_extra < victim.extras.size()) {
    gamma::AppendQuery append;
    append.relation = "A";
    append.tuple = victim.extras[next_extra++];
    const auto result = victim.machine->RunAppend(append);
    if (!result.ok()) {
      EXPECT_TRUE(result.status().IsUnavailable());
      crashed_statement = true;
      break;
    }
    ASSERT_TRUE(oracle.machine->RunAppend(append).ok());
  }
  ASSERT_TRUE(crashed_statement);
  EXPECT_FALSE(victim.machine->NodeAlive(2));

  // More committed work while node 2 is dead. Writes to fragment 1 reach
  // its primary but not its backup on node 2 (logged mirrored=false): the
  // log tail that reintegration's catch-up replays. Writes homed on node 2
  // are refused on the victim and skipped on the oracle.
  int unmirrored = 0;
  for (int i = 0; i < 32; ++i) {
    const int32_t key = 100 + 7 * i;
    Statement stmt;
    switch (i % 4) {
      case 0:
        stmt = Statement{Statement::kDelete, {}, key, 0};
        break;
      case 1:
        stmt = Statement{Statement::kModifyInPlace, {}, key, 9000 + i};
        break;
      case 2:
        stmt = Statement{Statement::kRelocate, {}, key, 200000 + i};
        break;
      default:
        GAMMA_CHECK(next_extra < victim.extras.size());
        stmt = Statement{Statement::kAppend, victim.extras[next_extra++]};
        break;
    }
    const auto result = Issue(*victim.machine, stmt);
    if (!result.ok()) {
      EXPECT_TRUE(result.status().IsUnavailable());
      continue;
    }
    ASSERT_TRUE(Issue(*oracle.machine, stmt).ok());
  }
  for (const gamma::WalRecord& r : victim.machine->wal()->records()) {
    if (!r.mirrored) ++unmirrored;
  }
  EXPECT_GT(unmirrored, 0);

  // The dying statement's tuple reached node 2's disk but must never be
  // seen: failover reads route around the corpse, and reintegration undoes
  // the stranded copy before rebuilding.
  EXPECT_EQ(Read(*victim.machine), Read(*oracle.machine));
  const auto rebuild = victim.machine->ReintegrateNode(2);
  ASSERT_TRUE(rebuild.ok()) << rebuild.status().ToString();
  EXPECT_TRUE(victim.machine->NodeAlive(2));
  EXPECT_GE(rebuild->records_undone, 1u);
  EXPECT_GT(rebuild->fragments_rebuilt, 0u);
  EXPECT_GT(rebuild->log_records_replayed, 0u);
  EXPECT_EQ(Read(*victim.machine), Read(*oracle.machine));
  for (const gamma::WalRecord& r : victim.machine->wal()->records()) {
    EXPECT_TRUE(r.mirrored) << "lsn " << r.lsn;
  }
  std::string pins = Pin(*rebuild) + WalStamps(*victim.machine) +
                     FileBytes(*victim.machine);

  // A restart after the rebuild: redo locates fragment 2's records in its
  // renumbered copy.
  victim.machine->Crash();
  const auto recovery = victim.machine->Recover();
  ASSERT_TRUE(recovery.ok()) << recovery.status().ToString();
  EXPECT_EQ(Read(*victim.machine), Read(*oracle.machine));
  pins += Pin(*recovery);

  // The revived node serves writes again (appends land on both machines,
  // duplicates and all, so the relations keep matching exactly).
  for (const auto& tuple : victim.extras) {
    gamma::AppendQuery append;
    append.relation = "A";
    append.tuple = tuple;
    ASSERT_TRUE(victim.machine->RunAppend(append).ok());
    ASSERT_TRUE(oracle.machine->RunAppend(append).ok());
  }
  EXPECT_EQ(Read(*victim.machine), Read(*oracle.machine));
  EXPECT_EQ(pins + FileBytes(*victim.machine), kCatchUpPins);
}

}  // namespace
}  // namespace gammadb
