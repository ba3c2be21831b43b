// Multi-user transaction subsystem tests: the multi-granularity lock
// manager's compatibility/upgrade/FIFO rules, the TxnManager's deadlock
// detection and youngest-victim policy, the machine's external-transaction
// API (fail-fast conflicts, commit visibility), and the workload scheduler's
// 2PL serializability — a deadlock-inducing concurrent update mix must
// produce exactly the database state of its commit-order serial schedule,
// byte for byte, at any host-pool width.

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/partition.h"
#include "gamma/machine.h"
#include "sim/host_pool.h"
#include "sim/workload.h"
#include "test_util.h"
#include "txn/lock_manager.h"
#include "txn/txn_manager.h"

namespace gammadb {
namespace {

using txn::LockId;
using txn::LockManager;
using txn::LockMode;
using txn::TxnManager;

constexpr LockMode kAllModes[] = {LockMode::kIS, LockMode::kIX, LockMode::kS,
                                  LockMode::kSIX, LockMode::kX};

TEST(LockModeTest, CompatibilityMatrix) {
  // Gray's multi-granularity table, row = held, column = requested.
  const std::map<LockMode, std::vector<LockMode>> compatible = {
      {LockMode::kIS,
       {LockMode::kIS, LockMode::kIX, LockMode::kS, LockMode::kSIX}},
      {LockMode::kIX, {LockMode::kIS, LockMode::kIX}},
      {LockMode::kS, {LockMode::kIS, LockMode::kS}},
      {LockMode::kSIX, {LockMode::kIS}},
      {LockMode::kX, {}},
  };
  for (const LockMode held : kAllModes) {
    for (const LockMode req : kAllModes) {
      const auto& row = compatible.at(held);
      const bool expect =
          std::find(row.begin(), row.end(), req) != row.end();
      EXPECT_EQ(Compatible(held, req), expect)
          << ModeName(held) << " vs " << ModeName(req);
      // The relation is symmetric.
      EXPECT_EQ(Compatible(held, req), Compatible(req, held));
    }
  }
}

TEST(LockModeTest, SupremumLattice) {
  for (const LockMode m : kAllModes) {
    EXPECT_EQ(Supremum(m, m), m);
    EXPECT_EQ(Supremum(m, LockMode::kX), LockMode::kX);
    // Commutative, and the result is at least as strong as both inputs:
    // anything incompatible with an input stays incompatible with the sup.
    for (const LockMode n : kAllModes) {
      EXPECT_EQ(Supremum(m, n), Supremum(n, m));
      for (const LockMode other : kAllModes) {
        if (!Compatible(m, other)) {
          EXPECT_FALSE(Compatible(Supremum(m, n), other));
        }
      }
    }
  }
  EXPECT_EQ(Supremum(LockMode::kS, LockMode::kIX), LockMode::kSIX);
  EXPECT_EQ(Supremum(LockMode::kIS, LockMode::kIX), LockMode::kIX);
  EXPECT_EQ(Supremum(LockMode::kIS, LockMode::kS), LockMode::kS);
  EXPECT_EQ(Supremum(LockMode::kSIX, LockMode::kIX), LockMode::kSIX);
  EXPECT_EQ(Supremum(LockMode::kSIX, LockMode::kS), LockMode::kSIX);
}

TEST(LockManagerTest, FifoWaitAndPromotion) {
  LockManager lm;
  const LockId id = LockId::Relation(1);
  EXPECT_EQ(lm.Acquire(1, id, LockMode::kS), LockManager::Outcome::kGranted);
  EXPECT_EQ(lm.Acquire(2, id, LockMode::kX), LockManager::Outcome::kWait);
  // FIFO: a compatible S must still queue behind the waiting X.
  EXPECT_EQ(lm.Acquire(3, id, LockMode::kS), LockManager::Outcome::kWait);
  EXPECT_EQ(lm.Blockers(2), (std::vector<uint64_t>{1}));
  // txn 3's S is compatible with the granted group; it is stuck purely
  // behind the queued X.
  EXPECT_EQ(lm.Blockers(3), (std::vector<uint64_t>{2}));

  std::vector<LockManager::Grant> grants;
  lm.Release(1, &grants);
  ASSERT_EQ(grants.size(), 1u);
  EXPECT_EQ(grants[0].txn, 2u);
  EXPECT_TRUE(lm.HoldsAtLeast(2, id, LockMode::kX));
  EXPECT_TRUE(lm.IsWaiting(3));

  grants.clear();
  lm.Release(2, &grants);
  ASSERT_EQ(grants.size(), 1u);
  EXPECT_EQ(grants[0].txn, 3u);
  EXPECT_TRUE(lm.HoldsAtLeast(3, id, LockMode::kS));
}

TEST(LockManagerTest, ReacquisitionAndInPlaceUpgrade) {
  LockManager lm;
  const LockId id = LockId::Fragment(0, 2);
  EXPECT_EQ(lm.Acquire(7, id, LockMode::kS), LockManager::Outcome::kGranted);
  // Re-acquiring at or below the held mode changes nothing.
  EXPECT_EQ(lm.Acquire(7, id, LockMode::kIS), LockManager::Outcome::kGranted);
  EXPECT_EQ(lm.held_count(7), 1u);
  // Sole holder: the S -> X upgrade happens in place.
  EXPECT_EQ(lm.Acquire(7, id, LockMode::kX), LockManager::Outcome::kGranted);
  EXPECT_TRUE(lm.HoldsAtLeast(7, id, LockMode::kX));
  EXPECT_EQ(lm.held_count(7), 1u);
  // S + IX = SIX through the upgrade path too.
  const LockId rel = LockId::Relation(3);
  EXPECT_EQ(lm.Acquire(8, rel, LockMode::kS), LockManager::Outcome::kGranted);
  EXPECT_EQ(lm.Acquire(8, rel, LockMode::kIX), LockManager::Outcome::kGranted);
  EXPECT_TRUE(lm.HoldsAtLeast(8, rel, LockMode::kSIX));
}

TEST(LockManagerTest, UpgradeJumpsQueueFront) {
  LockManager lm;
  const LockId id = LockId::Relation(9);
  EXPECT_EQ(lm.Acquire(1, id, LockMode::kS), LockManager::Outcome::kGranted);
  EXPECT_EQ(lm.Acquire(2, id, LockMode::kS), LockManager::Outcome::kGranted);
  // txn 3's fresh X request queues first; txn 1's upgrade still goes ahead
  // of it (otherwise upgrades would deadlock against fresh waiters).
  EXPECT_EQ(lm.Acquire(3, id, LockMode::kX), LockManager::Outcome::kWait);
  EXPECT_EQ(lm.Acquire(1, id, LockMode::kX), LockManager::Outcome::kWait);
  EXPECT_EQ(lm.upgrades(), 1u);

  std::vector<LockManager::Grant> grants;
  lm.Release(2, &grants);
  ASSERT_EQ(grants.size(), 1u);
  EXPECT_EQ(grants[0].txn, 1u);
  EXPECT_TRUE(lm.HoldsAtLeast(1, id, LockMode::kX));
  EXPECT_TRUE(lm.IsWaiting(3));

  grants.clear();
  lm.Release(1, &grants);
  ASSERT_EQ(grants.size(), 1u);
  EXPECT_EQ(grants[0].txn, 3u);
}

TEST(TxnManagerTest, DeadlockAbortsYoungestRequester) {
  TxnManager tm(4, 0);
  const uint64_t t1 = tm.Begin();
  const uint64_t t2 = tm.Begin();
  const LockId f1 = LockId::Fragment(0, 1);
  const LockId f2 = LockId::Fragment(0, 2);
  using Outcome = TxnManager::AcquireResult::Outcome;

  EXPECT_EQ(tm.Acquire(t1, f1, LockMode::kX).outcome, Outcome::kGranted);
  EXPECT_EQ(tm.Acquire(t2, f2, LockMode::kX).outcome, Outcome::kGranted);
  EXPECT_EQ(tm.Acquire(t1, f2, LockMode::kX).outcome, Outcome::kBlocked);
  EXPECT_TRUE(tm.IsWaiting(t1));

  // t2's request closes the cycle; t2 is the youngest member and also the
  // requester, so it aborts itself and its release unblocks t1.
  const TxnManager::AcquireResult res = tm.Acquire(t2, f1, LockMode::kX);
  EXPECT_EQ(res.outcome, Outcome::kAbortedSelf);
  EXPECT_EQ(res.aborted_victims, (std::vector<uint64_t>{t2}));
  ASSERT_EQ(res.grants.size(), 1u);
  EXPECT_EQ(res.grants[0].txn, t1);
  EXPECT_FALSE(tm.IsActive(t2));
  EXPECT_FALSE(tm.IsWaiting(t1));
  EXPECT_TRUE(tm.table(2).HoldsAtLeast(t1, f2, LockMode::kX));
  EXPECT_EQ(tm.totals().deadlocks, 1u);
  EXPECT_EQ(tm.totals().aborts, 1u);
  tm.Commit(t1);
}

TEST(TxnManagerTest, DeadlockVictimIsOtherWaiter) {
  TxnManager tm(4, 0);
  const uint64_t t1 = tm.Begin();  // older: survives
  const uint64_t t2 = tm.Begin();
  const LockId f1 = LockId::Fragment(0, 1);
  const LockId f2 = LockId::Fragment(0, 2);
  using Outcome = TxnManager::AcquireResult::Outcome;

  EXPECT_EQ(tm.Acquire(t2, f1, LockMode::kX).outcome, Outcome::kGranted);
  EXPECT_EQ(tm.Acquire(t1, f2, LockMode::kX).outcome, Outcome::kGranted);
  EXPECT_EQ(tm.Acquire(t2, f2, LockMode::kX).outcome, Outcome::kBlocked);

  // The older t1 closes the cycle: the younger, waiting t2 is sacrificed and
  // its released f1 goes straight to t1 — granted, not blocked.
  const TxnManager::AcquireResult res = tm.Acquire(t1, f1, LockMode::kX);
  EXPECT_EQ(res.outcome, Outcome::kGranted);
  EXPECT_EQ(res.aborted_victims, (std::vector<uint64_t>{t2}));
  // The requester's own grant is the return value, never a wakeup.
  EXPECT_TRUE(res.grants.empty());
  EXPECT_FALSE(tm.IsActive(t2));
  EXPECT_TRUE(tm.table(1).HoldsAtLeast(t1, f1, LockMode::kX));
  tm.Commit(t1);
}

TEST(TxnManagerTest, IntentionLocksRouteToTables) {
  TxnManager tm(5, 4);
  EXPECT_EQ(tm.TableFor(LockId::Relation(3)), 4);
  EXPECT_EQ(tm.TableFor(LockId::Fragment(3, 2)), 2);
  EXPECT_EQ(tm.TableFor(LockId::Page(3, 1, 77)), 1);
  // The registry hands out stable small ids.
  const uint32_t a = tm.RelationId("A");
  EXPECT_EQ(tm.RelationId("B"), a + 1);
  EXPECT_EQ(tm.RelationId("A"), a);

  // IS on the relation admits concurrent IX; S on the relation does not.
  const uint64_t r1 = tm.Begin();
  const uint64_t r2 = tm.Begin();
  using Outcome = TxnManager::AcquireResult::Outcome;
  EXPECT_EQ(tm.Acquire(r1, LockId::Relation(a), LockMode::kIS).outcome,
            Outcome::kGranted);
  EXPECT_EQ(tm.Acquire(r2, LockId::Relation(a), LockMode::kIX).outcome,
            Outcome::kGranted);
  const uint64_t r3 = tm.Begin();
  EXPECT_EQ(tm.Acquire(r3, LockId::Relation(a), LockMode::kS).outcome,
            Outcome::kBlocked);
  tm.Abort(r3);
  tm.Commit(r1);
  tm.Commit(r2);
}

gamma::GammaConfig SmallConfig() {
  gamma::GammaConfig config;
  config.num_disk_nodes = 4;
  config.num_diskless_nodes = 0;
  return config;
}

void LoadMini(gamma::GammaMachine& machine, const std::string& name,
              uint32_t n, uint64_t seed) {
  GAMMA_CHECK(machine
                  .CreateRelation(name, testing::MiniSchema(),
                                  catalog::PartitionSpec::Hashed(0))
                  .ok());
  GAMMA_CHECK(machine.LoadTuples(name, testing::MiniRelation(n, seed)).ok());
}

TEST(MachineTxnTest, ExternalTxnCommitAndLockMetrics) {
  gamma::GammaMachine machine(SmallConfig());
  LoadMini(machine, "R", 32, 11);

  const uint64_t t = machine.BeginTxn();
  gamma::AppendQuery append;
  append.relation = "R";
  append.tuple = testing::MiniTuple(100, 7);
  const auto appended = machine.RunAppend(append, t);
  ASSERT_TRUE(appended.ok()) << appended.status().ToString();
  // IX relation, IX fragment, X page — surfaced through QueryResult.
  EXPECT_GE(appended->metrics.locks_acquired, 3u);
  EXPECT_EQ(appended->metrics.lock_waits, 0u);
  EXPECT_EQ(appended->metrics.deadlocks, 0u);
  EXPECT_TRUE(machine.txns().IsActive(t));

  // Strict 2PL on real data: the write is in place, the locks outlive the
  // statement until CommitTxn.
  EXPECT_EQ((*machine.ReadRelation("R")).size(), 33u);
  machine.CommitTxn(t);
  EXPECT_FALSE(machine.txns().IsActive(t));

  gamma::DeleteQuery del;
  del.relation = "R";
  del.key_attr = 0;
  del.key = 100;
  const auto deleted = machine.RunDelete(del);  // auto-commit
  ASSERT_TRUE(deleted.ok());
  EXPECT_EQ(deleted->result_tuples, 1u);
  EXPECT_EQ((*machine.ReadRelation("R")).size(), 32u);
}

TEST(MachineTxnTest, FailFastConflictAbortsSecondTxn) {
  gamma::GammaMachine machine(SmallConfig());
  LoadMini(machine, "R", 32, 13);

  // Two keys on the same fragment: their tuples share page-level locks.
  auto meta = machine.catalog().Get("R");
  ASSERT_TRUE(meta.ok());
  catalog::Partitioner partitioner(&(*meta)->partitioning, &(*meta)->schema,
                                   machine.config().num_disk_nodes);
  int32_t key_a = -1, key_b = -1;
  for (int32_t k = 0; k < 32 && key_b < 0; ++k) {
    if (key_a < 0) {
      key_a = k;
    } else if (partitioner.NodeForKey(k) == partitioner.NodeForKey(key_a)) {
      key_b = k;
    }
  }
  ASSERT_GE(key_b, 0);

  gamma::DeleteQuery del_a;
  del_a.relation = "R";
  del_a.key_attr = 0;
  del_a.key = key_a;
  const uint64_t t1 = machine.BeginTxn();
  ASSERT_TRUE(machine.RunDelete(del_a, t1).ok());

  // The real-execution path does not queue: a conflicting request fails the
  // statement and aborts its transaction (blocking belongs to the simulated
  // workload scheduler).
  gamma::DeleteQuery del_b = del_a;
  del_b.key = key_b;
  const uint64_t t2 = machine.BeginTxn();
  const auto blocked = machine.RunDelete(del_b, t2);
  EXPECT_FALSE(blocked.ok());
  EXPECT_FALSE(machine.txns().IsActive(t2));
  EXPECT_TRUE(machine.txns().IsActive(t1));

  // t2 failed before touching the page: after t1 commits, key_b is intact
  // and deletable.
  machine.CommitTxn(t1);
  const auto retry = machine.RunDelete(del_b);
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(retry->result_tuples, 1u);
  EXPECT_EQ((*machine.ReadRelation("R")).size(), 30u);
}

// A commit the machine cannot perform is a Status, not a process abort, and
// leaves the transaction table and the relation as they were.
TEST(MachineTxnTest, CommitOfUnknownTxnIsInvalidArgument) {
  gamma::GammaMachine machine(SmallConfig());
  LoadMini(machine, "R", 32, 17);
  const auto committed = machine.CommitTxn(12345);
  ASSERT_FALSE(committed.ok());
  EXPECT_TRUE(committed.status().IsInvalidArgument())
      << committed.status().ToString();
  EXPECT_TRUE(machine.txns().quiescent());
  EXPECT_EQ((*machine.ReadRelation("R")).size(), 32u);
}

TEST(MachineTxnTest, SecondCommitIsInvalidArgument) {
  gamma::GammaMachine machine(SmallConfig());
  LoadMini(machine, "R", 32, 19);
  const uint64_t t = machine.BeginTxn();
  gamma::AppendQuery append;
  append.relation = "R";
  append.tuple = testing::MiniTuple(100, 7);
  ASSERT_TRUE(machine.RunAppend(append, t).ok());
  ASSERT_TRUE(machine.CommitTxn(t).ok());
  const auto again = machine.CommitTxn(t);
  ASSERT_FALSE(again.ok());
  EXPECT_TRUE(again.status().IsInvalidArgument()) << again.status().ToString();
  EXPECT_EQ((*machine.ReadRelation("R")).size(), 33u);
}

TEST(MachineTxnTest, CommitWhileWaitingIsFailedPrecondition) {
  gamma::GammaMachine machine(SmallConfig());
  LoadMini(machine, "R", 32, 23);
  txn::TxnManager& txns = machine.txns();
  const txn::LockId fragment = txn::LockId::Fragment(txns.RelationId("R"), 0);
  const uint64_t holder = machine.BeginTxn();
  const uint64_t waiter = machine.BeginTxn();
  using Outcome = txn::TxnManager::AcquireResult::Outcome;
  ASSERT_EQ(txns.Acquire(holder, fragment, txn::LockMode::kX).outcome,
            Outcome::kGranted);
  ASSERT_EQ(txns.Acquire(waiter, fragment, txn::LockMode::kX).outcome,
            Outcome::kBlocked);

  const auto committed = machine.CommitTxn(waiter);
  ASSERT_FALSE(committed.ok());
  EXPECT_TRUE(committed.status().IsFailedPrecondition())
      << committed.status().ToString();
  EXPECT_TRUE(txns.IsActive(waiter));
  EXPECT_TRUE(txns.IsWaiting(waiter));

  // The holder's commit hands the lock to the waiter, which then commits.
  const auto released = machine.CommitTxn(holder);
  ASSERT_TRUE(released.ok());
  ASSERT_EQ(released->size(), 1u);
  EXPECT_EQ((*released)[0].txn, waiter);
  EXPECT_TRUE(machine.CommitTxn(waiter).ok());
  EXPECT_TRUE(txns.quiescent());
}

std::vector<std::vector<uint8_t>> Sorted(
    std::vector<std::vector<uint8_t>> tuples) {
  std::sort(tuples.begin(), tuples.end());
  return tuples;
}

TEST(MachineTxnTest, ConflictingAppendsFailFast) {
  gamma::GammaMachine machine(SmallConfig());
  LoadMini(machine, "R", 32, 19);
  auto expected = *machine.ReadRelation("R");

  // Same key, so same home fragment and same last page: t2's page X lock
  // conflicts with t1's.
  gamma::AppendQuery first;
  first.relation = "R";
  first.tuple = testing::MiniTuple(100, 1);
  const uint64_t t1 = machine.BeginTxn();
  ASSERT_TRUE(machine.RunAppend(first, t1).ok());

  gamma::AppendQuery second = first;
  second.tuple = testing::MiniTuple(100, 2);
  const uint64_t t2 = machine.BeginTxn();
  const auto blocked = machine.RunAppend(second, t2);
  ASSERT_FALSE(blocked.ok());
  EXPECT_TRUE(blocked.status().IsFailedPrecondition())
      << blocked.status().ToString();
  EXPECT_FALSE(machine.txns().IsActive(t2));
  EXPECT_TRUE(machine.txns().IsActive(t1));

  machine.CommitTxn(t1);
  expected.push_back(first.tuple);
  EXPECT_EQ(Sorted(*machine.ReadRelation("R")), Sorted(expected));
  EXPECT_EQ(*machine.CountTuples("R"), 33u);
}

TEST(MachineTxnTest, ConflictingRelocatingModifyFailsFast) {
  gamma::GammaMachine machine(SmallConfig());
  LoadMini(machine, "R", 32, 23);
  auto expected = *machine.ReadRelation("R");

  // A loaded key on one fragment, and two fresh keys homed on another: t1
  // appends one, t2 moves the loaded tuple onto the other (modifying the
  // partitioning attribute relocates it into t1's page).
  auto meta = machine.catalog().Get("R");
  ASSERT_TRUE(meta.ok());
  catalog::Partitioner partitioner(&(*meta)->partitioning, &(*meta)->schema,
                                   machine.config().num_disk_nodes);
  const int32_t moved = 0;
  int32_t appended = -1, target = -1;
  for (int32_t k = 100; k < 200 && target < 0; ++k) {
    if (partitioner.NodeForKey(k) == partitioner.NodeForKey(moved)) continue;
    if (appended < 0) {
      appended = k;
    } else if (partitioner.NodeForKey(k) == partitioner.NodeForKey(appended)) {
      target = k;
    }
  }
  ASSERT_GE(target, 0);

  gamma::AppendQuery append;
  append.relation = "R";
  append.tuple = testing::MiniTuple(appended, 1);
  const uint64_t t1 = machine.BeginTxn();
  ASSERT_TRUE(machine.RunAppend(append, t1).ok());

  gamma::ModifyQuery modify;
  modify.relation = "R";
  modify.locate_attr = 0;
  modify.locate_key = moved;
  modify.target_attr = 0;
  modify.new_value = target;
  const uint64_t t2 = machine.BeginTxn();
  const auto blocked = machine.RunModify(modify, t2);
  ASSERT_FALSE(blocked.ok());
  EXPECT_TRUE(blocked.status().IsFailedPrecondition())
      << blocked.status().ToString();
  EXPECT_FALSE(machine.txns().IsActive(t2));

  machine.CommitTxn(t1);
  expected.push_back(append.tuple);
  EXPECT_EQ(Sorted(*machine.ReadRelation("R")), Sorted(expected));
  // Each fragment's tuple count still matches its pages (a relocation
  // that was only half backed out would cancel out in the total).
  for (int f = 0; f < machine.config().num_disk_nodes; ++f) {
    const storage::HeapFile& file =
        machine.node(f).file((*meta)->per_node_file[static_cast<size_t>(f)]);
    uint64_t scanned = 0;
    ASSERT_TRUE(file.Scan([&](storage::Rid, std::span<const uint8_t>) {
                      ++scanned;
                      return true;
                    })
                    .ok());
    EXPECT_EQ(file.num_tuples(), scanned) << "fragment " << f;
  }

  // With t1 gone the same relocation goes through.
  const auto retry = machine.RunModify(modify);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_EQ(retry->result_tuples, 1u);
  EXPECT_EQ(*machine.CountTuples("R"), 33u);
}

TEST(MachineTxnTest, UpdateUnderUnknownTxnFails) {
  gamma::GammaMachine machine(SmallConfig());
  LoadMini(machine, "R", 8, 17);
  gamma::AppendQuery append;
  append.relation = "R";
  append.tuple = testing::MiniTuple(50, 1);
  EXPECT_FALSE(machine.RunAppend(append, /*txn=*/999).ok());
  EXPECT_EQ((*machine.ReadRelation("R")).size(), 8u);
}

// ---------------------------------------------------------------------------
// Workload-level 2PL serializability.

gamma::ModifyQuery ModifyVal(const std::string& rel, int32_t from,
                             int32_t to) {
  gamma::ModifyQuery q;
  q.relation = rel;
  q.locate_attr = 1;  // val: non-partitioning, so the footprint is X on
  q.locate_key = from;  // every fragment — exactly what makes opposite-order
  q.target_attr = 1;    // scripts deadlock.
  q.new_value = to;
  return q;
}

struct MixRun {
  sim::WorkloadReport report;
  std::vector<std::vector<uint8_t>> r;
  std::vector<std::vector<uint8_t>> s;
};

/// Two clients running two-statement update transactions that touch R and S
/// in opposite orders — the canonical deadlock — for `loops` passes each.
/// Returns the concurrent run's report and final relation contents.
MixRun RunDeadlockMix(int host_threads) {
  auto& pool = sim::HostPool::Instance();
  const int prev = pool.num_threads();
  pool.set_num_threads(host_threads);

  gamma::GammaMachine machine(SmallConfig());
  LoadMini(machine, "R", 16, 1);
  LoadMini(machine, "S", 16, 2);

  sim::TxnSpec ab;
  ab.label = "ab";
  ab.statements = {ModifyVal("R", 2, 100), ModifyVal("S", 2, 100)};
  ab.execute_real = true;
  sim::TxnSpec ba;
  ba.label = "ba";
  ba.statements = {ModifyVal("S", 100, 200), ModifyVal("R", 100, 200)};
  ba.execute_real = true;

  sim::WorkloadOptions options;
  options.seed = 42;
  sim::WorkloadDriver driver(&machine, options);
  sim::ClientSpec ca;
  ca.script = {ab};
  ca.loops = 2;
  EXPECT_TRUE(driver.AddClient(ca).ok());
  sim::ClientSpec cb;
  cb.script = {ba};
  cb.loops = 2;
  EXPECT_TRUE(driver.AddClient(cb).ok());

  MixRun out;
  auto report = driver.Run();
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  if (report.ok()) out.report = *report;
  out.r = *machine.ReadRelation("R");
  out.s = *machine.ReadRelation("S");
  pool.set_num_threads(prev);
  return out;
}

TEST(WorkloadTxnTest, DeadlockMixCommitsSerializably) {
  const MixRun run = RunDeadlockMix(1);
  // Opposite-order X footprints must have deadlocked at least once, the
  // victim retried, and everyone eventually committed.
  EXPECT_GE(run.report.deadlocks, 1u);
  EXPECT_GE(run.report.aborted_retries, 1u);
  EXPECT_EQ(run.report.committed, 4u);
  ASSERT_EQ(run.report.commit_log.size(), 4u);
  EXPECT_GT(run.report.lock_wait_sec, 0.0);

  // Replay the commit log serially on a fresh machine: strict 2PL with
  // execute-at-commit means the concurrent run's final state is exactly the
  // serial schedule's, byte for byte.
  gamma::GammaMachine serial(SmallConfig());
  LoadMini(serial, "R", 16, 1);
  LoadMini(serial, "S", 16, 2);
  const std::map<std::string, std::vector<gamma::ModifyQuery>> scripts = {
      {"ab", {ModifyVal("R", 2, 100), ModifyVal("S", 2, 100)}},
      {"ba", {ModifyVal("S", 100, 200), ModifyVal("R", 100, 200)}},
  };
  for (const sim::CommitRecord& rec : run.report.commit_log) {
    for (const gamma::ModifyQuery& q : scripts.at(rec.label)) {
      ASSERT_TRUE(serial.RunModify(q).ok());
    }
  }
  EXPECT_EQ(run.r, *serial.ReadRelation("R"));
  EXPECT_EQ(run.s, *serial.ReadRelation("S"));
}

TEST(WorkloadTxnTest, DeadlockMixIdenticalAcrossThreadCounts) {
  const MixRun one = RunDeadlockMix(1);
  const MixRun four = RunDeadlockMix(4);
  // The event schedule never sees the host-pool width: bit-identical
  // simulated times, identical conflict history, identical bytes.
  EXPECT_EQ(one.report.end_sec, four.report.end_sec);
  EXPECT_EQ(one.report.committed, four.report.committed);
  EXPECT_EQ(one.report.deadlocks, four.report.deadlocks);
  EXPECT_EQ(one.report.aborted_retries, four.report.aborted_retries);
  EXPECT_EQ(one.report.lock_acquisitions, four.report.lock_acquisitions);
  EXPECT_EQ(one.report.lock_waits, four.report.lock_waits);
  EXPECT_EQ(one.report.lock_wait_sec, four.report.lock_wait_sec);
  ASSERT_EQ(one.report.commit_log.size(), four.report.commit_log.size());
  for (size_t i = 0; i < one.report.commit_log.size(); ++i) {
    EXPECT_EQ(one.report.commit_log[i].client,
              four.report.commit_log[i].client);
    EXPECT_EQ(one.report.commit_log[i].label,
              four.report.commit_log[i].label);
  }
  EXPECT_EQ(one.r, four.r);
  EXPECT_EQ(one.s, four.s);
}

// A script that names a relation the catalog lacks, or no script at all, is
// refused when the client is added; the run never sees it. So is a client
// added after the run.
TEST(WorkloadTxnTest, AddClientRefusesUnknownRelationsAndEmptyScripts) {
  gamma::GammaMachine machine(SmallConfig());
  LoadMini(machine, "R", 8, 1);
  sim::WorkloadDriver driver(&machine, sim::WorkloadOptions{});

  sim::ClientSpec empty;
  EXPECT_TRUE(driver.AddClient(empty).IsInvalidArgument());

  gamma::DeleteQuery del;
  del.relation = "missing";
  gamma::AppendQuery append;
  append.relation = "missing";
  gamma::JoinQuery join;
  join.outer = "R";
  join.inner = "missing";
  for (const sim::Statement& stmt :
       {sim::Statement(ModifyVal("missing", 2, 100)), sim::Statement(del),
        sim::Statement(append), sim::Statement(join)}) {
    sim::TxnSpec txn;
    txn.label = "bad";
    txn.statements = {ModifyVal("R", 2, 100), stmt};
    sim::ClientSpec client;
    client.script = {txn};
    const Status status = driver.AddClient(client);
    EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
    EXPECT_NE(status.ToString().find("missing"), std::string::npos);
  }

  sim::TxnSpec good;
  good.label = "good";
  good.statements = {ModifyVal("R", 2, 100)};
  good.execute_real = true;
  sim::ClientSpec client;
  client.script = {good};
  client.loops = 1;
  ASSERT_TRUE(driver.AddClient(client).ok());
  const auto report = driver.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->committed, 1u);
  EXPECT_TRUE(driver.AddClient(client).IsFailedPrecondition());
}

// A real statement that fails under its pre-acquired locks ends the run with
// its own Status, and the transaction's earlier statement is undone, with
// logging on or off: every abort undoes through the machine's WAL.
TEST(WorkloadTxnTest, FailedRealStatementReturnsItsStatusAndAborts) {
  for (const bool logging : {false, true}) {
    SCOPED_TRACE(logging ? "logging on" : "logging off");
    gamma::GammaConfig config = SmallConfig();
    config.enable_logging = logging;
    gamma::GammaMachine machine(config);
    LoadMini(machine, "R", 16, 1);
    const auto before = *machine.ReadRelation("R");

    gamma::ModifyQuery bad = ModifyVal("R", 100, 200);
    bad.target_attr = 99;  // out of range: fails only when it runs
    sim::TxnSpec txn;
    txn.label = "half";
    txn.statements = {ModifyVal("R", 2, 100), bad};
    txn.execute_real = true;
    sim::ClientSpec client;
    client.script = {txn};
    client.loops = 1;
    sim::WorkloadDriver driver(&machine, sim::WorkloadOptions{});
    ASSERT_TRUE(driver.AddClient(client).ok());

    const auto report = driver.Run();
    EXPECT_TRUE(report.status().IsInvalidArgument())
        << report.status().ToString();
    auto sorted = [](std::vector<std::vector<uint8_t>> rows) {
      std::sort(rows.begin(), rows.end());
      return rows;
    };
    EXPECT_EQ(sorted(*machine.ReadRelation("R")), sorted(before));
    // No lock outlives the failed run: an auto-commit update goes through.
    const auto retry = machine.RunModify(ModifyVal("R", 2, 100));
    ASSERT_TRUE(retry.ok()) << retry.status().ToString();

    // A read executed inside a transaction is refused the same way.
    const auto updated = *machine.ReadRelation("R");
    gamma::SelectQuery read;
    read.relation = "R";
    txn.statements = {ModifyVal("R", 100, 300), read};
    client.script = {txn};
    sim::WorkloadDriver reader(&machine, sim::WorkloadOptions{});
    ASSERT_TRUE(reader.AddClient(client).ok());
    const auto refused = reader.Run();
    EXPECT_TRUE(refused.status().IsInvalidArgument())
        << refused.status().ToString();
    EXPECT_EQ(sorted(*machine.ReadRelation("R")), sorted(updated));
  }
}

// A relation dropped between AddClient and Run is NotFound before any
// statement runs.
TEST(WorkloadTxnTest, RunRefusesARelationDroppedAfterAddClient) {
  gamma::GammaMachine machine(SmallConfig());
  LoadMini(machine, "R", 16, 1);
  LoadMini(machine, "S", 16, 2);
  const auto before = *machine.ReadRelation("R");

  sim::TxnSpec txn;
  txn.label = "rs";
  txn.statements = {ModifyVal("R", 2, 100), ModifyVal("S", 2, 100)};
  txn.execute_real = true;
  sim::ClientSpec client;
  client.script = {txn};
  client.loops = 1;
  sim::WorkloadDriver driver(&machine, sim::WorkloadOptions{});
  ASSERT_TRUE(driver.AddClient(client).ok());
  ASSERT_TRUE(machine.DropRelation("S").ok());

  const auto report = driver.Run();
  EXPECT_TRUE(report.status().IsNotFound()) << report.status().ToString();
  EXPECT_NE(report.status().ToString().find("S"), std::string::npos);
  EXPECT_EQ(*machine.ReadRelation("R"), before);
}

// Run is once: a second call is refused and changes nothing.
TEST(WorkloadTxnTest, SecondRunIsFailedPrecondition) {
  gamma::GammaMachine machine(SmallConfig());
  LoadMini(machine, "R", 8, 1);
  sim::TxnSpec txn;
  txn.label = "once";
  txn.statements = {ModifyVal("R", 2, 100)};
  txn.execute_real = true;
  sim::ClientSpec client;
  client.script = {txn};
  client.loops = 1;
  sim::WorkloadDriver driver(&machine, sim::WorkloadOptions{});
  ASSERT_TRUE(driver.AddClient(client).ok());
  const auto first = driver.Run();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->committed, 1u);
  const auto after = *machine.ReadRelation("R");

  const auto second = driver.Run();
  EXPECT_TRUE(second.status().IsFailedPrecondition())
      << second.status().ToString();
  EXPECT_EQ(*machine.ReadRelation("R"), after);
}

}  // namespace
}  // namespace gammadb
