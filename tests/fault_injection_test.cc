// Tests for the fault-injection subsystem: checksums catch bit rot,
// transient I/O faults are retried at simulated cost, chained-declustered
// backups carry queries across a node death (with byte-identical answers),
// and losing both copies of a fragment yields a clean descriptive Status
// with the machine still usable.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gamma/machine.h"
#include "sim/fault_injector.h"
#include "storage/buffer_pool.h"
#include "storage/disk.h"
#include "test_util.h"
#include "wisconsin/wisconsin.h"

namespace gammadb {
namespace {

namespace wis = gammadb::wisconsin;
using exec::Predicate;
using storage::AccessIntent;
using storage::BufferPool;
using storage::ChargeContext;
using storage::SimulatedDisk;

std::vector<std::vector<uint8_t>> Sorted(
    std::vector<std::vector<uint8_t>> tuples) {
  std::sort(tuples.begin(), tuples.end());
  return tuples;
}

// --- Storage layer ---

TEST(ChecksumTest, BitRotSurfacesAsCorruption) {
  SimulatedDisk disk(256);
  ChargeContext charge;  // null tracker: uncharged
  BufferPool pool(&disk, &charge, 8 * 256);

  uint8_t* frame = nullptr;
  const uint32_t good = pool.NewPage(&frame).value();
  frame[0] = 42;
  pool.MarkDirty(good);
  pool.Unpin(good);
  const uint32_t bad = pool.NewPage(&frame).value();
  frame[0] = 43;
  pool.MarkDirty(bad);
  pool.Unpin(bad);
  ASSERT_TRUE(pool.FlushAll().ok());
  ASSERT_TRUE(pool.Invalidate().ok());

  disk.CorruptStoredPage(bad);
  EXPECT_NE(disk.StoredChecksum(bad),
            SimulatedDisk::ComputeChecksum(nullptr, 0));
  const auto pinned = pool.Pin(bad, AccessIntent::kRandom);
  ASSERT_FALSE(pinned.ok());
  EXPECT_TRUE(pinned.status().IsCorruption());

  // The failed pin installed nothing; other pages remain readable.
  const auto ok_pin = pool.Pin(good, AccessIntent::kRandom);
  ASSERT_TRUE(ok_pin.ok());
  EXPECT_EQ((*ok_pin)[0], 42);
  pool.Unpin(good);
}

TEST(TransientFaultTest, RetriesSucceedAndChargeSimulatedTime) {
  const uint32_t kPageSize = 256;
  const int kPages = 50;

  // Run the identical read workload against a clean disk and a flaky one.
  auto run = [&](sim::FaultInjector* faults) {
    sim::CostTracker tracker(sim::MachineParams::GammaDefaults(), 2);
    ChargeContext charge{&tracker, 0};
    SimulatedDisk disk(kPageSize, faults, /*node=*/0);
    BufferPool pool(&disk, &charge, 8 * kPageSize);
    tracker.BeginPhase("load", sim::PhaseKind::kSequential);
    std::vector<uint32_t> pages;
    for (int i = 0; i < kPages; ++i) {
      uint8_t* frame = nullptr;
      pages.push_back(pool.NewPage(&frame).value());
      frame[0] = static_cast<uint8_t>(i);
      pool.MarkDirty(pages.back());
      pool.Unpin(pages.back());
    }
    GAMMA_CHECK(pool.FlushAll().ok());
    GAMMA_CHECK(pool.Invalidate().ok());
    for (int i = 0; i < kPages; ++i) {
      const auto frame = pool.Pin(pages[static_cast<size_t>(i)],
                                  AccessIntent::kRandom);
      GAMMA_CHECK(frame.ok());  // transients always recover within budget
      GAMMA_CHECK((**frame) == static_cast<uint8_t>(i));
      pool.Unpin(pages[static_cast<size_t>(i)]);
    }
    tracker.EndPhase();
    struct Out {
      uint64_t retries;
      double disk_sec;
      double serial_sec;
    };
    const auto totals = tracker.Finish().Totals();
    return Out{pool.io_retries(), totals.disk_sec, totals.serial_sec};
  };

  const auto clean = run(nullptr);
  sim::FaultConfig config;
  config.transient_read_prob = 0.10;
  config.transient_write_prob = 0.05;
  sim::FaultInjector faults(config, 1);
  const auto flaky = run(&faults);

  EXPECT_EQ(clean.retries, 0u);
  EXPECT_GT(flaky.retries, 0u);
  EXPECT_GT(faults.stats().transient_read_faults, 0u);
  // Every retry re-ran the disk access and stalled for the backoff, so the
  // flaky run is strictly slower in simulated time.
  EXPECT_GT(flaky.disk_sec, clean.disk_sec);
  EXPECT_GE(flaky.serial_sec,
            clean.serial_sec +
                static_cast<double>(flaky.retries) *
                    BufferPool::kRetryBackoffSec);
}

// --- Machine layer ---

gamma::GammaConfig FaultableConfig() {
  gamma::GammaConfig config;
  config.num_disk_nodes = 4;
  config.num_diskless_nodes = 0;
  config.chained_declustering = true;
  return config;
}

std::unique_ptr<gamma::GammaMachine> MakeLoaded(gamma::GammaConfig config,
                                                uint32_t a_tuples,
                                                uint32_t b_tuples) {
  auto machine = std::make_unique<gamma::GammaMachine>(config);
  GAMMA_CHECK(machine
                  ->CreateRelation("A", wis::WisconsinSchema(),
                                   catalog::PartitionSpec::Hashed(
                                       wis::kUnique1))
                  .ok());
  GAMMA_CHECK(
      machine->LoadTuples("A", wis::GenerateWisconsin(a_tuples, 7)).ok());
  if (b_tuples > 0) {
    GAMMA_CHECK(machine
                    ->CreateRelation("B", wis::WisconsinSchema(),
                                     catalog::PartitionSpec::Hashed(
                                         wis::kUnique1))
                    .ok());
    GAMMA_CHECK(
        machine->LoadTuples("B", wis::GenerateWisconsin(b_tuples, 8)).ok());
  }
  return machine;
}

TEST(FaultMachineTest, TransientFaultsDegradeTimeNotAnswers) {
  auto clean = MakeLoaded(FaultableConfig(), 2000, 0);
  auto config = FaultableConfig();
  config.fault.transient_read_prob = 0.02;
  auto flaky = MakeLoaded(config, 2000, 0);

  gamma::SelectQuery query;
  query.relation = "A";
  query.predicate = Predicate::Range(wis::kUnique1, 0, 199);
  query.store_result = false;
  const auto clean_result = clean->RunSelect(query);
  const auto flaky_result = flaky->RunSelect(query);
  ASSERT_TRUE(clean_result.ok());
  ASSERT_TRUE(flaky_result.ok());
  EXPECT_EQ(flaky_result->result_tuples, 200u);
  EXPECT_EQ(Sorted(flaky_result->returned), Sorted(clean_result->returned));
  EXPECT_GT(flaky->faults().stats().transient_read_faults, 0u);
  EXPECT_GT(flaky_result->seconds(), clean_result->seconds());
  EXPECT_EQ(flaky_result->failover_retries, 0u);  // retried below the pool
}

TEST(FaultMachineTest, CorruptionIsSurfacedNotRetried) {
  auto config = FaultableConfig();
  config.fault.corrupt_read_prob = 0.9;
  auto machine = MakeLoaded(config, 500, 0);
  gamma::SelectQuery query;
  query.relation = "A";
  const auto result = machine->RunSelect(query);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCorruption());
}

TEST(FaultMachineTest, SortMergeJoinFailsInsteadOfLosingTuples) {
  // Rotted pages anywhere on the join's path — base scans, the sites'
  // spools, the sorted runs the merge reads — must fail the statement; a
  // join that succeeds must return the full answer. Across these fault
  // seeds some corruptions land inside the sort and the merge, after the
  // base scans have succeeded.
  gamma::JoinQuery join;
  join.outer = "A";
  join.inner = "B";
  join.outer_attr = wis::kUnique2;
  join.inner_attr = wis::kUnique2;
  join.mode = gamma::JoinMode::kLocal;
  join.algorithm = gamma::JoinAlgorithm::kSortMerge;
  join.store_result = false;
  // Both inputs outgrow a site's 16-frame pool, so both spools are read
  // back from disk by the sort.
  const auto expected =
      MakeLoaded(FaultableConfig(), 2000, 2000)->RunJoin(join);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  ASSERT_EQ(expected->result_tuples, 2000u);

  int failed = 0;
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    auto config = FaultableConfig();
    config.fault.seed = seed;
    config.fault.corrupt_read_prob = 0.004;
    auto machine = MakeLoaded(config, 2000, 2000);
    const auto result = machine->RunJoin(join);
    if (result.ok()) {
      EXPECT_EQ(result->result_tuples, expected->result_tuples)
          << "fault seed " << seed;
      EXPECT_TRUE(Sorted(result->returned) == Sorted(expected->returned))
          << "fault seed " << seed;
    } else {
      EXPECT_TRUE(result.status().IsCorruption())
          << "fault seed " << seed << ": " << result.status().ToString();
      ++failed;
    }
  }
  EXPECT_GT(failed, 0);
}

TEST(FaultMachineTest, DroppedPacketsChargeRetransmission) {
  auto clean = MakeLoaded(FaultableConfig(), 1000, 500);
  auto config = FaultableConfig();
  config.fault.drop_packet_prob = 0.2;
  auto lossy = MakeLoaded(config, 1000, 500);

  gamma::JoinQuery join;
  join.outer = "A";
  join.inner = "B";
  join.outer_attr = wis::kUnique1;
  join.inner_attr = wis::kUnique1;
  join.mode = gamma::JoinMode::kLocal;
  const auto clean_result = clean->RunJoin(join);
  const auto lossy_result = lossy->RunJoin(join);
  ASSERT_TRUE(clean_result.ok());
  ASSERT_TRUE(lossy_result.ok());
  EXPECT_EQ(lossy_result->result_tuples, clean_result->result_tuples);
  EXPECT_EQ(Sorted(*lossy->ReadRelation(lossy_result->result_relation)),
            Sorted(*clean->ReadRelation(clean_result->result_relation)));
  EXPECT_GT(lossy->faults().stats().packets_dropped, 0u);
  EXPECT_GT(lossy_result->metrics.Totals().packets_retransmitted, 0u);
  EXPECT_GT(lossy_result->seconds(), clean_result->seconds());
}

TEST(FailoverTest, NodeDeathMidJoinFailsOverWithExactAnswer) {
  auto clean = MakeLoaded(FaultableConfig(), 2000, 1000);
  auto dying = MakeLoaded(FaultableConfig(), 2000, 1000);

  gamma::JoinQuery join;
  join.outer = "A";
  join.inner = "B";
  join.outer_attr = wis::kUnique1;
  join.inner_attr = wis::kUnique1;
  join.mode = gamma::JoinMode::kLocal;
  const auto expected = clean->RunJoin(join);
  ASSERT_TRUE(expected.ok());

  // Node 1 dies a few disk operations into the join: the first attempt is
  // aborted mid-flight and the retry reads node 1's fragments from their
  // chained backup on node 2.
  dying->KillNodeAfterOps(1, 10);
  const auto survived = dying->RunJoin(join);
  ASSERT_TRUE(survived.ok()) << survived.status().ToString();
  EXPECT_FALSE(dying->NodeAlive(1));
  EXPECT_EQ(survived->failover_retries, 1u);
  EXPECT_EQ(survived->result_tuples, expected->result_tuples);
  EXPECT_EQ(Sorted(*dying->ReadRelation(survived->result_relation)),
            Sorted(*clean->ReadRelation(expected->result_relation)));

  // Reads of the base relation keep working off the backup too.
  EXPECT_EQ(*dying->CountTuples("A"), 2000u);
  EXPECT_EQ(Sorted(*dying->ReadRelation("A")),
            Sorted(*clean->ReadRelation("A")));
}

TEST(FailoverTest, SelectFailsOverAfterImmediateDeath) {
  auto machine = MakeLoaded(FaultableConfig(), 1000, 0);
  machine->KillNode(2);
  gamma::SelectQuery query;
  query.relation = "A";
  query.predicate = Predicate::Range(wis::kUnique1, 0, 99);
  query.store_result = false;
  const auto result = machine->RunSelect(query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Dead before the query started: the fragment routing already avoids the
  // corpse, so no mid-flight abort was needed.
  EXPECT_EQ(result->failover_retries, 0u);
  EXPECT_EQ(result->result_tuples, 100u);
}

TEST(FailoverTest, TwoAdjacentDeadNodesIsCleanlyUnavailable) {
  auto machine = MakeLoaded(FaultableConfig(), 1000, 0);
  machine->KillNode(1);
  machine->KillNode(2);  // fragment 1's primary AND its backup host

  gamma::SelectQuery query;
  query.relation = "A";
  const auto result = machine->RunSelect(query);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsUnavailable());
  EXPECT_NE(result.status().message().find("fragment"), std::string::npos);
  EXPECT_TRUE(machine->CountTuples("A").status().IsUnavailable());

  // The machine survives the refusal: repairing one of the pair restores
  // full service with complete answers.
  machine->ReviveNode(2);
  const auto recovered = machine->RunSelect(query);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->result_tuples, 1000u);
  EXPECT_EQ(*machine->CountTuples("A"), 1000u);
}

// --- Atomicity of failed loads and appends ---

TEST(AtomicityTest, FailedLoadLeavesNoPartialTuples) {
  auto config = FaultableConfig();
  config.num_disk_nodes = 2;
  auto machine = std::make_unique<gamma::GammaMachine>(config);
  ASSERT_TRUE(machine
                  ->CreateRelation("A", wis::WisconsinSchema(),
                                   catalog::PartitionSpec::Hashed(
                                       wis::kUnique1))
                  .ok());
  // Node 1 dies a few disk operations into the load; every tuple already
  // appended anywhere must be rolled back.
  machine->KillNodeAfterOps(1, 3);
  const Status failed =
      machine->LoadTuples("A", wis::GenerateWisconsin(200, 7));
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.IsUnavailable());

  machine->ReviveNode(1);
  EXPECT_EQ(*machine->CountTuples("A"), 0u);
  EXPECT_TRUE(machine->ReadRelation("A")->empty());
  // And the load can simply be re-run.
  ASSERT_TRUE(
      machine->LoadTuples("A", wis::GenerateWisconsin(200, 7)).ok());
  EXPECT_EQ(*machine->CountTuples("A"), 200u);
}

TEST(AtomicityTest, FailedAppendLeavesNoPartialTuples) {
  auto config = FaultableConfig();
  config.num_disk_nodes = 2;
  auto machine = std::make_unique<gamma::GammaMachine>(config);
  ASSERT_TRUE(machine
                  ->CreateRelation("A", wis::WisconsinSchema(),
                                   catalog::PartitionSpec::RoundRobin())
                  .ok());
  ASSERT_TRUE(
      machine->LoadTuples("A", wis::GenerateWisconsin(100, 7)).ok());

  // Round-robin: tuple 100 goes to node 0, which dies on its next disk
  // operation — after RunAppend's upfront liveness check passes.
  machine->KillNodeAfterOps(0, 0);
  catalog::TupleBuilder builder(&wis::WisconsinSchema());
  builder.SetInt(wis::kUnique1, 5000).SetInt(wis::kUnique2, 5000);
  gamma::AppendQuery append{"A",
                            {builder.bytes().begin(), builder.bytes().end()}};
  const auto failed = machine->RunAppend(append);
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsUnavailable());
  // Fragment 0 is served from its backup on node 1: nothing leaked in.
  EXPECT_EQ(*machine->CountTuples("A"), 100u);

  machine->ReviveNode(0);
  EXPECT_EQ(*machine->CountTuples("A"), 100u);
  const auto retried = machine->RunAppend(append);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ(*machine->CountTuples("A"), 101u);
}

// --- The end-of-statement flush ---

// The flush skips only clean pools. An append dirties its fragment's last
// page on node 0, and node 0 dies at the flush's write-back of that page,
// so the statement fails there as it did when every pool was flushed.
// Afterwards node 0's pool is clean (the abort discarded it), and a read
// served from the backups flushes past the dead node without error.
TEST(FlushTest, DirtyPoolOnDyingNodeFailsAndCleanOneDoesNot) {
  auto config = FaultableConfig();
  config.num_disk_nodes = 2;
  config.enable_logging = true;
  auto machine = std::make_unique<gamma::GammaMachine>(config);
  ASSERT_TRUE(machine
                  ->CreateRelation("A", wis::WisconsinSchema(),
                                   catalog::PartitionSpec::RoundRobin())
                  .ok());
  const auto tuples = wis::GenerateWisconsin(100, 7);
  ASSERT_TRUE(machine->LoadTuples("A", tuples).ok());

  // Round-robin: tuple 100 goes to node 0. Node 0's second disk operation
  // from now fails: the first reads the fragment's last page (the load
  // left the pools cold), the second is the flush writing it back.
  machine->KillNodeAfterOps(0, 2);
  catalog::TupleBuilder builder(&wis::WisconsinSchema());
  builder.SetInt(wis::kUnique1, 5000).SetInt(wis::kUnique2, 5000);
  const auto failed = machine->RunAppend(
      {"A", {builder.bytes().begin(), builder.bytes().end()}});
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsUnavailable()) << failed.status().ToString();
  EXPECT_NE(failed.status().message().find("died mid-operation"),
            std::string::npos);
  ASSERT_TRUE(machine->faults().IsDead(0));

  gamma::SelectQuery query;
  query.relation = "A";
  query.predicate = Predicate::True();
  query.store_result = false;
  const auto read = machine->RunSelect(query);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(Sorted(read->returned), Sorted(tuples));
}

// The same failed append with logging off: the backup node's flush task has
// already written the appended tuple when the primary's fails. The
// statement's undo, which runs at both logging settings, must take it back
// out of that disk, or a read served from the backups sees the failed
// append.
TEST(FlushTest, FailedAppendLeavesNoBackupCopyWithoutLogging) {
  auto config = FaultableConfig();
  config.num_disk_nodes = 2;
  config.enable_logging = false;
  auto machine = std::make_unique<gamma::GammaMachine>(config);
  ASSERT_TRUE(machine
                  ->CreateRelation("A", wis::WisconsinSchema(),
                                   catalog::PartitionSpec::RoundRobin())
                  .ok());
  const auto tuples = wis::GenerateWisconsin(100, 7);
  ASSERT_TRUE(machine->LoadTuples("A", tuples).ok());

  machine->KillNodeAfterOps(0, 2);
  catalog::TupleBuilder builder(&wis::WisconsinSchema());
  builder.SetInt(wis::kUnique1, 5000).SetInt(wis::kUnique2, 5000);
  const auto failed = machine->RunAppend(
      {"A", {builder.bytes().begin(), builder.bytes().end()}});
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsUnavailable()) << failed.status().ToString();
  ASSERT_TRUE(machine->faults().IsDead(0));

  gamma::SelectQuery query;
  query.relation = "A";
  query.predicate = Predicate::True();
  query.store_result = false;
  const auto read = machine->RunSelect(query);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*machine->CountTuples("A"), 100u);
  ASSERT_EQ(read->returned.size(), 100u);
  EXPECT_EQ(Sorted(read->returned), Sorted(tuples));
}

}  // namespace
}  // namespace gammadb
