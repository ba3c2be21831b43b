// Tests for cost-based plan selection: the selectivity crossover between
// a non-clustered index and a file scan, clustered-index preference,
// single-site execution for exact matches on the partitioning attribute,
// join-site choice at 8 nodes, and the chosen plan staying within 10% of
// the best forced alternative when measured. The pin tests hold every
// estimate, choice and EXPLAIN text at %.17g across relation states.

#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/predicate.h"
#include "gamma/machine.h"
#include "opt/planner.h"
#include "test_util.h"
#include "wisconsin/wisconsin.h"

namespace gammadb {
namespace {

namespace wis = gammadb::wisconsin;
using exec::Predicate;

constexpr uint32_t kN = 10000;

gamma::GammaConfig EightNodeConfig() {
  gamma::GammaConfig config;
  config.num_disk_nodes = 4;
  config.num_diskless_nodes = 4;
  config.join_memory_total = 4ull << 20;
  return config;
}

class PlannerTest : public ::testing::Test {
 protected:
  PlannerTest() : machine_(EightNodeConfig()) {
    GAMMA_CHECK(machine_
                    .CreateRelation("A", wis::WisconsinSchema(),
                                    catalog::PartitionSpec::Hashed(
                                        wis::kUnique1))
                    .ok());
    GAMMA_CHECK(machine_.LoadTuples("A", wis::GenerateWisconsin(kN, 11)).ok());
    GAMMA_CHECK(machine_.BuildIndex("A", wis::kUnique1, true).ok());
    GAMMA_CHECK(machine_.BuildIndex("A", wis::kUnique2, false).ok());
    // Heap-only copy and a 10% relation for joins.
    GAMMA_CHECK(machine_
                    .CreateRelation("Aheap", wis::WisconsinSchema(),
                                    catalog::PartitionSpec::Hashed(
                                        wis::kUnique1))
                    .ok());
    GAMMA_CHECK(
        machine_.LoadTuples("Aheap", wis::GenerateWisconsin(kN, 11)).ok());
    GAMMA_CHECK(machine_
                    .CreateRelation("Bprime", wis::WisconsinSchema(),
                                    catalog::PartitionSpec::Hashed(
                                        wis::kUnique1))
                    .ok());
    GAMMA_CHECK(machine_
                    .LoadTuples("Bprime", wis::GenerateWisconsin(kN / 10, 13))
                    .ok());
  }

  gamma::SelectQuery Select(const std::string& rel, Predicate pred) {
    gamma::SelectQuery query;
    query.relation = rel;
    query.predicate = std::move(pred);
    return query;
  }

  gamma::GammaMachine machine_;
};

TEST_F(PlannerTest, NonClusteredIndexWinsAtOnePercent) {
  const opt::Planner planner(machine_);
  const auto plan = planner.PlanSelect(
      Select("A", Predicate::Range(wis::kUnique2, 0, kN / 100 - 1)));
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->query.access, gamma::AccessPath::kNonClusteredIndex);
  EXPECT_NEAR(plan->estimate.output_tuples, kN / 100.0, kN / 1000.0);
}

TEST_F(PlannerTest, FileScanWinsAtTenPercent) {
  // §5.1's crossover: at 10% selectivity a non-clustered index touches so
  // many pages that the sequential scan is cheaper.
  const opt::Planner planner(machine_);
  const auto plan = planner.PlanSelect(
      Select("A", Predicate::Range(wis::kUnique2, 0, kN / 10 - 1)));
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->query.access, gamma::AccessPath::kFileScan);
}

TEST_F(PlannerTest, ClusteredIndexWinsOnPartitioningAttribute) {
  const opt::Planner planner(machine_);
  const auto plan = planner.PlanSelect(
      Select("A", Predicate::Range(wis::kUnique1, 0, kN / 10 - 1)));
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->query.access, gamma::AccessPath::kClusteredIndex);
}

TEST_F(PlannerTest, ExactMatchOnPartitioningAttributeIsSingleSite) {
  const opt::Planner planner(machine_);
  const auto plan =
      planner.PlanSelect(Select("A", Predicate::Eq(wis::kUnique1, 77)));
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->estimate.participating_sites, 1);
  EXPECT_NEAR(plan->estimate.output_tuples, 1.0, 0.5);
}

TEST_F(PlannerTest, ForcedPathWithoutAnIndexIsRejected) {
  const opt::Planner planner(machine_);
  gamma::SelectQuery forced =
      Select("Aheap", Predicate::Range(wis::kUnique1, 0, 99));
  forced.access = gamma::AccessPath::kClusteredIndex;
  EXPECT_TRUE(planner.PlanSelect(forced).status().IsInvalidArgument());
}

TEST_F(PlannerTest, ChosenSelectWithinTenPercentOfBestForced) {
  const opt::Planner planner(machine_);
  const gamma::SelectQuery base =
      Select("A", Predicate::Range(wis::kUnique2, 0, kN / 100 - 1));
  const auto chosen_plan = planner.PlanSelect(base);
  ASSERT_TRUE(chosen_plan.ok());
  const auto chosen = machine_.RunSelect(chosen_plan->query);
  ASSERT_TRUE(chosen.ok());

  double best = chosen->seconds();
  for (const gamma::AccessPath path :
       {gamma::AccessPath::kFileScan, gamma::AccessPath::kClusteredIndex,
        gamma::AccessPath::kNonClusteredIndex}) {
    gamma::SelectQuery forced = base;
    forced.access = path;
    const auto forced_plan = planner.PlanSelect(forced);
    if (!forced_plan.ok()) continue;  // path not applicable
    const auto result = machine_.RunSelect(forced_plan->query);
    ASSERT_TRUE(result.ok());
    best = std::min(best, result->seconds());
  }
  EXPECT_LE(chosen->seconds(), 1.10 * best);
}

TEST_F(PlannerTest, JoinOnPartitioningAttributeStaysLocal) {
  const opt::Planner planner(machine_);
  gamma::JoinQuery query;
  query.outer = "Aheap";
  query.inner = "Bprime";
  query.outer_attr = wis::kUnique1;
  query.inner_attr = wis::kUnique1;
  const auto plan = planner.PlanJoin(query);
  ASSERT_TRUE(plan.ok());
  // Both inputs hashed on the join attribute: every tuple short-circuits at
  // the disk nodes, so Local beats shipping to the diskless half.
  EXPECT_EQ(plan->query.mode, gamma::JoinMode::kLocal);
  EXPECT_GT(plan->query.expected_build_tuples, 0u);
}

TEST_F(PlannerTest, JoinOnNonPartitioningAttributeGoesRemote) {
  const opt::Planner planner(machine_);
  gamma::JoinQuery query;
  query.outer = "Aheap";
  query.inner = "Bprime";
  query.outer_attr = wis::kUnique2;
  query.inner_attr = wis::kUnique2;
  const auto plan = planner.PlanJoin(query);
  ASSERT_TRUE(plan.ok());
  // No short-circuiting is possible; the diskless half runs the join while
  // the disk nodes scan (Figures 10/12 ordering).
  EXPECT_EQ(plan->query.mode, gamma::JoinMode::kRemote);
}

TEST_F(PlannerTest, ChosenJoinWithinTenPercentOfBestForced) {
  const opt::Planner planner(machine_);
  gamma::JoinQuery base;
  base.outer = "Aheap";
  base.inner = "Bprime";
  base.outer_attr = wis::kUnique2;
  base.inner_attr = wis::kUnique2;
  const auto chosen_plan = planner.PlanJoin(base);
  ASSERT_TRUE(chosen_plan.ok());
  const auto chosen = machine_.RunJoin(chosen_plan->query);
  ASSERT_TRUE(chosen.ok());
  EXPECT_EQ(chosen->result_tuples, kN / 10);

  double best = chosen->seconds();
  for (const gamma::JoinMode mode :
       {gamma::JoinMode::kLocal, gamma::JoinMode::kRemote,
        gamma::JoinMode::kAllnodes}) {
    for (const gamma::JoinAlgorithm algorithm :
         {gamma::JoinAlgorithm::kSimpleHash, gamma::JoinAlgorithm::kHybridHash,
          gamma::JoinAlgorithm::kSortMerge}) {
      gamma::JoinQuery forced = base;
      forced.mode = mode;
      forced.algorithm = algorithm;
      forced.expected_build_tuples = chosen_plan->query.expected_build_tuples;
      const auto result = machine_.RunJoin(forced);
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(result->result_tuples, kN / 10);
      best = std::min(best, result->seconds());
    }
  }
  EXPECT_LE(chosen->seconds(), 1.10 * best);
}

TEST_F(PlannerTest, SkewedJoinPlansBucketMapAndExplainsIt) {
  // Join attribute Zipf(theta=1) over 100 values: the frequency sketches
  // predict hash imbalance past the threshold, so the plan pins bucket-map
  // routing, charges the sampling cost into the estimate, and says so.
  GAMMA_CHECK(machine_
                  .CreateRelation("Z", wis::WisconsinSchema(),
                                  catalog::PartitionSpec::Hashed(
                                      wis::kUnique1))
                  .ok());
  GAMMA_CHECK(machine_
                  .LoadTuples("Z", wis::GenerateWisconsinZipf(
                                       kN, 11,
                                       wis::ZipfColumn{wis::kUnique2, 1.0,
                                                       100}))
                  .ok());
  const opt::Planner planner(machine_);
  gamma::JoinQuery join;
  join.outer = "Z";
  join.inner = "Bprime";
  join.outer_attr = wis::kUnique2;
  join.inner_attr = wis::kUnique2;
  const auto plan = planner.PlanJoin(join);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->query.routing, gamma::SplitRouting::kBucketMap);
  bool saw_routing = false, saw_sampling = false;
  for (const std::string& line : plan->plan.details) {
    saw_routing |= line.find("routing: bucket-map") != std::string::npos;
    saw_sampling |= line.find("est sampling cost") != std::string::npos;
  }
  EXPECT_TRUE(saw_routing);
  EXPECT_TRUE(saw_sampling);
}

TEST_F(PlannerTest, UniformJoinPlansHashRouting) {
  const opt::Planner planner(machine_);
  gamma::JoinQuery join;
  join.outer = "Aheap";
  join.inner = "Bprime";
  join.outer_attr = wis::kUnique2;  // unique: perfectly uniform
  join.inner_attr = wis::kUnique2;
  const auto plan = planner.PlanJoin(join);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->query.routing, gamma::SplitRouting::kHash);
  bool saw_routing = false, saw_sampling = false;
  for (const std::string& line : plan->plan.details) {
    saw_routing |= line.find("routing: hash") != std::string::npos;
    saw_sampling |= line.find("est sampling cost") != std::string::npos;
  }
  EXPECT_TRUE(saw_routing);
  EXPECT_FALSE(saw_sampling);
}

TEST_F(PlannerTest, EstimateTracksMeasurement) {
  const opt::Planner planner(machine_);
  const auto plan = planner.PlanSelect(
      Select("Aheap", Predicate::Range(wis::kUnique1, 0, kN / 10 - 1)));
  ASSERT_TRUE(plan.ok());
  const auto result = machine_.RunSelect(plan->query);
  ASSERT_TRUE(result.ok());
  // The model replays the simulator's charging rules; it should land well
  // inside the 10% decision tolerance on a plain file scan.
  EXPECT_NEAR(plan->estimate.seconds, result->seconds(),
              0.10 * result->seconds());
}

// --- Pins --------------------------------------------------------------------

// One line per plan: estimated seconds and tuples at %.17g, the choice, and
// an FNV-1a digest of the whole EXPLAIN text (rejected alternatives,
// selectivity and routing lines included).
std::string PinLine(const std::string& label, double seconds, double tuples,
                    const std::string& choice, const opt::PlanNode& plan) {
  uint64_t fnv = 14695981039346656037ull;
  for (const char c : opt::RenderPlan(plan)) {
    fnv = (fnv ^ static_cast<uint8_t>(c)) * 1099511628211ull;
  }
  char buf[512];
  std::snprintf(buf, sizeof(buf), "%s: %.17g s, %.17g tuples, %s, %016" PRIx64
                "\n", label.c_str(), seconds, tuples, choice.c_str(), fnv);
  return buf;
}

std::string PinSelect(const opt::Planner& planner, const std::string& rel,
                      const Predicate& pred) {
  gamma::SelectQuery query;
  query.relation = rel;
  query.predicate = pred;
  const auto plan = planner.PlanSelect(query);
  GAMMA_CHECK(plan.ok());
  return PinLine(
      "select " + rel + " " +
          opt::DescribePredicate(pred, wis::WisconsinSchema()),
      plan->estimate.seconds, plan->estimate.output_tuples,
      opt::AccessPathName(plan->query.access), plan->plan);
}

std::string PinJoin(const opt::Planner& planner, const std::string& outer,
                    const std::string& inner, int attr,
                    const Predicate& outer_pred) {
  gamma::JoinQuery query;
  query.outer = outer;
  query.inner = inner;
  query.outer_attr = attr;
  query.inner_attr = attr;
  query.outer_pred = outer_pred;
  const auto plan = planner.PlanJoin(query);
  GAMMA_CHECK(plan.ok());
  const bool bucket_map =
      plan->query.routing == gamma::SplitRouting::kBucketMap;
  return PinLine("join " + outer + " x " + inner + " on attr " +
                     std::to_string(attr),
                 plan->estimate.seconds, plan->estimate.output_tuples,
                 std::string(opt::JoinAlgorithmName(plan->query.algorithm)) +
                     "/" + opt::JoinModeName(plan->query.mode) + "/" +
                     (bucket_map ? "bucket-map" : "hash") + "/build " +
                     std::to_string(plan->query.expected_build_tuples),
                 plan->plan);
}

std::string PinAggregate(const opt::Planner& planner, const std::string& rel,
                         int group_attr, const Predicate& pred) {
  gamma::AggregateQuery query;
  query.relation = rel;
  query.group_attr = group_attr;
  query.value_attr = wis::kUnique2;
  query.func = exec::AggFunc::kMin;
  query.predicate = pred;
  const auto plan = planner.PlanAggregate(query);
  GAMMA_CHECK(plan.ok());
  return PinLine("aggregate " + rel + " by attr " + std::to_string(group_attr),
                 plan->est_seconds, plan->plan.est_tuples, "file scan",
                 plan->plan);
}

constexpr uint32_t kPinN = 4000;

/// Hashed (H, with a clustered and a non-clustered index), range (Rg, no
/// index), round-robin (RR, non-clustered index) and Zipf-skewed (Z)
/// relations of kPinN tuples, and a kPinN / 10 hashed join partner.
std::unique_ptr<gamma::GammaMachine> PinMachine() {
  auto machine = std::make_unique<gamma::GammaMachine>(EightNodeConfig());
  const auto create = [&](const std::string& name,
                          catalog::PartitionSpec spec,
                          const std::vector<std::vector<uint8_t>>& tuples) {
    GAMMA_CHECK(
        machine->CreateRelation(name, wis::WisconsinSchema(), std::move(spec))
            .ok());
    GAMMA_CHECK(machine->LoadTuples(name, tuples).ok());
  };
  const auto hashed = catalog::PartitionSpec::Hashed(wis::kUnique1);
  create("H", hashed, wis::GenerateWisconsin(kPinN, 21));
  GAMMA_CHECK(machine->BuildIndex("H", wis::kUnique1, true).ok());
  GAMMA_CHECK(machine->BuildIndex("H", wis::kUnique2, false).ok());
  create("Rg",
         catalog::PartitionSpec::RangeUniform(wis::kUnique1, 0, kPinN - 1, 4),
         wis::GenerateWisconsin(kPinN, 22));
  create("RR", catalog::PartitionSpec::RoundRobin(),
         wis::GenerateWisconsin(kPinN, 23));
  GAMMA_CHECK(machine->BuildIndex("RR", wis::kUnique2, false).ok());
  create("Z", hashed,
         wis::GenerateWisconsinZipf(kPinN, 24,
                                    wis::ZipfColumn{wis::kUnique2, 1.0, 100}));
  create("Bprime", hashed, wis::GenerateWisconsin(kPinN / 10, 25));
  return machine;
}

/// Every pinned plan over the base relations.
std::string PinAll(const gamma::GammaMachine& machine) {
  const opt::Planner planner(machine);
  std::string out;
  for (const std::string rel : {"H", "Rg", "RR"}) {
    out += PinSelect(planner, rel, Predicate::Range(wis::kUnique2, 0, 39));
    out += PinSelect(planner, rel, Predicate::Range(wis::kUnique1, 0, 399));
    out += PinSelect(planner, rel, Predicate::Eq(wis::kUnique1, 1234));
  }
  out += PinJoin(planner, "H", "Bprime", wis::kUnique1, Predicate::True());
  out += PinJoin(planner, "RR", "Bprime", wis::kUnique2, Predicate::True());
  out += PinJoin(planner, "Rg", "Bprime", wis::kUnique1,
                 Predicate::Range(wis::kUnique1, 0, 399));
  out += PinJoin(planner, "Z", "Bprime", wis::kUnique2, Predicate::True());
  out += PinAggregate(planner, "H", -1, Predicate::Range(wis::kUnique1, 0, 99));
  out += PinAggregate(planner, "Rg", wis::kTen, Predicate::True());
  out += PinAggregate(planner, "RR", wis::kTen, Predicate::True());
  return out;
}

std::vector<uint8_t> PinTuple(int32_t unique1, int32_t unique2) {
  catalog::TupleBuilder builder(&wis::WisconsinSchema());
  builder.SetInt(wis::kUnique1, unique1).SetInt(wis::kUnique2, unique2);
  return {builder.bytes().begin(), builder.bytes().end()};
}

// Recorded when the statistics still mirrored the catalog's cardinality,
// partitioning and indexes: reading the catalog itself changes no estimate.
constexpr const char* kPinLoaded = R"(select H unique2 in [0, 39]: 0.42303874827427523 s, 40 tuples, non-clustered index, 752a3903184223e8
select H unique1 in [0, 399]: 0.73575000000000013 s, 400 tuples, clustered index, 2699dc9ccd528629
select H unique1 = 1234: 0.15266016260162601 s, 1 tuples, clustered index, 9574ae4d42649de0
select Rg unique2 in [0, 39]: 1.3603749999999999 s, 40 tuples, file scan, 55b125f3732e2475
select Rg unique1 in [0, 399]: 1.7920000000000005 s, 400 tuples, file scan, ca1ee78bc3c269be
select Rg unique1 = 1234: 0.95508333333333328 s, 1 tuples, file scan, ac90a372a601fe19
select RR unique2 in [0, 39]: 0.42303874827427523 s, 40 tuples, non-clustered index, 0b63611259df1dba
select RR unique1 in [0, 399]: 1.6347499999999997 s, 400 tuples, file scan, a44811734456c9ef
select RR unique1 = 1234: 1.1731927083333331 s, 1 tuples, file scan, d655986775300e1e
join H x Bprime on attr 0: 2.9934166666666671 s, 400 tuples, simple hash/Local/hash/build 400, a94b4869b8d7239d
join RR x Bprime on attr 1: 3.7386666666666653 s, 400 tuples, simple hash/Remote/hash/build 400, 9cf9d6c4504f11dc
join Rg x Bprime on attr 0: 2.4119999999999999 s, 400 tuples, simple hash/Remote/hash/build 400, cfe0cc8626eb18b8
join Z x Bprime on attr 1: 6.2439166666666646 s, 4000 tuples, simple hash/Remote/bucket-map/build 400, 9e88103a97bd7495
aggregate H by attr -1: 1.536 s, -1 tuples, file scan, 770e7e7a17df5c72
aggregate Rg by attr 4: 1.2026666666666666 s, -1 tuples, file scan, 5485a3a9c314bf41
aggregate RR by attr 4: 1.2026666666666666 s, -1 tuples, file scan, b607201b66c8adf0
)";
constexpr const char* kPinAppended = R"(select H unique2 in [0, 39]: 0.42288552514780081 s, 39.940134696931906 tuples, non-clustered index, 281a6c284604428f
select H unique1 in [0, 399]: 0.73575000000000013 s, 400 tuples, clustered index, 0fccc94c8c6fd180
select H unique1 = 1234: 0.15266016260162601 s, 1 tuples, clustered index, 61ea8e6569f8c1db
select Rg unique2 in [0, 39]: 1.3609060083561981 s, 39.940134696931906 tuples, file scan, b7200cf521975e0a
select Rg unique1 in [0, 399]: 1.7925625000000005 s, 400 tuples, file scan, dad790ec32c36790
select Rg unique1 = 1234: 0.95552083333333326 s, 1 tuples, file scan, 86ccb142244d7d1c
select RR unique2 in [0, 39]: 0.42288552514780081 s, 39.940134696931906 tuples, non-clustered index, 529fab7b7f111641
select RR unique1 in [0, 399]: 1.6353124999999997 s, 400 tuples, file scan, 9a12f27326e60728
select RR unique1 = 1234: 1.173630208333333 s, 1 tuples, file scan, d38806d4f5763a63
join H x Bprime on attr 0: 2.9944166666666674 s, 400 tuples, simple hash/Local/hash/build 400, 97e5d8e1cdb59631
join RR x Bprime on attr 1: 3.7399791666666653 s, 400 tuples, simple hash/Remote/hash/build 400, e2b5e82e38930d30
join Rg x Bprime on attr 0: 2.4125624999999999 s, 400 tuples, simple hash/Remote/hash/build 400, 6481ccec285f5387
join Z x Bprime on attr 1: 6.2439166666666646 s, 4000 tuples, simple hash/Remote/bucket-map/build 400, 9e88103a97bd7495
aggregate H by attr -1: 1.5367500000000001 s, -1 tuples, file scan, 4d472e362c8e4d7a
aggregate Rg by attr 4: 1.2031666666666665 s, -1 tuples, file scan, ead02fbf89102f27
aggregate RR by attr 4: 1.2031666666666665 s, -1 tuples, file scan, f87e14471b47a2ba
)";
constexpr const char* kPinDeleted = R"(select H unique2 in [0, 39]: 0.4228344507723093 s, 39.920179595909204 tuples, non-clustered index, ca519567a235d3bc
select H unique1 in [0, 399]: 0.73560739861770363 s, 399.80014988758433 tuples, clustered index, 421b14338fa2beb2
select H unique1 = 1234: 0.15266016260162601 s, 1 tuples, clustered index, 6aec4c81bb61dbda
select Rg unique2 in [0, 39]: 1.3605205111415974 s, 39.920179595909204 tuples, file scan, 08a57a966fd99b46
select Rg unique1 in [0, 399]: 1.7919043790074114 s, 399.80014988758433 tuples, file scan, 8bfc1b6d96125246
select Rg unique1 = 1234: 0.95522916666666657 s, 1 tuples, file scan, d082d316caf6923f
select RR unique2 in [0, 39]: 0.4228344507723093 s, 39.920179595909204 tuples, non-clustered index, 8a00b96c506e1fbe
select RR unique1 in [0, 399]: 1.6348323705137815 s, 399.80014988758433 tuples, file scan, 1aa0c07008e8d280
select RR unique1 = 1234: 1.1733385416666664 s, 1 tuples, file scan, c6b0285ea0c58142
join H x Bprime on attr 0: 2.9937500000000008 s, 400 tuples, simple hash/Local/hash/build 400, 900f7c28c7e8e4b6
join RR x Bprime on attr 1: 3.7391041666666651 s, 400 tuples, simple hash/Remote/hash/build 400, d5e48e2ac87d6b4f
join Rg x Bprime on attr 0: 2.4120625936797406 s, 399.80014988758433 tuples, simple hash/Remote/hash/build 400, 1675830731fb045c
join Z x Bprime on attr 1: 6.2439166666666646 s, 4000 tuples, simple hash/Remote/bucket-map/build 400, 9e88103a97bd7495
aggregate H by attr -1: 1.5362499999999999 s, -1 tuples, file scan, 0d34ca6831dc3eb8
aggregate Rg by attr 4: 1.2028333333333332 s, -1 tuples, file scan, b5bcd3a16de2df1a
aggregate RR by attr 4: 1.2028333333333332 s, -1 tuples, file scan, d72bf04516e4c5d3
)";
constexpr const char* kPinModified = R"(select H unique2 in [0, 39]: 0.34322070141228195 s, 1.7780246639262305 tuples, non-clustered index, bc90a54be7131f43
select H unique1 in [0, 399]: 0.73560739861770363 s, 399.80014988758433 tuples, clustered index, 421b14338fa2beb2
select H unique1 = 1234: 0.15266016260162601 s, 1 tuples, clustered index, 6aec4c81bb61dbda
select Rg unique2 in [0, 39]: 1.3404561483909194 s, 1.7780246639262305 tuples, file scan, 521714dc7725d4ad
select Rg unique1 in [0, 399]: 1.7919043790074114 s, 399.80014988758433 tuples, file scan, 8bfc1b6d96125246
select Rg unique1 = 1234: 0.95522916666666657 s, 1 tuples, file scan, d082d316caf6923f
select RR unique2 in [0, 39]: 0.34322070141228195 s, 1.7780246639262305 tuples, non-clustered index, da11f468289eb98d
select RR unique1 in [0, 399]: 1.6348323705137815 s, 399.80014988758433 tuples, file scan, 1aa0c07008e8d280
select RR unique1 = 1234: 1.1733385416666664 s, 1 tuples, file scan, c6b0285ea0c58142
join H x Bprime on attr 0: 2.9937500000000008 s, 400 tuples, simple hash/Local/hash/build 400, 900f7c28c7e8e4b6
join RR x Bprime on attr 1: 3.7391041666666651 s, 400 tuples, simple hash/Remote/hash/build 400, d5e48e2ac87d6b4f
join Rg x Bprime on attr 0: 2.4120625936797406 s, 399.80014988758433 tuples, simple hash/Remote/hash/build 400, 1675830731fb045c
join Z x Bprime on attr 1: 6.2439166666666646 s, 4000 tuples, simple hash/Remote/bucket-map/build 400, 9e88103a97bd7495
aggregate H by attr -1: 1.5362499999999999 s, -1 tuples, file scan, 0d34ca6831dc3eb8
aggregate Rg by attr 4: 1.2028333333333332 s, -1 tuples, file scan, b5bcd3a16de2df1a
aggregate RR by attr 4: 1.2028333333333332 s, -1 tuples, file scan, d72bf04516e4c5d3
)";
constexpr const char* kPinRelocated = R"(select H unique2 in [0, 39]: 0.34322070141228195 s, 1.7780246639262305 tuples, non-clustered index, bc90a54be7131f43
select H unique1 in [0, 399]: 0.66867808105045667 s, 320.01599680063987 tuples, clustered index, d1d993e5503f9eba
select H unique1 = 1234: 0.15266016260162601 s, 1 tuples, clustered index, 6aec4c81bb61dbda
select Rg unique2 in [0, 39]: 1.3404561483909194 s, 1.7780246639262305 tuples, file scan, 521714dc7725d4ad
select Rg unique1 in [0, 399]: 1.6538768288009067 s, 320.01599680063987 tuples, file scan, 8be2256330fc5cfb
select Rg unique1 = 1234: 0.95522916666666657 s, 1 tuples, file scan, d082d316caf6923f
select RR unique2 in [0, 39]: 0.34322070141228195 s, 1.7780246639262305 tuples, non-clustered index, da11f468289eb98d
select RR unique1 in [0, 399]: 1.6348323705137815 s, 399.80014988758433 tuples, file scan, 1aa0c07008e8d280
select RR unique1 = 1234: 1.1733385416666664 s, 1 tuples, file scan, c6b0285ea0c58142
join H x Bprime on attr 0: 2.9937500000000008 s, 400 tuples, simple hash/Local/hash/build 400, 900f7c28c7e8e4b6
join RR x Bprime on attr 1: 3.7391041666666651 s, 400 tuples, simple hash/Remote/hash/build 400, d5e48e2ac87d6b4f
join Rg x Bprime on attr 0: 2.3271974980003991 s, 320.01599680063987 tuples, simple hash/Remote/hash/build 400, ce56d3f8bb1d184d
join Z x Bprime on attr 1: 6.2439166666666646 s, 4000 tuples, simple hash/Remote/bucket-map/build 400, 9e88103a97bd7495
aggregate H by attr -1: 1.5362499999999999 s, -1 tuples, file scan, 0d34ca6831dc3eb8
aggregate Rg by attr 4: 1.2028333333333332 s, -1 tuples, file scan, b5bcd3a16de2df1a
aggregate RR by attr 4: 1.2028333333333332 s, -1 tuples, file scan, d72bf04516e4c5d3
)";
constexpr const char* kPinRecomputed = R"(select H unique2 in [0, 39]: 0.34322070141228195 s, 1.7780246639262305 tuples, non-clustered index, bc90a54be7131f43
select H unique1 in [0, 399]: 0.66867808105045667 s, 320.01599680063987 tuples, clustered index, d1d993e5503f9eba
select H unique1 = 1234: 0.15266016260162601 s, 1 tuples, clustered index, 6aec4c81bb61dbda
select Rg unique2 in [0, 39]: 1.3404561483909194 s, 1.7780246639262305 tuples, file scan, 521714dc7725d4ad
select Rg unique1 in [0, 399]: 1.6538768288009067 s, 320.01599680063987 tuples, file scan, 8be2256330fc5cfb
select Rg unique1 = 1234: 0.95522916666666657 s, 1 tuples, file scan, d082d316caf6923f
select RR unique2 in [0, 39]: 0.34322070141228195 s, 1.7780246639262305 tuples, non-clustered index, da11f468289eb98d
select RR unique1 in [0, 399]: 1.6348323705137815 s, 399.80014988758433 tuples, file scan, 1aa0c07008e8d280
select RR unique1 = 1234: 1.1733385416666664 s, 1 tuples, file scan, c6b0285ea0c58142
join H x Bprime on attr 0: 2.9937500000000008 s, 400 tuples, simple hash/Local/hash/build 400, 900f7c28c7e8e4b6
join RR x Bprime on attr 1: 3.7391041666666651 s, 400 tuples, simple hash/Remote/hash/build 400, d5e48e2ac87d6b4f
join Rg x Bprime on attr 0: 2.3271974980003991 s, 320.01599680063987 tuples, simple hash/Remote/hash/build 400, ce56d3f8bb1d184d
join Z x Bprime on attr 1: 6.2439166666666646 s, 4000 tuples, simple hash/Remote/bucket-map/build 400, 9e88103a97bd7495
aggregate H by attr -1: 1.5362499999999999 s, -1 tuples, file scan, 0d34ca6831dc3eb8
aggregate Rg by attr 4: 1.2028333333333332 s, -1 tuples, file scan, b5bcd3a16de2df1a
aggregate RR by attr 4: 1.2028333333333332 s, -1 tuples, file scan, d72bf04516e4c5d3
)";
constexpr const char* kPinStored = R"(select S unique1 in [0, 99]: 0.63895729166666682 s, 99.800000000000011 tuples, file scan, 623cbbb684c748ad
select S unique2 = 17: 0.54512489583333346 s, 9.9800000000000004 tuples, file scan, fa285bbbf3ba3b97
select J unique1 in [0, 99]: 0.48489479166666671 s, 39.800000000000004 tuples, file scan, 91a326dd9fe03a5c
join S x Bprime on attr 0: 1.8502916666666667 s, 400 tuples, simple hash/Remote/hash/build 400, 470d5bcc88c2a1a6
join H x S on attr 1: 4.5151458333333316 s, 998 tuples, simple hash/Remote/hash/build 998, eb26f701c6eea6e5
aggregate S by attr 4: 0.5073333333333333 s, -1 tuples, file scan, 04c63a9760f97546
aggregate J by attr -1: 0.43498048780487808 s, -1 tuples, file scan, 403e854fdf2a29fe
)";

TEST(PlannerPinTest, EstimatesAcrossRelationStates) {
  auto machine = PinMachine();
  EXPECT_EQ(PinAll(*machine), kPinLoaded);

  for (const std::string rel : {"H", "Rg", "RR"}) {
    for (int32_t i = 0; i < 3; ++i) {
      ASSERT_TRUE(machine
                      ->RunAppend({rel, PinTuple(static_cast<int32_t>(kPinN) +
                                                     i,
                                                 -7 - i)})
                      .ok());
    }
  }
  EXPECT_EQ(PinAll(*machine), kPinAppended);

  for (const std::string rel : {"H", "Rg", "RR"}) {
    for (const int32_t key : {5, 3999}) {
      ASSERT_TRUE(
          machine->RunDelete(gamma::DeleteQuery{rel, wis::kUnique1, key})
              .ok());
    }
  }
  EXPECT_EQ(PinAll(*machine), kPinDeleted);

  for (const std::string rel : {"H", "Rg", "RR"}) {
    ASSERT_TRUE(machine
                    ->RunModify(gamma::ModifyQuery{rel, wis::kUnique1, 77,
                                                   wis::kUnique2, 90000})
                    .ok());
  }
  EXPECT_EQ(PinAll(*machine), kPinModified);

  // The partitioning key moves: the tuple relocates to its new home.
  for (const std::string rel : {"H", "Rg"}) {
    ASSERT_TRUE(machine
                    ->RunModify(gamma::ModifyQuery{rel, wis::kUnique1, 88,
                                                   wis::kUnique1, 5000})
                    .ok());
  }
  EXPECT_EQ(PinAll(*machine), kPinRelocated);

  for (const std::string rel : {"H", "Rg", "RR", "Z", "Bprime"}) {
    ASSERT_TRUE(machine->RecomputeStatistics(rel).ok());
  }
  EXPECT_EQ(PinAll(*machine), kPinRecomputed);

  // Stored results: a round-robin selection result and a join result.
  gamma::SelectQuery select;
  select.relation = "H";
  select.predicate = Predicate::Range(wis::kUnique1, 0, 999);
  select.result_name = "S";
  ASSERT_TRUE(machine->RunSelect(select).ok());
  gamma::JoinQuery join;
  join.outer = "H";
  join.inner = "Bprime";
  join.outer_attr = wis::kUnique1;
  join.inner_attr = wis::kUnique1;
  join.result_name = "J";
  ASSERT_TRUE(machine->RunJoin(join).ok());
  const opt::Planner planner(*machine);
  std::string stored;
  stored += PinSelect(planner, "S", Predicate::Range(wis::kUnique1, 0, 99));
  stored += PinSelect(planner, "S", Predicate::Eq(wis::kUnique2, 17));
  stored += PinSelect(planner, "J", Predicate::Range(wis::kUnique1, 0, 99));
  stored += PinJoin(planner, "S", "Bprime", wis::kUnique1, Predicate::True());
  stored += PinJoin(planner, "H", "S", wis::kUnique2, Predicate::True());
  stored += PinAggregate(planner, "S", wis::kTen, Predicate::True());
  stored += PinAggregate(planner, "J", -1, Predicate::True());
  EXPECT_EQ(stored, kPinStored);
}

// The full EXPLAIN text of one plan of each kind, the skewed join's
// bucket-map routing and sampling charge included.
constexpr const char* kExplainSelect = R"(select H (non-clustered index over 4 sites)
  predicate: unique2 in [0, 39]
  selectivity: 0.0100
  rejected: file scan (est 1.3604 s)
  estimated: 0.4230 s, 40 tuples
)";
constexpr const char* kExplainJoin = R"(join RR x Bprime on (unique2 = unique2) [simple hash, Remote]
  routing: hash (predicted hash imbalance 1.03 <= threshold 1.25)
  est per-node routed tuples: hash max/mean 1133/1100, bucket-map ~1100
  rejected: simple hash/Local (est 4.4097 s)
  rejected: hybrid hash/Local (est 4.4097 s)
  rejected: sort-merge/Local (est 9.5972 s)
  rejected: hybrid hash/Remote (est 3.7387 s)
  rejected: sort-merge/Remote (est 7.9545 s)
  rejected: simple hash/Allnodes (est 4.4175 s)
  rejected: hybrid hash/Allnodes (est 4.4175 s)
  rejected: sort-merge/Allnodes (est 6.8838 s)
  estimated: 3.7387 s, 400 tuples
  build: scan Bprime (file scan)
    predicate: true
    estimated: 0.2825 s, 400 tuples
  probe: scan RR (file scan)
    predicate: true
    estimated: 2.8492 s, 4000 tuples
)";
constexpr const char* kExplainSkewJoin = R"(join Z x Bprime on (unique2 = unique2) [simple hash, Remote]
  routing: bucket-map (predicted hash imbalance 1.60 > threshold 1.25)
  est per-node routed tuples: hash max/mean 1757/1100, bucket-map ~1100
  est sampling cost: 0.0553 s
  rejected: simple hash/Local (est 9.2034 s)
  rejected: hybrid hash/Local (est 9.2034 s)
  rejected: sort-merge/Local (est 13.3410 s)
  rejected: hybrid hash/Remote (est 6.1887 s)
  rejected: sort-merge/Remote (est 9.9045 s)
  rejected: simple hash/Allnodes (est 8.0644 s)
  rejected: hybrid hash/Allnodes (est 8.0644 s)
  rejected: sort-merge/Allnodes (est 10.0056 s)
  estimated: 6.2439 s, 4000 tuples
  build: scan Bprime (file scan)
    predicate: true
    estimated: 0.2825 s, 400 tuples
  probe: scan Z (file scan)
    predicate: true
    estimated: 5.2992 s, 4000 tuples
)";
constexpr const char* kExplainAggregate = R"(aggregate by ten over Rg (file scan)
  predicate: unique1 in [0, 99]
  estimated: 1.5360 s
)";

TEST(PlannerPinTest, ExplainText) {
  auto machine = PinMachine();
  const opt::Planner planner(*machine);
  gamma::SelectQuery select;
  select.relation = "H";
  select.predicate = Predicate::Range(wis::kUnique2, 0, 39);
  const auto selected = planner.PlanSelect(select);
  ASSERT_TRUE(selected.ok());
  EXPECT_EQ(selected->query.access, gamma::AccessPath::kNonClusteredIndex);
  EXPECT_EQ(opt::RenderPlan(selected->plan), kExplainSelect);

  gamma::JoinQuery join;
  join.outer = "RR";
  join.inner = "Bprime";
  join.outer_attr = wis::kUnique2;
  join.inner_attr = wis::kUnique2;
  const auto joined = planner.PlanJoin(join);
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(opt::RenderPlan(joined->plan), kExplainJoin);

  join.outer = "Z";
  const auto skewed = planner.PlanJoin(join);
  ASSERT_TRUE(skewed.ok());
  EXPECT_EQ(skewed->query.routing, gamma::SplitRouting::kBucketMap);
  EXPECT_EQ(opt::RenderPlan(skewed->plan), kExplainSkewJoin);

  gamma::AggregateQuery aggregate;
  aggregate.relation = "Rg";
  aggregate.group_attr = wis::kTen;
  aggregate.value_attr = wis::kUnique2;
  aggregate.predicate = Predicate::Range(wis::kUnique1, 0, 99);
  const auto aggregated = planner.PlanAggregate(aggregate);
  ASSERT_TRUE(aggregated.ok());
  EXPECT_EQ(opt::RenderPlan(aggregated->plan), kExplainAggregate);
}

}  // namespace
}  // namespace gammadb
