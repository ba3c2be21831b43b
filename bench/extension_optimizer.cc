// Extension: validates the cost-based optimizer against measurement.
//
// Sweeps the Table 1 selection grid, the Table 2 join grid and the
// Figure 9-12 join-placement grid. For every query the optimizer-chosen
// plan is executed alongside every applicable forced plan; the bench prints
// the model's estimate, the chosen plan's measured simulated time and the
// best forced plan's, and fails (nonzero exit) if any chosen plan measures
// more than 10% slower than the best forced alternative. Each chosen plan's
// estimated seconds and output tuples go into BENCH_extension_optimizer.json
// as scalars, so the baseline gate catches a planner estimate that moves.
//
// Honours GAMMA_BENCH_SIZES like the reproduction benches.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "exec/predicate.h"
#include "opt/planner.h"

namespace gammadb::bench {
namespace {

namespace wis = gammadb::wisconsin;
using exec::Predicate;

constexpr double kTolerance = 1.10;

struct Tally {
  int rows = 0;
  int failures = 0;
};

void PrintRow(Tally& tally, const std::string& label, double est_sec,
              const std::string& chosen_desc, double chosen_sec,
              const std::string& best_desc, double best_sec) {
  const bool pass = chosen_sec <= kTolerance * best_sec;
  ++tally.rows;
  if (!pass) ++tally.failures;
  std::printf(
      "%-58s est %9.3f  chosen %9.3f [%s]  best forced %9.3f [%s]  %s\n",
      label.c_str(), est_sec, chosen_sec, chosen_desc.c_str(), best_sec,
      best_desc.c_str(), pass ? "PASS" : "FAIL");
}

/// Records a chosen plan's estimate beside its measured run.
void AddEstimate(JsonReport& report, const std::string& label,
                 double est_sec, double est_tuples) {
  report.AddScalar("est/" + label, est_sec);
  report.AddScalar("est_tuples/" + label, est_tuples);
}

// ---------------------------------------------------------------------------
// Selection grid (Table 1 shapes)
// ---------------------------------------------------------------------------

/// The seven Table 1 query shapes, expressed with kAuto so the planner is
/// free to choose; forced plans come from pinning each applicable path.
gamma::SelectQuery Table1Query(int row, uint32_t n) {
  gamma::SelectQuery query;
  const int32_t pct1 = static_cast<int32_t>(n / 100) - 1;
  const int32_t pct10 = static_cast<int32_t>(n / 10) - 1;
  switch (row) {
    case 0:
      query.relation = HeapName(n);
      query.predicate = Predicate::Range(wis::kUnique1, 0, pct1);
      break;
    case 1:
      query.relation = HeapName(n);
      query.predicate = Predicate::Range(wis::kUnique1, 0, pct10);
      break;
    case 2:
      query.relation = IndexedName(n);
      query.predicate = Predicate::Range(wis::kUnique2, 0, pct1);
      break;
    case 3:
      query.relation = IndexedName(n);
      query.predicate = Predicate::Range(wis::kUnique2, 0, pct10);
      break;
    case 4:
      query.relation = IndexedName(n);
      query.predicate = Predicate::Range(wis::kUnique1, 0, pct1);
      break;
    case 5:
      query.relation = IndexedName(n);
      query.predicate = Predicate::Range(wis::kUnique1, 0, pct10);
      break;
    case 6:
    default:
      query.relation = IndexedName(n);
      query.predicate =
          Predicate::Eq(wis::kUnique1, static_cast<int32_t>(n / 2));
      break;
  }
  return query;
}

void SweepSelections(Tally& tally, JsonReport& report) {
  std::printf("\nSelection grid (Table 1 shapes)\n");
  for (const uint32_t n : BenchSizes()) {
    gamma::GammaMachine machine(PaperGammaConfig());
    LoadGammaDatabase(machine, n, /*with_indices=*/true,
                      /*with_join_relations=*/false);
    const opt::Planner planner(machine);
    for (int row = 0; row < 7; ++row) {
      const gamma::SelectQuery base = Table1Query(row, n);
      const std::string label = base.relation + "/" +
                                opt::DescribePredicate(
                                    base.predicate,
                                    wis::WisconsinSchema());

      const auto chosen_plan = planner.PlanSelect(base);
      GAMMA_CHECK(chosen_plan.ok());
      const auto chosen = machine.RunSelect(chosen_plan->query);
      GAMMA_CHECK(chosen.ok());
      report.Add("chosen/" + label, *chosen);

      double best_sec = chosen->seconds();
      std::string best_desc = opt::AccessPathName(chosen_plan->query.access);
      const gamma::AccessPath paths[] = {gamma::AccessPath::kFileScan,
                                         gamma::AccessPath::kClusteredIndex,
                                         gamma::AccessPath::kNonClusteredIndex};
      for (const gamma::AccessPath path : paths) {
        gamma::SelectQuery forced = base;
        forced.access = path;
        // PlanSelect rejects paths with no usable index, so only valid
        // forced plans execute.
        const auto forced_plan = planner.PlanSelect(forced);
        if (!forced_plan.ok()) continue;
        const auto result = machine.RunSelect(forced_plan->query);
        GAMMA_CHECK(result.ok());
        report.Add(std::string("forced/") + opt::AccessPathName(path) + "/" +
                       label,
                   *result);
        if (result->seconds() < best_sec) {
          best_sec = result->seconds();
          best_desc = opt::AccessPathName(path);
        }
      }
      PrintRow(tally, label, chosen_plan->estimate.seconds,
               opt::AccessPathName(chosen_plan->query.access),
               chosen->seconds(), best_desc, best_sec);
      AddEstimate(report, label, chosen_plan->estimate.seconds,
                  chosen_plan->estimate.output_tuples);
    }
  }
}

// ---------------------------------------------------------------------------
// Join grids
// ---------------------------------------------------------------------------

/// Runs one join through the planner and against every forced
/// (mode x algorithm) combination drawn from `modes`/`algorithms`.
void CompareJoin(gamma::GammaMachine& machine, const gamma::JoinQuery& base,
                 const std::string& label,
                 const std::vector<gamma::JoinMode>& modes,
                 const std::vector<gamma::JoinAlgorithm>& algorithms,
                 Tally& tally, JsonReport& report) {
  const opt::Planner planner(machine);
  const auto chosen_plan = planner.PlanJoin(base);
  GAMMA_CHECK(chosen_plan.ok());
  const auto chosen = machine.RunJoin(chosen_plan->query);
  GAMMA_CHECK(chosen.ok());
  report.Add("chosen/" + label, *chosen);
  const std::string chosen_desc =
      std::string(opt::JoinAlgorithmName(chosen_plan->query.algorithm)) + "/" +
      opt::JoinModeName(chosen_plan->query.mode);

  double best_sec = chosen->seconds();
  std::string best_desc = chosen_desc;
  for (const gamma::JoinMode mode : modes) {
    for (const gamma::JoinAlgorithm algorithm : algorithms) {
      gamma::JoinQuery forced = base;
      forced.mode = mode;
      forced.algorithm = algorithm;
      // Same cardinality hint as the chosen plan, so only placement and
      // algorithm differ.
      forced.expected_build_tuples = chosen_plan->query.expected_build_tuples;
      const auto result = machine.RunJoin(forced);
      GAMMA_CHECK(result.ok());
      const std::string desc =
          std::string(opt::JoinAlgorithmName(algorithm)) + "/" +
          opt::JoinModeName(mode);
      report.Add("forced/" + desc + "/" + label, *result);
      if (result->seconds() < best_sec) {
        best_sec = result->seconds();
        best_desc = desc;
      }
    }
  }
  PrintRow(tally, label, chosen_plan->estimate.seconds, chosen_desc,
           chosen->seconds(), best_desc, best_sec);
  AddEstimate(report, label, chosen_plan->estimate.seconds,
              chosen_plan->estimate.output_tuples);
}

void SweepTable2Joins(Tally& tally, JsonReport& report) {
  std::printf(
      "\nJoin grid (Table 2 shapes; 4.8 MB aggregate join memory)\n");
  const std::vector<gamma::JoinMode> modes = {gamma::JoinMode::kLocal,
                                              gamma::JoinMode::kRemote,
                                              gamma::JoinMode::kAllnodes};
  const std::vector<gamma::JoinAlgorithm> algorithms = {
      gamma::JoinAlgorithm::kSimpleHash, gamma::JoinAlgorithm::kHybridHash,
      gamma::JoinAlgorithm::kSortMerge};
  for (const uint32_t n : BenchSizes()) {
    gamma::GammaConfig config = PaperGammaConfig();
    config.join_memory_total = 4800 * 1024;
    gamma::GammaMachine machine(config);
    LoadGammaDatabase(machine, n, /*with_indices=*/false,
                      /*with_join_relations=*/true);
    const int32_t tenth = static_cast<int32_t>(n / 10) - 1;
    for (const int attr : {wis::kUnique2, wis::kUnique1}) {
      const std::string key = attr == wis::kUnique1 ? "unique1" : "unique2";

      gamma::JoinQuery ab;
      ab.outer = HeapName(n);
      ab.inner = BprimeName(n);
      ab.outer_attr = attr;
      ab.inner_attr = attr;
      CompareJoin(machine, ab,
                  "joinABprime/" + key + "/n=" + std::to_string(n), modes,
                  algorithms, tally, report);

      gamma::JoinQuery aselb;
      aselb.outer = HeapName(n);
      aselb.inner = CopyName(n);
      aselb.outer_attr = attr;
      aselb.inner_attr = attr;
      aselb.outer_pred = Predicate::Range(attr, 0, tenth);
      aselb.inner_pred = Predicate::Range(attr, 0, tenth);
      CompareJoin(machine, aselb,
                  "joinAselB/" + key + "/n=" + std::to_string(n), modes,
                  algorithms, tally, report);

      // joinCselAselB: the second join of the two-step plan, with the
      // intermediate produced by an optimizer-planned joinAselB.
      const opt::Planner planner(machine);
      const auto first_plan = planner.PlanJoin(aselb);
      GAMMA_CHECK(first_plan.ok());
      const auto first = machine.RunJoin(first_plan->query);
      GAMMA_CHECK(first.ok());
      gamma::JoinQuery second;
      second.outer = first->result_relation;
      second.inner = CName(n);
      second.outer_attr = attr;
      second.inner_attr = attr;
      CompareJoin(machine, second,
                  "joinCselAselB(step2)/" + key + "/n=" + std::to_string(n),
                  modes, algorithms, tally, report);
    }
  }
}

void SweepFigureJoins(Tally& tally, JsonReport& report) {
  std::printf(
      "\nJoin-placement grid (Figures 9-12: joinABprime at 100k, "
      "1..8 processors)\n");
  const std::vector<gamma::JoinMode> modes = {gamma::JoinMode::kLocal,
                                              gamma::JoinMode::kRemote,
                                              gamma::JoinMode::kAllnodes};
  // The paper's grid varies placement only; Simple hash is Gamma's
  // algorithm throughout (no overflow at this memory size).
  const std::vector<gamma::JoinAlgorithm> algorithms = {
      gamma::JoinAlgorithm::kSimpleHash};
  constexpr uint32_t kN = 100000;
  for (const int attr : {wis::kUnique1, wis::kUnique2}) {
    const std::string key = attr == wis::kUnique1 ? "unique1" : "unique2";
    for (int procs = 1; procs <= 8; ++procs) {
      gamma::GammaConfig config = PaperGammaConfig();
      config.num_disk_nodes = procs;
      config.num_diskless_nodes = procs;
      config.join_memory_total = 8ull << 20;
      gamma::GammaMachine machine(config);
      LoadGammaDatabase(machine, kN, /*with_indices=*/false,
                        /*with_join_relations=*/true);
      gamma::JoinQuery query;
      query.outer = HeapName(kN);
      query.inner = BprimeName(kN);
      query.outer_attr = attr;
      query.inner_attr = attr;
      CompareJoin(machine, query,
                  "joinABprime/" + key + "/procs=" + std::to_string(procs),
                  modes, algorithms, tally, report);
    }
  }
}

}  // namespace
}  // namespace gammadb::bench

int main(int argc, char** argv) {
  using namespace gammadb::bench;
  InitBench(argc, argv);
  std::printf(
      "Optimizer validation: chosen plans vs. forced alternatives "
      "(tolerance %.0f%%)\n",
      (kTolerance - 1.0) * 100);
  Tally tally;
  JsonReport report("extension_optimizer");
  SweepSelections(tally, report);
  SweepTable2Joins(tally, report);
  SweepFigureJoins(tally, report);
  report.Write();
  std::printf("\n%d/%d grid queries within %.0f%% of the best forced plan\n",
              tally.rows - tally.failures, tally.rows,
              (kTolerance - 1.0) * 100);
  return tally.failures == 0 ? 0 : 1;
}
