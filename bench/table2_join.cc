// Reproduces Table 2 of the paper: the three join queries (joinABprime,
// joinAselB, joinCselAselB) on non-key and key attributes, on both machines.
//
// Gamma runs in Remote mode with 4 KB pages and 4.8 MB total hash-table
// memory — enough for the 10k/100k joins but forcing multiple Simple
// hash-join overflow rounds for the million-tuple queries, exactly as in
// the paper (§6.1). joinCselAselB runs as two joins with the intermediate
// stored round-robin.

#include <cstdio>
#include <map>

#include "bench_util.h"
#include "common/macros.h"
#include "exec/predicate.h"
#include "obs/profile.h"

namespace gammadb::bench {
namespace {

namespace wis = gammadb::wisconsin;
using exec::Predicate;

struct PaperCell {
  double teradata;
  double gamma;
};
// {row, size} -> paper values (seconds).
const std::map<std::pair<int, uint32_t>, PaperCell> kPaper = {
    {{0, 10000}, {34.9, 6.5}},   {{0, 100000}, {321.8, 47.6}},
    {{0, 1000000}, {3419.4, 2938.2}},
    {{1, 10000}, {35.6, 5.1}},   {{1, 100000}, {331.7, 34.9}},
    {{1, 1000000}, {3534.5, 703.1}},
    {{2, 10000}, {27.8, 7.0}},   {{2, 100000}, {191.8, 38.0}},
    {{2, 1000000}, {2032.7, 731.2}},
    {{3, 10000}, {22.2, 5.7}},   {{3, 100000}, {131.3, 45.6}},
    {{3, 1000000}, {1265.1, 2926.7}},
    {{4, 10000}, {25.0, 5.0}},   {{4, 100000}, {170.3, 34.1}},
    {{4, 1000000}, {1584.3, 737.7}},
    {{5, 10000}, {23.8, 7.2}},   {{5, 100000}, {156.7, 37.4}},
    {{5, 1000000}, {1509.6, 712.8}},
};

const char* kRowNames[] = {
    "joinABprime, non-key attributes",
    "joinAselB, non-key attributes",
    "joinCselAselB, non-key attributes",
    "joinABprime, key attributes",
    "joinAselB, key attributes",
    "joinCselAselB, key attributes",
};

/// Gamma rows. `attr` is unique2 (non-key rows) or unique1 (key rows).
double RunGammaRow(gamma::GammaMachine& machine, int row, uint32_t n,
                   JsonReport& report) {
  const int attr = row < 3 ? wis::kUnique2 : wis::kUnique1;
  const int32_t tenth = static_cast<int32_t>(n / 10) - 1;
  const int variant = row % 3;

  gamma::JoinQuery join;
  join.mode = gamma::JoinMode::kRemote;
  join.outer_attr = attr;
  join.inner_attr = attr;
  switch (variant) {
    case 0:  // joinABprime
      join.outer = HeapName(n);
      join.inner = BprimeName(n);
      break;
    case 1:  // joinAselB with selection propagation (§6.1)
      join.outer = HeapName(n);
      join.inner = CopyName(n);
      join.outer_pred = Predicate::Range(attr, 0, tenth);
      join.inner_pred = Predicate::Range(attr, 0, tenth);
      join.expected_build_tuples = n / 10;
      break;
    case 2:  // joinCselAselB: selAselB join first, then join with C
      join.outer = HeapName(n);
      join.inner = CopyName(n);
      join.outer_pred = Predicate::Range(attr, 0, tenth);
      join.inner_pred = Predicate::Range(attr, 0, tenth);
      join.expected_build_tuples = n / 10;
      break;
    default:
      return -1;
  }
  const auto first = machine.RunJoin(join);
  if (!first.ok()) {
    std::fprintf(stderr, "gamma join failed: %s\n",
                 first.status().ToString().c_str());
    return -1;
  }
  if (attr == wis::kUnique1) {
    // Key-attribute rows redistribute a unique (perfectly uniform) key:
    // the routed-tuple balance must read ~1.0, anchoring the skew scalar
    // the skew-join extension bench perturbs.
    const double imbalance =
        obs::ComputeUtilization(first->metrics).skew_imbalance;
    GAMMA_CHECK_MSG(imbalance < 1.1, "uniform join should be balanced");
  }
  if (variant != 2) {
    report.Add("gamma/" + std::string(kRowNames[row]) + "/n=" +
                   std::to_string(n),
               *first);
    return first->seconds();
  }

  // Second join: the intermediate (schema B ++ A; B's attributes first)
  // with C. C is the smaller relation and builds.
  gamma::JoinQuery second;
  second.mode = gamma::JoinMode::kRemote;
  second.outer = first->result_relation;
  second.inner = CName(n);
  second.outer_attr = attr;  // the B-part attribute of the intermediate
  second.inner_attr = attr;
  second.expected_build_tuples = n / 10;
  const auto final_join = machine.RunJoin(second);
  if (!final_join.ok()) {
    std::fprintf(stderr, "gamma join 2 failed: %s\n",
                 final_join.status().ToString().c_str());
    return -1;
  }
  report.Add("gamma/" + std::string(kRowNames[row]) + "/join1/n=" +
                 std::to_string(n),
             *first);
  report.Add("gamma/" + std::string(kRowNames[row]) + "/join2/n=" +
                 std::to_string(n),
             *final_join);
  return first->seconds() + final_join->seconds();
}

/// Teradata rows, reported under the same labels with a "teradata/" prefix.
double RunTeradataRow(teradata::TeradataMachine& machine, int row, uint32_t n,
                      JsonReport& report) {
  const int attr = row < 3 ? wis::kUnique2 : wis::kUnique1;
  const int32_t tenth = static_cast<int32_t>(n / 10) - 1;
  const int variant = row % 3;

  teradata::TdJoinQuery join;
  join.outer_attr = attr;
  join.inner_attr = attr;
  switch (variant) {
    case 0:
      join.outer = IndexedName(n);
      join.inner = BprimeName(n);
      break;
    case 1:
      // No selection propagation (§6.1): A is redistributed and sorted in
      // full; only B carries the 10% restriction.
      join.outer = IndexedName(n);
      join.inner = CopyName(n);
      join.inner_pred = Predicate::Range(attr, 0, tenth);
      break;
    case 2:
      // Both inputs carry explicit 10% restrictions in the query itself.
      join.outer = IndexedName(n);
      join.inner = CopyName(n);
      join.outer_pred = Predicate::Range(attr, 0, tenth);
      join.inner_pred = Predicate::Range(attr, 0, tenth);
      join.result_is_temp = true;
      break;
    default:
      return -1;
  }
  const auto first = machine.RunJoin(join);
  if (!first.ok()) {
    std::fprintf(stderr, "teradata join failed: %s\n",
                 first.status().ToString().c_str());
    return -1;
  }
  if (variant != 2) {
    report.Add("teradata/" + std::string(kRowNames[row]) + "/n=" +
                   std::to_string(n),
               *first);
    return first->seconds();
  }

  teradata::TdJoinQuery second;
  second.outer = first->result_relation;
  second.inner = CName(n);
  second.outer_attr = attr;
  second.inner_attr = attr;
  const auto final_join = machine.RunJoin(second);
  if (!final_join.ok()) {
    std::fprintf(stderr, "teradata join 2 failed: %s\n",
                 final_join.status().ToString().c_str());
    return -1;
  }
  report.Add("teradata/" + std::string(kRowNames[row]) + "/join1/n=" +
                 std::to_string(n),
             *first);
  report.Add("teradata/" + std::string(kRowNames[row]) + "/join2/n=" +
                 std::to_string(n),
             *final_join);
  return first->seconds() + final_join->seconds();
}

}  // namespace
}  // namespace gammadb::bench

int main(int argc, char** argv) {
  using namespace gammadb::bench;
  InitBench(argc, argv);
  std::printf("Reproduction of Table 2: Join Queries\n");
  std::printf("(Gamma: Remote mode, 4.8 MB aggregate hash-table memory)\n");
  JsonReport report("table2_join");
  for (const uint32_t n : BenchSizes()) {
    gammadb::gamma::GammaConfig config = PaperGammaConfig();
    config.join_memory_total = 4800 * 1024;  // §6.1: 4.8 MB total

    gammadb::gamma::GammaMachine gamma_machine(config);
    LoadGammaDatabase(gamma_machine, n, /*with_indices=*/false,
                      /*with_join_relations=*/true);
    gammadb::teradata::TeradataMachine td_machine(PaperTeradataConfig());
    LoadTeradataDatabase(td_machine, n, /*with_index=*/false,
                         /*with_join_relations=*/true);

    PaperTable table("Table 2 (n = " + std::to_string(n) + " tuples), seconds",
                     {"Teradata", "Gamma"});
    for (int row = 0; row < 6; ++row) {
      const auto paper_it = kPaper.find({row, n});
      const PaperCell paper =
          paper_it != kPaper.end() ? paper_it->second : PaperCell{-1, -1};
      const double td = RunTeradataRow(td_machine, row, n, report);
      const double gm = RunGammaRow(gamma_machine, row, n, report);
      table.AddRow(kRowNames[row], {paper.teradata, td, paper.gamma, gm});
    }
    table.Print();
  }
  report.Write();
  return 0;
}
