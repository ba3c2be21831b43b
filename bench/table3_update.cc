// Reproduces Table 3 of the paper: single-tuple append / delete / modify
// queries on both machines. Gamma runs full concurrency control with
// partial recovery (deferred-update files for the indices); Teradata runs
// full concurrency control and recovery on every change.
//
// BENCH_table3_update.json carries one row per cell and machine
// ("<machine>/<row>/n=<n>") plus the published value of each cell as a
// scalar ("paper/<machine>/<row>/n=<n>"; -1 where the paper has none).

#include <cstdio>
#include <map>

#include "bench_util.h"

namespace gammadb::bench {
namespace {

namespace wis = gammadb::wisconsin;

struct PaperCell {
  double teradata;
  double gamma;
};
const std::map<std::pair<int, uint32_t>, PaperCell> kPaper = {
    {{0, 10000}, {0.87, 0.18}}, {{0, 100000}, {1.29, 0.18}},
    {{0, 1000000}, {1.47, 0.20}},
    {{1, 10000}, {0.94, 0.60}}, {{1, 100000}, {1.62, 0.63}},
    {{1, 1000000}, {1.73, 0.66}},
    {{2, 10000}, {0.71, 0.44}}, {{2, 100000}, {0.42, 0.56}},
    {{2, 1000000}, {0.71, 0.61}},
    {{3, 10000}, {2.62, 1.01}}, {{3, 100000}, {2.99, 0.86}},
    {{3, 1000000}, {4.82, 1.13}},
    {{4, 10000}, {0.49, 0.36}}, {{4, 100000}, {0.90, 0.36}},
    {{4, 1000000}, {1.12, 0.36}},
    {{5, 10000}, {0.84, 0.50}}, {{5, 100000}, {1.16, 0.46}},
    {{5, 1000000}, {3.72, 0.52}},
};

const char* kRowNames[] = {
    "append 1 tuple (no indices)",
    "append 1 tuple (one index)",
    "delete 1 tuple (via index)",
    "modify 1 tuple (key attribute; relocates)",
    "modify 1 tuple (non-indexed attribute)",
    "modify 1 tuple (attr with non-clust index)",
};

std::vector<uint8_t> FreshTuple(uint32_t n, int delta) {
  catalog::TupleBuilder builder(&wis::WisconsinSchema());
  builder.SetInt(wis::kUnique1, static_cast<int32_t>(n) + 100 + delta);
  builder.SetInt(wis::kUnique2, static_cast<int32_t>(n) + 100 + delta);
  return {builder.bytes().begin(), builder.bytes().end()};
}

exec::QueryResult RunGammaRow(gamma::GammaMachine& machine, int row,
                              uint32_t n) {
  const int32_t mid = static_cast<int32_t>(n / 2);
  switch (row) {
    case 0: {
      gamma::AppendQuery query{HeapName(n), FreshTuple(n, 0)};
      return *machine.RunAppend(query);
    }
    case 1: {
      gamma::AppendQuery query{IndexedName(n), FreshTuple(n, 1)};
      return *machine.RunAppend(query);
    }
    case 2: {
      gamma::DeleteQuery query{IndexedName(n), wis::kUnique1, mid};
      return *machine.RunDelete(query);
    }
    case 3: {
      gamma::ModifyQuery query{IndexedName(n), wis::kUnique1, mid + 1,
                               wis::kUnique1,
                               static_cast<int32_t>(n) + 500};
      return *machine.RunModify(query);
    }
    case 4: {
      gamma::ModifyQuery query{IndexedName(n), wis::kUnique1, mid + 2,
                               wis::kOddOnePercent, 999};
      return *machine.RunModify(query);
    }
    case 5: {
      gamma::ModifyQuery query{IndexedName(n), wis::kUnique2, mid + 3,
                               wis::kUnique2,
                               static_cast<int32_t>(n) + 600};
      return *machine.RunModify(query);
    }
    default:
      return {};
  }
}

exec::QueryResult RunTeradataRow(teradata::TeradataMachine& machine, int row,
                                 uint32_t n) {
  const int32_t mid = static_cast<int32_t>(n / 2);
  const std::string bare = HeapName(n);     // no secondary index
  const std::string indexed = IndexedName(n);
  switch (row) {
    case 0: {
      teradata::TdAppendQuery query{bare, FreshTuple(n, 0)};
      return *machine.RunAppend(query);
    }
    case 1: {
      teradata::TdAppendQuery query{indexed, FreshTuple(n, 1)};
      return *machine.RunAppend(query);
    }
    case 2: {
      teradata::TdDeleteQuery query{indexed, wis::kUnique1, mid};
      return *machine.RunDelete(query);
    }
    case 3: {
      teradata::TdModifyQuery query{indexed, wis::kUnique1, mid + 1,
                                    wis::kUnique1,
                                    static_cast<int32_t>(n) + 500};
      return *machine.RunModify(query);
    }
    case 4: {
      teradata::TdModifyQuery query{indexed, wis::kUnique1, mid + 2,
                                    wis::kOddOnePercent, 999};
      return *machine.RunModify(query);
    }
    case 5: {
      teradata::TdModifyQuery query{indexed, wis::kUnique2, mid + 3,
                                    wis::kUnique2,
                                    static_cast<int32_t>(n) + 600};
      return *machine.RunModify(query);
    }
    default:
      return {};
  }
}

}  // namespace
}  // namespace gammadb::bench

int main(int argc, char** argv) {
  using namespace gammadb::bench;
  InitBench(argc, argv);
  std::printf("Reproduction of Table 3: Update Queries\n");
  JsonReport report("table3_update");
  for (const uint32_t n : BenchSizes()) {
    gammadb::gamma::GammaMachine gamma_machine(PaperGammaConfig());
    LoadGammaDatabase(gamma_machine, n, /*with_indices=*/true,
                      /*with_join_relations=*/false);
    gammadb::teradata::TeradataMachine td_machine(PaperTeradataConfig());
    // "HeapName" on the Teradata side: a copy without the secondary index.
    {
      const auto tuples = gammadb::wisconsin::GenerateWisconsin(n, kASeed);
      GAMMA_CHECK(td_machine
                      .CreateRelation(HeapName(n),
                                      gammadb::wisconsin::WisconsinSchema(),
                                      gammadb::wisconsin::kUnique1)
                      .ok());
      GAMMA_CHECK(td_machine.LoadTuples(HeapName(n), tuples).ok());
    }
    LoadTeradataDatabase(td_machine, n, /*with_index=*/true,
                         /*with_join_relations=*/false);

    PaperTable table("Table 3 (n = " + std::to_string(n) + " tuples), seconds",
                     {"Teradata", "Gamma"});
    for (int row = 0; row < 6; ++row) {
      const auto paper_it = kPaper.find({row, n});
      const PaperCell paper =
          paper_it != kPaper.end() ? paper_it->second : PaperCell{-1, -1};
      const gammadb::exec::QueryResult td = RunTeradataRow(td_machine, row, n);
      const gammadb::exec::QueryResult gm = RunGammaRow(gamma_machine, row, n);
      const std::string cell =
          std::string(kRowNames[row]) + "/n=" + std::to_string(n);
      report.Add("teradata/" + cell, td);
      report.AddScalar("paper/teradata/" + cell, paper.teradata);
      report.Add("gamma/" + cell, gm);
      report.AddScalar("paper/gamma/" + cell, paper.gamma);
      table.AddRow(kRowNames[row],
                   {paper.teradata, td.seconds(), paper.gamma, gm.seconds()});
    }
    table.Print();
  }
  report.Write();
  return 0;
}
