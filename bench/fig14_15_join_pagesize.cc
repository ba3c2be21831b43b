// Reproduces Figures 14 and 15: joinAselB (100k tuples) with 16 query
// processors as the disk page size varies from 2 KB to 32 KB; memory large
// enough that no overflow occurs.
//
// Expected shape (§6.2.3): response time improves significantly with page
// size but levels off by 16 KB — joins are bounded below by the selection
// time of the inputs, so the curves echo the 10% non-indexed selection of
// Figure 6.

#include <cstdio>

#include "bench_util.h"
#include "exec/predicate.h"

namespace gammadb::bench {
namespace {

namespace wis = gammadb::wisconsin;
using exec::Predicate;
constexpr uint32_t kN = 100000;
constexpr uint32_t kPageSizes[] = {2048, 4096, 8192, 16384, 32768};

double RunJoinAselB(uint32_t page_size, gamma::JoinMode mode) {
  gamma::GammaConfig config = PaperGammaConfig();
  config.page_size = page_size;
  config.join_memory_total = 8ull << 20;
  gamma::GammaMachine machine(config);
  // Only the two relations the join reads.
  LoadGammaRelation(machine, kN, HeapName(kN));
  LoadGammaRelation(machine, kN, CopyName(kN));
  gamma::JoinQuery query;
  query.outer = HeapName(kN);
  query.inner = CopyName(kN);
  query.outer_attr = wis::kUnique2;
  query.inner_attr = wis::kUnique2;
  query.outer_pred = Predicate::Range(wis::kUnique2, 0, kN / 10 - 1);
  query.inner_pred = Predicate::Range(wis::kUnique2, 0, kN / 10 - 1);
  query.expected_build_tuples = kN / 10;
  query.mode = mode;
  const auto result = machine.RunJoin(query);
  GAMMA_CHECK(result.ok());
  GAMMA_CHECK(result->result_tuples == kN / 10);
  GAMMA_CHECK(result->metrics.overflow_rounds == 0);
  return result->seconds();
}

}  // namespace
}  // namespace gammadb::bench

int main(int argc, char** argv) {
  using namespace gammadb::bench;
  InitBench(argc, argv);
  std::printf(
      "Reproduction of Figures 14 & 15: joinAselB (100k, 16 query "
      "processors) vs. disk page size\n");

  FigureSeries fig14("Figure 14: response time (seconds)", "page KB",
                     {"Local", "Remote", "Allnodes"});
  FigureSeries fig15("Figure 15: speedup vs. 2KB pages", "page KB",
                     {"Local", "Remote", "Allnodes"});
  const gammadb::gamma::JoinMode modes[] = {
      gammadb::gamma::JoinMode::kLocal, gammadb::gamma::JoinMode::kRemote,
      gammadb::gamma::JoinMode::kAllnodes};
  double base[3] = {0, 0, 0};
  for (const uint32_t page_size : kPageSizes) {
    double response[3];
    for (int m = 0; m < 3; ++m) {
      response[m] = RunJoinAselB(page_size, modes[m]);
      if (page_size == kPageSizes[0]) base[m] = response[m];
    }
    fig14.AddPoint(page_size / 1024.0,
                   {response[0], response[1], response[2]});
    fig15.AddPoint(page_size / 1024.0,
                   {base[0] / response[0], base[1] / response[1],
                    base[2] / response[2]});
  }
  fig14.Print();
  fig15.Print();
  std::printf(
      "Paper shape: significant improvement up to 16KB pages, then level "
      "(joins bounded by the input selections).\n");
  return 0;
}
