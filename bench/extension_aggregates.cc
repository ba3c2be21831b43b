// Extension D: aggregate queries. The paper ran scalar and grouped
// aggregates but deferred the numbers to [DEWI88] for space; this bench
// records what the reproduced machine measures, using the local-aggregate /
// split-on-group / global-merge scheme of §2.

#include <cstdio>
#include <string>

#include "bench_util.h"

namespace gammadb::bench {
namespace {

namespace wis = gammadb::wisconsin;
constexpr uint32_t kN = 100000;

double RunAgg(gamma::GammaMachine& machine, int group_attr,
              exec::AggFunc func, uint64_t expected_groups,
              JsonReport& report, const std::string& label) {
  gamma::AggregateQuery query;
  query.relation = HeapName(kN);
  query.group_attr = group_attr;
  query.value_attr = wis::kUnique1;
  query.func = func;
  const auto result = machine.RunAggregate(query);
  GAMMA_CHECK(result.ok());
  GAMMA_CHECK(result->result_tuples == expected_groups);
  report.Add("gamma/" + label, *result);
  return result->seconds();
}

}  // namespace
}  // namespace gammadb::bench

int main(int argc, char** argv) {
  using namespace gammadb::bench;
  InitBench(argc, argv);
  JsonReport report("extension_aggregates");
  std::printf(
      "Extension D: aggregate queries (100k tuples; paper ran these, "
      "results deferred to [DEWI88])\n");

  FigureSeries scale("Scalar MIN aggregate vs. processors", "processors",
                     {"seconds", "speedup"});
  double base = 0;
  for (int procs = 1; procs <= 8; ++procs) {
    gammadb::gamma::GammaConfig config = PaperGammaConfig();
    config.num_disk_nodes = procs;
    config.num_diskless_nodes = procs;
    gammadb::gamma::GammaMachine machine(config);
    LoadGammaDatabase(machine, kN, false, false);
    const double seconds =
        RunAgg(machine, -1, gammadb::exec::AggFunc::kMin, 1, report,
               "scalar_min/procs=" + std::to_string(procs));
    if (procs == 1) base = seconds;
    scale.AddPoint(procs, {seconds, base / seconds});
  }
  scale.Print();

  gammadb::gamma::GammaMachine machine(PaperGammaConfig());
  LoadGammaDatabase(machine, kN, false, false);
  PaperTable table("Aggregate functions, 8 processors (model only)",
                   {"seconds"});
  table.AddRow("scalar COUNT(*)",
               {-1, RunAgg(machine, -1, gammadb::exec::AggFunc::kCount, 1,
                           report, "scalar_count")});
  table.AddRow("scalar MIN(unique1)",
               {-1, RunAgg(machine, -1, gammadb::exec::AggFunc::kMin, 1,
                           report, "scalar_min")});
  table.AddRow(
      "SUM(unique1) GROUP BY ten (10 groups)",
      {-1, RunAgg(machine, wis::kTen, gammadb::exec::AggFunc::kSum, 10,
                  report, "sum_group_by_ten")});
  table.AddRow("AVG(unique1) GROUP BY onePercent (100 groups)",
               {-1, RunAgg(machine, wis::kOnePercent,
                           gammadb::exec::AggFunc::kAvg, 100, report,
                           "avg_group_by_one_percent")});
  table.Print();
  std::printf(
      "Expected: aggregates are scan-bound, so scalar and few-group queries "
      "cost the same as a 0%% selection and scale near-linearly.\n");
  report.Write();
  return 0;
}
