// Reproduces Figures 9-12: joinABprime on the 100,000-tuple relation as
// processors with disks grow 1..8, for the three join placements
// (Local / Remote / Allnodes), on the partitioning attribute (Figs 9, 11)
// and on a non-partitioning attribute (Figs 10, 12).
//
// Expected shapes (§6.2.1): for joins on the partitioning attribute Local is
// fastest (every input tuple short-circuits); on non-partitioning attributes
// the ordering mirrors (Remote fastest, Local slowest — CPU contention at
// the disk nodes without any short-circuit benefit); speedups, referenced to
// the 2-processor point, are near linear. Aggregate hash-table memory is
// held constant as processors vary (§1).

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "bench_util.h"
#include "sim/host_pool.h"

namespace gammadb::bench {
namespace {

namespace wis = gammadb::wisconsin;

/// Relation size for the grid; GAMMA_FIG09_N overrides (e.g. 1000000 for the
/// host-parallel wall-clock speedup measurement on the 1M join grid).
uint32_t GridSize() {
  const char* env = std::getenv("GAMMA_FIG09_N");
  if (env != nullptr && *env != '\0') {
    return static_cast<uint32_t>(std::strtoul(env, nullptr, 10));
  }
  return 100000;
}

const uint32_t kN = GridSize();

double RunJoin(int procs, gamma::JoinMode mode, int attr,
               JsonReport& report) {
  gamma::GammaConfig config = PaperGammaConfig();
  config.num_disk_nodes = procs;
  config.num_diskless_nodes = procs;
  config.join_memory_total = 8ull << 20;  // constant total; no overflow
  gamma::GammaMachine machine(config);
  // Only the two relations the join reads.
  LoadGammaRelation(machine, kN, HeapName(kN));
  LoadGammaRelation(machine, kN, BprimeName(kN));
  gamma::JoinQuery query;
  query.outer = HeapName(kN);
  query.inner = BprimeName(kN);
  query.outer_attr = attr;
  query.inner_attr = attr;
  query.mode = mode;
  const auto result = machine.RunJoin(query);
  GAMMA_CHECK(result.ok());
  GAMMA_CHECK(result->result_tuples == kN / 10);
  GAMMA_CHECK(result->metrics.overflow_rounds == 0);
  const char* mode_name = mode == gamma::JoinMode::kLocal    ? "Local"
                          : mode == gamma::JoinMode::kRemote ? "Remote"
                                                             : "Allnodes";
  report.Add("joinABprime/" + std::string(mode_name) + "/attr=" +
                 (attr == wis::kUnique1 ? "unique1" : "unique2") +
                 "/procs=" + std::to_string(procs),
             *result);
  return result->seconds();
}

}  // namespace
}  // namespace gammadb::bench

int main(int argc, char** argv) {
  using namespace gammadb::bench;
  InitBench(argc, argv);
  std::printf(
      "Reproduction of Figures 9-12: joinABprime (100k) vs. processors "
      "with disks, by join placement\n");

  const gammadb::gamma::JoinMode modes[] = {
      gammadb::gamma::JoinMode::kLocal, gammadb::gamma::JoinMode::kRemote,
      gammadb::gamma::JoinMode::kAllnodes};
  const struct {
    const char* fig_resp;
    const char* fig_speedup;
    int attr;
  } variants[] = {
      {"Figure 9: response time, join on partitioning attribute (seconds)",
       "Figure 11: speedup (vs. 2 processors), partitioning attribute",
       gammadb::wisconsin::kUnique1},
      {"Figure 10: response time, join on non-partitioning attribute "
       "(seconds)",
       "Figure 12: speedup (vs. 2 processors), non-partitioning attribute",
       gammadb::wisconsin::kUnique2},
  };

  JsonReport report("fig09_12_join_speedup");
  const auto run_grid = [&](JsonReport& rep, bool print) {
    for (const auto& variant : variants) {
      FigureSeries resp(variant.fig_resp, "processors",
                        {"Local", "Remote", "Allnodes"});
      FigureSeries speedup(variant.fig_speedup, "processors",
                           {"Local", "Remote", "Allnodes"});
      double base[3] = {0, 0, 0};
      for (int procs = 1; procs <= 8; ++procs) {
        double response[3];
        for (int m = 0; m < 3; ++m) {
          response[m] = RunJoin(procs, modes[m], variant.attr, rep);
          if (procs == 2) base[m] = response[m];
        }
        resp.AddPoint(procs, {response[0], response[1], response[2]});
        if (procs >= 2) {
          speedup.AddPoint(procs,
                           {2.0 * base[0] / response[0],
                            2.0 * base[1] / response[1],
                            2.0 * base[2] / response[2]});
        }
      }
      if (print) {
        resp.Print();
        speedup.Print();
      }
    }
  };

  const auto wall = [] {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  };
  auto& pool = gammadb::sim::HostPool::Instance();
  const int threads = pool.num_threads();
  const double t0 = wall();
  run_grid(report, /*print=*/true);
  const double parallel_sec = wall() - t0;

  // Host wall-clock speedup of the whole grid vs. a single-threaded run of
  // the identical work (simulated results are byte-identical either way).
  double serial_sec = parallel_sec;
  if (threads > 1) {
    JsonReport scratch("fig09_12_join_speedup_scratch_unwritten");
    pool.set_num_threads(1);
    const double t1 = wall();
    run_grid(scratch, /*print=*/false);
    serial_sec = wall() - t1;
    pool.set_num_threads(threads);
  }
  report.AddScalar("host_wall_clock_sec/threads=" + std::to_string(threads),
                   parallel_sec);
  report.AddScalar("host_wall_clock_sec/threads=1", serial_sec);
  report.AddScalar("host_wall_clock_speedup", serial_sec / parallel_sec);
  std::printf("host wall clock: %.2fs at %d thread(s), %.2fs at 1 thread "
              "(speedup %.2fx)\n",
              parallel_sec, threads, serial_sec, serial_sec / parallel_sec);

  std::printf(
      "Paper shapes: partitioning-attribute joins: Local < Allnodes < "
      "Remote; non-partitioning: Remote < Allnodes < Local (mirrored); "
      "near-linear speedups from the 2-processor reference.\n");
  report.Write();
  return 0;
}
