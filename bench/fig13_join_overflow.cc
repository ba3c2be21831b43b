// Reproduces Figure 13: joinABprime (100k tuples) on the partitioning
// attribute with 16 query processors, as the aggregate hash-table memory
// shrinks from 1.2x to ~0.2x the size of the smaller (building) relation.
//
// Expected shapes (§6.2.2): response time is nearly flat through the first
// couple of overflows, then deteriorates rapidly (the Simple hash join
// re-reads and redistributes its spools every round). Local joins start
// *faster* than Remote (short-circuiting on the partitioning attribute) but
// the curves cross over once overflow occurs, because the overflow rounds
// switch hash functions and the short-circuit advantage evaporates.

#include <cstdio>

#include "bench_util.h"
#include "exec/hash_table.h"

namespace gammadb::bench {
namespace {

namespace wis = gammadb::wisconsin;
constexpr uint32_t kN = 100000;

struct Sample {
  double seconds;
  uint32_t overflow_rounds;
};

Sample RunJoin(gamma::JoinMode mode, double memory_ratio) {
  gamma::GammaConfig config = PaperGammaConfig();  // 8 disk + 8 diskless
  const uint64_t build_bytes =
      (kN / 10) *
      (wis::WisconsinSchema().tuple_size() +
       exec::JoinHashTable::kPerEntryOverhead);
  config.join_memory_total =
      static_cast<uint64_t>(memory_ratio * static_cast<double>(build_bytes));
  gamma::GammaMachine machine(config);
  // Only the two relations the join reads.
  LoadGammaRelation(machine, kN, HeapName(kN));
  LoadGammaRelation(machine, kN, BprimeName(kN));
  gamma::JoinQuery query;
  query.outer = HeapName(kN);
  query.inner = BprimeName(kN);
  query.outer_attr = wis::kUnique1;  // partitioning attribute
  query.inner_attr = wis::kUnique1;
  query.mode = mode;
  const auto result = machine.RunJoin(query);
  GAMMA_CHECK(result.ok());
  GAMMA_CHECK(result->result_tuples == kN / 10);
  return {result->seconds(), result->metrics.overflow_rounds};
}

}  // namespace
}  // namespace gammadb::bench

int main(int argc, char** argv) {
  using namespace gammadb::bench;
  InitBench(argc, argv);
  std::printf(
      "Reproduction of Figure 13: join overflow behaviour — joinABprime "
      "(100k) on the partitioning attribute, 16 query processors, memory "
      "swept relative to the building relation\n");

  FigureSeries fig13(
      "Figure 13: response time (seconds) and overflow rounds",
      "mem/|build|",
      {"Local", "Local ovf", "Remote", "Remote ovf"});
  for (const double ratio :
       {1.2, 1.0, 0.8, 0.6, 0.5, 0.4, 0.3, 0.25, 0.2}) {
    const Sample local = RunJoin(gammadb::gamma::JoinMode::kLocal, ratio);
    const Sample remote = RunJoin(gammadb::gamma::JoinMode::kRemote, ratio);
    fig13.AddPoint(ratio,
                   {local.seconds, static_cast<double>(local.overflow_rounds),
                    remote.seconds,
                    static_cast<double>(remote.overflow_rounds)});
  }
  fig13.Print();
  std::printf(
      "Paper shapes: flat from 0 to ~2 overflows, then rapid deterioration; "
      "Local beats Remote with no overflow but the curves cross once "
      "overflow redistribution switches hash functions.\n");
  return 0;
}
