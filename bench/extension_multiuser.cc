// Extension F: the multiuser expectation of §6.2.1 — "offloading the join
// operators to remote processors will allow the processors with disks to
// effectively support more concurrent selection and store operators. The
// validity of this expectation will be determined in future multiuser
// benchmarks." This bench runs that future benchmark on the reproduced
// machine twice over: an operational-analysis throughput bound (AnalyzeMix)
// and a measured closed-loop run of concurrent clients through the
// discrete-event workload scheduler, with 2PL locking, queueing at every
// node's disk/CPU/NIC and the shared ring.

#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "bench_util.h"
#include "exec/predicate.h"
#include "sim/multiuser.h"
#include "sim/workload.h"

namespace gammadb::bench {
namespace {

namespace wis = gammadb::wisconsin;
using exec::Predicate;
constexpr uint32_t kN = 100000;
constexpr int kClients = 12;

const char* ResourceName(sim::Resource resource) {
  switch (resource) {
    case sim::Resource::kDisk:
      return "disk";
    case sim::Resource::kCpu:
      return "cpu";
    case sim::Resource::kNet:
      return "net";
    case sim::Resource::kNone:
      return "none";
  }
  return "?";
}

/// Runs the §6.2.1 mix (four 1% selections per joinABprime) as kClients
/// closed-loop zero-think clients until ~260 mixes commit past warmup.
/// Scripts are rotated per client so selections and joins interleave from
/// the start instead of moving in lockstep convoys.
sim::WorkloadReport RunMix(gamma::GammaMachine& machine,
                           const sim::TxnSpec& select_spec,
                           const sim::TxnSpec& join_spec,
                           double bound_mixes_per_sec, uint64_t seed) {
  sim::WorkloadOptions options;
  options.warmup_sec = 20.0 / bound_mixes_per_sec;
  options.duration_sec = options.warmup_sec + 260.0 / bound_mixes_per_sec;
  options.seed = seed;
  sim::WorkloadDriver driver(&machine, options);
  const std::vector<sim::TxnSpec> base = {select_spec, select_spec,
                                          select_spec, select_spec,
                                          join_spec};
  for (int c = 0; c < kClients; ++c) {
    sim::ClientSpec client;
    for (size_t s = 0; s < base.size(); ++s) {
      client.script.push_back(base[(s + c) % base.size()]);
    }
    GAMMA_CHECK(driver.AddClient(client).ok());
  }
  auto report = driver.Run();
  GAMMA_CHECK_MSG(report.ok(), report.status().ToString().c_str());
  return std::move(report).value();
}

}  // namespace
}  // namespace gammadb::bench

int main(int argc, char** argv) {
  using namespace gammadb::bench;
  namespace sim = gammadb::sim;
  InitBench(argc, argv);
  std::printf(
      "Extension F: multiuser throughput for a mix of selections plus one "
      "join, by join placement (100k tuples)\n"
      "bound = operational-analysis busiest-resource bound; measured = "
      "closed-loop run of %d concurrent clients\n\n",
      kClients);

  gammadb::gamma::GammaMachine machine(PaperGammaConfig());
  LoadGammaDatabase(machine, kN, /*with_indices=*/false,
                    /*with_join_relations=*/true);
  JsonReport json("extension_multiuser");

  // The mix: four 1% selections (stored) per joinABprime.
  gammadb::gamma::SelectQuery select;
  select.relation = HeapName(kN);
  select.predicate = Predicate::Range(wis::kUnique1, 0, kN / 100 - 1);
  select.access = gammadb::gamma::AccessPath::kFileScan;
  const auto select_profile = sim::ProfileStatement(machine, select);
  GAMMA_CHECK(select_profile.ok());
  sim::TxnSpec select_spec;
  select_spec.label = "select";
  select_spec.statements = {select};
  select_spec.profiles = {*select_profile};

  uint64_t seed = 0xF00D;
  for (const auto& [attr_label, attr_key, attr] :
       {std::tuple{"non-partitioning attribute (unique2)", "u2",
                   wis::kUnique2},
        std::tuple{"partitioning attribute (unique1)", "u1", wis::kUnique1}}) {
    std::printf("join on %s:\n", attr_label);
    std::printf("%-10s %13s %12s %12s %6s %11s %11s %12s\n", "placement",
                "join resp (s)", "bound/hr", "measured/hr", "ratio",
                "sel p95 (s)", "join p95 (s)", "bottleneck");
    double local_select_tput = 0;
    for (const auto& [name, key, mode] :
         {std::tuple{"Local", "local", gammadb::gamma::JoinMode::kLocal},
          std::tuple{"Remote", "remote", gammadb::gamma::JoinMode::kRemote},
          std::tuple{"Allnodes", "allnodes",
                     gammadb::gamma::JoinMode::kAllnodes}}) {
      gammadb::gamma::JoinQuery join;
      join.outer = HeapName(kN);
      join.inner = BprimeName(kN);
      join.outer_attr = attr;
      join.inner_attr = attr;
      join.mode = mode;
      const auto join_profile = sim::ProfileStatement(machine, join);
      GAMMA_CHECK(join_profile.ok());
      sim::TxnSpec join_spec;
      join_spec.label = "join";
      join_spec.statements = {join};
      join_spec.profiles = {*join_profile};

      std::vector<sim::MixItem> mix;
      mix.push_back({*select_profile, 4.0});
      mix.push_back({*join_profile, 1.0});
      const auto bound = sim::AnalyzeMix(
          mix, machine.config().tracker_nodes(),
          machine.config().scheduler_node(), machine.config().hw);

      const sim::WorkloadReport run = RunMix(
          machine, select_spec, join_spec, bound.max_mixes_per_sec, ++seed);
      const sim::ClassReport* sel_class = run.Class("select");
      const sim::ClassReport* join_class = run.Class("join");
      GAMMA_CHECK(sel_class != nullptr && join_class != nullptr);
      const double measured = join_class->throughput_per_sec;
      const double ratio = measured / bound.max_mixes_per_sec;

      char bottleneck[64];
      if (bound.ring_limited) {
        std::snprintf(bottleneck, sizeof(bottleneck), "ring");
      } else {
        std::snprintf(bottleneck, sizeof(bottleneck), "%s@node%d",
                      ResourceName(bound.bottleneck_resource),
                      bound.bottleneck_node);
      }
      std::printf("%-10s %13.2f %12.1f %12.1f %6.3f %11.2f %11.2f %12s\n",
                  name, join_profile->TotalSec(),
                  3600.0 * bound.max_mixes_per_sec, 3600.0 * measured, ratio,
                  sel_class->p95_response_sec, join_class->p95_response_sec,
                  bottleneck);

      // Read-only mix under multi-granularity S/IS locks: nothing may
      // block, and the measured rate must sit within 10% of the bound.
      GAMMA_CHECK(run.deadlocks == 0 && run.aborted_retries == 0);
      GAMMA_CHECK(ratio > 0.90 && ratio < 1.02);

      const std::string prefix = std::string(attr_key) + "_" + key + "_";
      json.AddScalar(prefix + "bound_mixes_hr",
                     3600.0 * bound.max_mixes_per_sec);
      json.AddScalar(prefix + "measured_mixes_hr", 3600.0 * measured);
      json.AddScalar(prefix + "measured_over_bound", ratio);
      json.AddScalar(prefix + "select_p50_s", sel_class->p50_response_sec);
      json.AddScalar(prefix + "select_p95_s", sel_class->p95_response_sec);
      json.AddScalar(prefix + "select_p99_s", sel_class->p99_response_sec);
      json.AddScalar(prefix + "join_p50_s", join_class->p50_response_sec);
      json.AddScalar(prefix + "join_p95_s", join_class->p95_response_sec);
      json.AddScalar(prefix + "join_p99_s", join_class->p99_response_sec);
      json.AddScalar(prefix + "bottleneck_utilization",
                     run.bottleneck_utilization);

      if (mode == gammadb::gamma::JoinMode::kLocal) {
        local_select_tput = sel_class->throughput_per_sec;
      } else if (attr == wis::kUnique2) {
        // The §6.2.1 expectation, now measured rather than bounded:
        // off-disk join placement lets the disk nodes push more
        // selections through.
        GAMMA_CHECK(sel_class->throughput_per_sec > local_select_tput);
      }
    }
    std::printf("\n");
  }
  std::printf(
      "Finding: the measured closed-loop runs land on the analytic bound "
      "(ratio ~1),\nand the §6.2.1 expectation holds for joins that must "
      "redistribute\n(non-partitioning attribute) — Remote placement lifts "
      "mix throughput by\nmoving join CPU off the saturated disk nodes. For "
      "partitioning-attribute\njoins it does NOT hold in this model: Local "
      "short-circuits the entire input\nstream, so shipping it to remote "
      "processors costs the disk nodes *more* CPU\n(packet protocol) than "
      "the join itself would.\n");
  json.Write();
  return 0;
}
