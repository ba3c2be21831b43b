#include "bench_util.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <thread>
#include <tuple>
#include <utility>

#include <filesystem>

#include "common/macros.h"
#include "obs/journal.h"
#include "obs/metrics_registry.h"
#include "obs/profile.h"
#include "sim/host_pool.h"

namespace gammadb::bench {

namespace wis = gammadb::wisconsin;

namespace {

// Build stamps injected by bench/CMakeLists.txt so every BENCH_*.json says
// which build produced it (a sanitized build's wall clock is not comparable
// to a release build's).
#ifndef GAMMA_BUILD_TYPE
#define GAMMA_BUILD_TYPE "unknown"
#endif
#ifndef GAMMA_SANITIZE_FLAVOR
#define GAMMA_SANITIZE_FLAVOR "OFF"
#endif
constexpr const char* kBuildType = GAMMA_BUILD_TYPE;
constexpr const char* kSanitizeFlavor = GAMMA_SANITIZE_FLAVOR;

double NowWallSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void InitBench(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = nullptr;
    if (std::strcmp(arg, "--threads") == 0 && i + 1 < argc) {
      value = argv[++i];
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      value = arg + 10;
    }
    if (value != nullptr) {
      const long n = std::strtol(value, nullptr, 10);
      GAMMA_CHECK_MSG(n >= 1, "--threads must be >= 1");
      sim::HostPool::Instance().set_num_threads(static_cast<int>(n));
    }
  }
}

const std::vector<std::vector<uint8_t>>& CachedWisconsin(uint32_t n,
                                                         uint64_t seed) {
  static std::map<std::pair<uint32_t, uint64_t>,
                  std::vector<std::vector<uint8_t>>>
      cache;
  auto [it, inserted] = cache.try_emplace({n, seed});
  if (inserted) it->second = wis::GenerateWisconsin(n, seed);
  return it->second;
}

const std::vector<std::vector<uint8_t>>& CachedWisconsinZipf(
    uint32_t n, uint64_t seed, const wisconsin::ZipfColumn& column) {
  // theta keys the map through its bit pattern (benches pass exact
  // constants, so no epsilon concerns).
  using Key = std::tuple<uint32_t, uint64_t, int, uint64_t, uint32_t>;
  static std::map<Key, std::vector<std::vector<uint8_t>>> cache;
  uint64_t theta_bits = 0;
  static_assert(sizeof(theta_bits) == sizeof(column.theta));
  std::memcpy(&theta_bits, &column.theta, sizeof(theta_bits));
  auto [it, inserted] = cache.try_emplace(
      Key{n, seed, column.attr, theta_bits, column.domain});
  if (inserted) it->second = wis::GenerateWisconsinZipf(n, seed, column);
  return it->second;
}

gamma::GammaConfig PaperGammaConfig() {
  gamma::GammaConfig config;
  config.num_disk_nodes = 8;
  config.num_diskless_nodes = 8;
  config.page_size = 4096;
  config.join_memory_total = 24ull << 20;  // ample: no overflow by default
  return config;
}

teradata::TeradataConfig PaperTeradataConfig() {
  return teradata::TeradataConfig{};
}

std::string HeapName(uint32_t n) { return "Aheap" + std::to_string(n); }
std::string IndexedName(uint32_t n) { return "A" + std::to_string(n); }
std::string CopyName(uint32_t n) { return "B" + std::to_string(n); }
std::string BprimeName(uint32_t n) {
  return "Bprime" + std::to_string(n / 10);
}
std::string CName(uint32_t n) { return "C" + std::to_string(n / 10); }

void LoadGammaRelation(gamma::GammaMachine& machine, uint32_t n,
                       const std::string& name) {
  const auto& tuples =
      name == BprimeName(n) ? CachedWisconsin(n / 10, kBprimeSeed)
      : name == CName(n)    ? CachedWisconsin(n / 10, kCSeed)
                            : CachedWisconsin(n, kASeed);
  GAMMA_CHECK(machine
                  .CreateRelation(name, wis::WisconsinSchema(),
                                  catalog::PartitionSpec::Hashed(
                                      wis::kUnique1))
                  .ok());
  GAMMA_CHECK(machine.LoadTuples(name, tuples).ok());
}

void LoadGammaDatabase(gamma::GammaMachine& machine, uint32_t n,
                       bool with_indices, bool with_join_relations) {
  LoadGammaRelation(machine, n, HeapName(n));
  if (with_indices) {
    LoadGammaRelation(machine, n, IndexedName(n));
    GAMMA_CHECK(
        machine.BuildIndex(IndexedName(n), wis::kUnique1, true).ok());
    GAMMA_CHECK(
        machine.BuildIndex(IndexedName(n), wis::kUnique2, false).ok());
  }
  if (with_join_relations) {
    for (const std::string& name : {CopyName(n), BprimeName(n), CName(n)}) {
      LoadGammaRelation(machine, n, name);
    }
  }
}

void LoadTeradataDatabase(teradata::TeradataMachine& machine, uint32_t n,
                          bool with_index, bool with_join_relations) {
  const auto& schema = wis::WisconsinSchema();
  const auto& a = CachedWisconsin(n, kASeed);
  GAMMA_CHECK(
      machine.CreateRelation(IndexedName(n), schema, wis::kUnique1).ok());
  GAMMA_CHECK(machine.LoadTuples(IndexedName(n), a).ok());
  if (with_index) {
    GAMMA_CHECK(
        machine.BuildSecondaryIndex(IndexedName(n), wis::kUnique2).ok());
  }
  if (with_join_relations) {
    GAMMA_CHECK(
        machine.CreateRelation(CopyName(n), schema, wis::kUnique1).ok());
    GAMMA_CHECK(machine.LoadTuples(CopyName(n), a).ok());
    const auto& bprime = CachedWisconsin(n / 10, kBprimeSeed);
    GAMMA_CHECK(
        machine.CreateRelation(BprimeName(n), schema, wis::kUnique1).ok());
    GAMMA_CHECK(machine.LoadTuples(BprimeName(n), bprime).ok());
    const auto& c = CachedWisconsin(n / 10, kCSeed);
    GAMMA_CHECK(
        machine.CreateRelation(CName(n), schema, wis::kUnique1).ok());
    GAMMA_CHECK(machine.LoadTuples(CName(n), c).ok());
  }
}

PaperTable::PaperTable(std::string title, std::vector<std::string> columns)
    : title_(std::move(title)), columns_(std::move(columns)) {}

void PaperTable::AddRow(const std::string& label,
                        const std::vector<double>& values) {
  GAMMA_CHECK(values.size() == columns_.size() * 2);
  rows_.emplace_back(label, values);
}

namespace {

void PrintValue(double value) {
  if (value < 0) {
    std::printf("%10s", "-");
  } else if (value < 10) {
    std::printf("%10.2f", value);
  } else {
    std::printf("%10.1f", value);
  }
}

}  // namespace

void PaperTable::Print() const {
  std::printf("\n%s\n", title_.c_str());
  const size_t width = 44 + columns_.size() * 22;
  for (size_t i = 0; i < width; ++i) std::printf("=");
  std::printf("\n%-44s", "");
  for (const std::string& column : columns_) {
    std::printf("%21s ", column.c_str());
  }
  std::printf("\n%-44s", "query");
  for (size_t i = 0; i < columns_.size(); ++i) {
    std::printf("%10s%11s ", "paper", "model");
  }
  std::printf("\n");
  for (size_t i = 0; i < width; ++i) std::printf("-");
  std::printf("\n");
  for (const auto& [label, values] : rows_) {
    std::printf("%-44s", label.c_str());
    for (size_t i = 0; i < values.size(); i += 2) {
      PrintValue(values[i]);
      std::printf(" ");
      PrintValue(values[i + 1]);
      std::printf(" ");
    }
    std::printf("\n");
  }
  std::printf("\n");
}

FigureSeries::FigureSeries(std::string title, std::string x_label,
                           std::vector<std::string> series_names)
    : title_(std::move(title)),
      x_label_(std::move(x_label)),
      series_names_(std::move(series_names)) {}

void FigureSeries::AddPoint(double x, const std::vector<double>& ys) {
  GAMMA_CHECK(ys.size() == series_names_.size());
  points_.emplace_back(x, ys);
}

void FigureSeries::Print() const {
  std::printf("\n%s\n", title_.c_str());
  const size_t width = 12 + series_names_.size() * 14;
  for (size_t i = 0; i < width; ++i) std::printf("=");
  std::printf("\n%-12s", x_label_.c_str());
  for (const std::string& name : series_names_) {
    std::printf("%13s ", name.c_str());
  }
  std::printf("\n");
  for (size_t i = 0; i < width; ++i) std::printf("-");
  std::printf("\n");
  for (const auto& [x, ys] : points_) {
    std::printf("%-12g", x);
    for (const double y : ys) std::printf("%13.3f ", y);
    std::printf("\n");
  }
  std::printf("\n");
}

JsonReport::JsonReport(std::string name)
    : name_(std::move(name)), start_wall_sec_(NowWallSec()) {}

void JsonReport::Add(const std::string& label,
                     const exec::QueryResult& result) {
  const sim::NodeUsage totals = result.metrics.Totals();
  const obs::Utilization util = obs::ComputeUtilization(result.metrics);
  entries_.push_back(Entry{
      label, false, result.seconds(),
      totals.pages_read + totals.pages_written,
      totals.packets_sent + totals.packets_short_circuited,
      util.disk_busy_frac, util.cpu_busy_frac, util.net_busy_frac,
      util.critical_resource, util.skew_imbalance,
      util.skew_routed_tuples});
}

void JsonReport::SetMigration(int node_count, uint64_t migrated_tuples,
                              double migration_sec) {
  node_count_ = node_count;
  migrated_tuples_ = migrated_tuples;
  migration_sec_ = migration_sec;
}

void JsonReport::AddScalar(const std::string& label, double value) {
  entries_.push_back(Entry{label, true, value, 0, 0, 0, 0, 0, "none", 1.0,
                           0});
}

void JsonReport::Write() const {
  const std::string path = "BENCH_" + name_ + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f,
               "  \"meta\": {\"schema_version\": %d, "
               "\"build_type\": \"%s\", \"sanitize\": \"%s\", "
               "\"wall_clock_sec\": %.3f, "
               "\"host_threads\": %d, \"host_cores\": %u, "
               "\"node_count\": %d, \"migrated_tuples\": %llu, "
               "\"migration_sec\": %.6f},\n",
               kSchemaVersion, kBuildType, kSanitizeFlavor,
               NowWallSec() - start_wall_sec_,
               sim::HostPool::Instance().num_threads(),
               std::thread::hardware_concurrency(), node_count_,
               static_cast<unsigned long long>(migrated_tuples_),
               migration_sec_);
  std::fprintf(f, "  \"queries\": [\n");
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    std::string query;
    obs::AppendJsonString(e.label, &query);
    const char* sep = i + 1 < entries_.size() ? "," : "";
    if (e.scalar) {
      std::fprintf(f, "    {\"query\": %s, \"value\": %.6f}%s\n",
                   query.c_str(), e.seconds, sep);
    } else {
      std::fprintf(f,
                   "    {\"query\": %s, \"seconds\": %.6f, "
                   "\"page_ios\": %llu, \"packets\": %llu, "
                   "\"disk_busy_frac\": %.6f, \"cpu_busy_frac\": %.6f, "
                   "\"net_busy_frac\": %.6f, "
                   "\"critical_resource\": \"%s\", "
                   "\"skew_imbalance\": %.6f, "
                   "\"skew_routed_tuples\": %llu}%s\n",
                   query.c_str(), e.seconds,
                   static_cast<unsigned long long>(e.page_ios),
                   static_cast<unsigned long long>(e.packets),
                   e.disk_busy_frac, e.cpu_busy_frac, e.net_busy_frac,
                   e.critical_resource.c_str(), e.skew_imbalance,
                   static_cast<unsigned long long>(e.skew_routed_tuples),
                   sep);
    }
  }
  std::fprintf(f, "  ],\n");
  const std::vector<obs::MetricsRegistry::HistogramSample> histograms =
      obs::MetricsRegistry::Instance().HistogramSnapshot();
  std::fprintf(f, "  \"histograms\": [\n");
  for (size_t i = 0; i < histograms.size(); ++i) {
    const obs::MetricsRegistry::HistogramSample& h = histograms[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"count\": %llu, \"sum\": %.6f, "
                 "\"p50\": %.6g, \"p95\": %.6g, \"p99\": %.6g}%s\n",
                 h.name.c_str(), static_cast<unsigned long long>(h.count),
                 h.sum, h.p50, h.p95, h.p99,
                 i + 1 < histograms.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

std::string TracePath(const std::string& filename) {
  std::error_code ec;
  std::filesystem::create_directories("traces", ec);
  if (ec) {
    std::fprintf(stderr, "warning: cannot create traces/: %s\n",
                 ec.message().c_str());
    return filename;  // fall back to the working directory
  }
  return "traces/" + filename;
}

std::vector<uint32_t> BenchSizes() {
  const char* env = std::getenv("GAMMA_BENCH_SIZES");
  if (env == nullptr || *env == '\0') {
    return {10000, 100000, 1000000};
  }
  std::vector<uint32_t> sizes;
  const char* cursor = env;
  while (*cursor != '\0') {
    char* end = nullptr;
    const unsigned long value = std::strtoul(cursor, &end, 10);
    if (end == cursor) break;
    sizes.push_back(static_cast<uint32_t>(value));
    cursor = (*end == ',') ? end + 1 : end;
  }
  GAMMA_CHECK_MSG(!sizes.empty(), "bad GAMMA_BENCH_SIZES");
  return sizes;
}

}  // namespace gammadb::bench
