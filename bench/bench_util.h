#ifndef GAMMA_BENCH_BENCH_UTIL_H_
#define GAMMA_BENCH_BENCH_UTIL_H_

// Shared harness for the paper-reproduction benches: standard machine
// configurations, Wisconsin relation setup, and table/figure printers that
// show the paper's published number next to the model's number.

#include <cstdint>
#include <string>
#include <vector>

#include "exec/query_result.h"
#include "gamma/machine.h"
#include "teradata/machine.h"
#include "wisconsin/wisconsin.h"

namespace gammadb::bench {

/// Standard bench startup: parses `--threads N` (or `--threads=N`) and sets
/// the host worker-pool width, overriding GAMMA_HOST_THREADS for this
/// process. Unknown arguments are ignored so benches stay forgiving.
void InitBench(int argc, char** argv);

/// Generated Wisconsin relations, memoized by (n, seed). Benches that build
/// many machines over the same sizes (e.g. the Figure 9-12 speedup grid)
/// share one generated copy instead of regenerating per machine.
const std::vector<std::vector<uint8_t>>& CachedWisconsin(uint32_t n,
                                                         uint64_t seed);

/// Wisconsin relations with one Zipfian-skewed int column, memoized like
/// CachedWisconsin (keyed additionally by the column spec).
const std::vector<std::vector<uint8_t>>& CachedWisconsinZipf(
    uint32_t n, uint64_t seed, const wisconsin::ZipfColumn& column);

/// The paper's Gamma configuration: 8 disk + 8 diskless processors, 4 KB
/// pages. `join_memory_total` defaults high enough that the 10k/100k joins
/// never overflow (Table 2 note); pass 4.8 MB to reproduce the 1M overflow.
gamma::GammaConfig PaperGammaConfig();

/// The paper's Teradata configuration: 20 AMPs.
teradata::TeradataConfig PaperTeradataConfig();

/// Names used by the standard benchmark database.
std::string HeapName(uint32_t n);      // no indices ("Aheap<n>")
std::string IndexedName(uint32_t n);   // clustered u1 + non-clustered u2
std::string CopyName(uint32_t n);      // "B<n>", identical content to A
std::string BprimeName(uint32_t n);    // n/10 tuples
std::string CName(uint32_t n);         // n/10 tuples

/// Loads one relation of the §4 benchmark database for relation size `n`,
/// by its name (HeapName, IndexedName, CopyName, BprimeName or CName),
/// hash-declustered on unique1 and without indexes: what a bench that
/// reads only some of the relations loads.
void LoadGammaRelation(gamma::GammaMachine& machine, uint32_t n,
                       const std::string& name);

/// Loads the §4 benchmark database into a Gamma machine for one relation
/// size: a heap copy, an indexed copy (when `with_indices`), and the join
/// partners B / Bprime / C (when `with_join_relations`).
void LoadGammaDatabase(gamma::GammaMachine& machine, uint32_t n,
                       bool with_indices, bool with_join_relations);

/// Same database on the Teradata machine (hash on unique1; optional dense
/// secondary index on unique2).
void LoadTeradataDatabase(teradata::TeradataMachine& machine, uint32_t n,
                          bool with_index, bool with_join_relations);

/// Fixed-width printer for paper-vs-model tables.
class PaperTable {
 public:
  /// `columns` are value-column headings, printed in pairs
  /// ("<col> paper", "<col> model").
  PaperTable(std::string title, std::vector<std::string> columns);

  /// Adds one row; `values` alternate paper, model per column pair. Use a
  /// negative paper value for "not reported" (prints as "-").
  void AddRow(const std::string& label, const std::vector<double>& values);

  void Print() const;

 private:
  std::string title_;
  std::vector<std::string> columns_;
  std::vector<std::pair<std::string, std::vector<double>>> rows_;
};

/// Simple aligned series printer for figure reproductions:
/// one x column plus one column per named series.
class FigureSeries {
 public:
  FigureSeries(std::string title, std::string x_label,
               std::vector<std::string> series_names);
  void AddPoint(double x, const std::vector<double>& ys);
  void Print() const;

 private:
  std::string title_;
  std::string x_label_;
  std::vector<std::string> series_names_;
  std::vector<std::pair<double, std::vector<double>>> points_;
};

/// Machine-readable companion to the printed tables: collects one record
/// per query (label, simulated seconds, total page I/Os, total packets, and
/// the observability scalars — per-device busy fractions plus the
/// critical-resource verdict) and writes them, plus a `meta` block with the
/// schema version, build/sanitizer flavor, the bench's host wall-clock
/// seconds and the host thread/core counts, to `BENCH_<name>.json` in the
/// working directory, so sweeps over configurations can be diffed and
/// plotted without scraping stdout.
class JsonReport {
 public:
  /// Format version of the emitted JSON. 2 added the meta build stamps and
  /// per-query utilization scalars (disk/cpu/net_busy_frac,
  /// critical_resource). 3 added the redistribution-balance scalars
  /// (skew_imbalance = max/mean key-routed tuples per node in the query's
  /// largest redistribution, skew_routed_tuples = its routed-tuple count).
  /// 4 added the elastic-growth meta scalars (node_count = disk nodes at
  /// bench end, migrated_tuples / migration_sec = totals over elastic
  /// fragment migrations; all 0 when the bench never migrates).
  /// 5 added the `histograms` block: every latency histogram in the
  /// process-wide metrics registry at Write() time (name, observation
  /// count, sum, and the p50/p95/p99 bucket upper bounds), so regression
  /// gates can track tail latency without the bench hand-rolling
  /// percentiles.
  static constexpr int kSchemaVersion = 5;

  explicit JsonReport(std::string name);

  /// Records the bench's elastic-growth totals for the meta block. Benches
  /// that never grow the machine leave the defaults (0 / 0 / 0.0).
  void SetMigration(int node_count, uint64_t migrated_tuples,
                    double migration_sec);

  /// Records one executed query's label and measured totals.
  void Add(const std::string& label, const exec::QueryResult& result);

  /// Records one bench-computed number (e.g. a wall-clock speedup) that has
  /// no QueryResult behind it.
  void AddScalar(const std::string& label, double value);

  /// Writes BENCH_<name>.json (warns on stderr if the file can't be
  /// written; benches still exit 0 on report I/O failure).
  void Write() const;

 private:
  struct Entry {
    std::string label;
    bool scalar;
    double seconds;
    uint64_t page_ios;
    uint64_t packets;
    double disk_busy_frac;
    double cpu_busy_frac;
    double net_busy_frac;
    std::string critical_resource;
    double skew_imbalance;
    uint64_t skew_routed_tuples;
  };
  std::string name_;
  double start_wall_sec_;
  std::vector<Entry> entries_;
  int node_count_ = 0;
  uint64_t migrated_tuples_ = 0;
  double migration_sec_ = 0.0;
};

/// Path for a generated trace/dump artifact: `traces/<filename>`, creating
/// the `traces/` directory under the working directory on first use (the
/// directory is gitignored — generated artifacts never land in the repo
/// root).
std::string TracePath(const std::string& filename);

/// Relation sizes to run, from the GAMMA_BENCH_SIZES environment variable
/// (comma-separated), defaulting to {10000, 100000, 1000000}. Benches honour
/// this so CI can run quickly while the full reproduction uses all sizes.
std::vector<uint32_t> BenchSizes();

/// Seed for relation generation (A and B are copies: same seed).
inline constexpr uint64_t kASeed = 0xA11CE;
inline constexpr uint64_t kBprimeSeed = 0xB123;
inline constexpr uint64_t kCSeed = 0xC123;

}  // namespace gammadb::bench

#endif  // GAMMA_BENCH_BENCH_UTIL_H_
