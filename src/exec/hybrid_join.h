#ifndef GAMMA_EXEC_HYBRID_JOIN_H_
#define GAMMA_EXEC_HYBRID_JOIN_H_

#include <cstdint>
#include <vector>

#include "exec/hash_table.h"
#include "exec/join_site.h"

namespace gammadb::exec {

/// \brief A join site running the Hybrid hash join
/// [DEWI84, DEWI85] — the algorithm the paper's conclusion proposes to adopt
/// in place of the Simple hash join.
///
/// The build input is split into B buckets sized from an up-front estimate:
/// bucket 0 is built in memory immediately, buckets 1..B-1 are spooled to
/// per-bucket files *once*. Probe tuples of bucket 0 probe immediately;
/// others are spooled per bucket. Each spooled bucket pair is then joined
/// with one additional read — so overflow work grows linearly with the
/// input, not quadratically as under the recursive Simple scheme (the
/// ablation bench shows exactly this difference).
class HybridHashJoinSite : public JoinSite {
 public:
  struct Stats {
    uint64_t build_received = 0;
    uint64_t probe_received = 0;
    uint64_t build_spooled = 0;
    uint64_t probe_spooled = 0;
    uint64_t matches = 0;
    uint64_t forced_inserts = 0;
    uint32_t num_buckets = 1;
  };

  /// `expected_build_bytes` sizes the bucket count (the optimizer's
  /// estimate); `capacity_bytes` is the site's hash-table memory.
  HybridHashJoinSite(int node, storage::StorageManager* sm,
                     const catalog::Schema* build_schema,
                     const catalog::Schema* probe_schema, int build_attr,
                     int probe_attr, uint64_t capacity_bytes,
                     uint64_t expected_build_bytes, uint64_t seed);

  ~HybridHashJoinSite() override;

  void AddBuildTuple(std::span<const uint8_t> tuple) override;
  void AddProbeTuple(std::span<const uint8_t> tuple,
                     const TupleSink& emit) override;

  /// Joins all spooled bucket pairs locally (no redistribution — hybrid's
  /// overflow stays at the site that spooled it).
  Status Finish(const TupleSink& emit) override;

  const Stats& stats() const { return stats_; }

 private:
  int BucketOf(int32_t key) const;

  JoinHashTable table_;
  uint64_t seed_;
  bool bucket0_spilled_ = false;
  /// Per-bucket spool files; index 0 holds bucket-0 spill-over (used only
  /// when the optimizer's estimate was too low).
  std::vector<storage::FileId> build_buckets_;
  std::vector<storage::FileId> probe_buckets_;
  Stats stats_;
};

}  // namespace gammadb::exec

#endif  // GAMMA_EXEC_HYBRID_JOIN_H_
