#include "exec/hybrid_join.h"

#include <algorithm>

#include "common/hash.h"
#include "common/macros.h"

namespace gammadb::exec {

HybridHashJoinSite::HybridHashJoinSite(int node, storage::StorageManager* sm,
                                       const catalog::Schema* build_schema,
                                       const catalog::Schema* probe_schema,
                                       int build_attr, int probe_attr,
                                       uint64_t capacity_bytes,
                                       uint64_t expected_build_bytes,
                                       uint64_t seed)
    : JoinSite(node, sm, build_schema, probe_schema, build_attr, probe_attr),
      table_(capacity_bytes),
      seed_(seed) {
  // Bucket count from the optimizer's estimate, with 10% headroom for the
  // hash-table entry overhead and bucket skew.
  const uint64_t usable = std::max<uint64_t>(capacity_bytes, 1);
  const uint64_t needed = expected_build_bytes + expected_build_bytes / 10;
  stats_.num_buckets =
      static_cast<uint32_t>(std::max<uint64_t>(1, (needed + usable - 1) / usable));
  build_buckets_.resize(stats_.num_buckets);
  probe_buckets_.resize(stats_.num_buckets);
  for (uint32_t b = 0; b < stats_.num_buckets; ++b) {
    build_buckets_[b] = sm_->CreateFile();
    probe_buckets_[b] = sm_->CreateFile();
  }
}

HybridHashJoinSite::~HybridHashJoinSite() {
  for (storage::FileId id : build_buckets_) sm_->DropFile(id);
  for (storage::FileId id : probe_buckets_) sm_->DropFile(id);
}

int HybridHashJoinSite::BucketOf(int32_t key) const {
  return static_cast<int>(HashInt32(key, seed_) % stats_.num_buckets);
}

void HybridHashJoinSite::AddBuildTuple(std::span<const uint8_t> tuple) {
  ++stats_.build_received;
  const int32_t key = BuildKey(tuple);
  Charge(&sim::CostConstants::instr_per_tuple_build);
  const int bucket = BucketOf(key);
  if (bucket == 0) {
    if (table_.Insert(key, tuple)) return;
    // Estimate was low: bucket 0 spills to its own file; probes of bucket 0
    // must then be spooled as well (see AddProbeTuple).
    bucket0_spilled_ = true;
  }
  if (Spool(build_buckets_[static_cast<size_t>(bucket)], tuple)) {
    ++stats_.build_spooled;
  }
}

void HybridHashJoinSite::AddProbeTuple(std::span<const uint8_t> tuple,
                                       const TupleSink& emit) {
  ++stats_.probe_received;
  const int32_t key = ProbeKey(tuple);
  Charge(&sim::CostConstants::instr_per_tuple_probe);
  const int bucket = BucketOf(key);
  if (bucket == 0) {
    stats_.matches += ProbeTable(table_, key, tuple, emit);
    if (!bucket0_spilled_) return;
    // Partners may sit in the bucket-0 spill file; spool the probe too.
  }
  if (Spool(probe_buckets_[static_cast<size_t>(bucket)], tuple)) {
    ++stats_.probe_spooled;
  }
}

Status HybridHashJoinSite::Finish(const TupleSink& emit) {
  GAMMA_RETURN_NOT_OK(status());
  for (uint32_t b = 0; b < stats_.num_buckets; ++b) {
    const storage::HeapFile& build = sm_->file(build_buckets_[b]);
    const storage::HeapFile& probe = sm_->file(probe_buckets_[b]);
    if (build.num_tuples() == 0 && probe.num_tuples() == 0) continue;
    table_.Clear();
    GAMMA_RETURN_NOT_OK(
        build.Scan([&](storage::Rid, std::span<const uint8_t> tuple) {
          const int32_t key = BuildKey(tuple);
          Charge(&sim::CostConstants::instr_per_tuple_build);
          if (!table_.Insert(key, tuple)) {
            // One level of recursion is enough for any realistic skew here;
            // over-commit and count it rather than recurse.
            table_.InsertUnchecked(key, tuple);
            ++stats_.forced_inserts;
          }
          return true;
        }));
    GAMMA_RETURN_NOT_OK(
        probe.Scan([&](storage::Rid, std::span<const uint8_t> tuple) {
          const int32_t key = ProbeKey(tuple);
          Charge(&sim::CostConstants::instr_per_tuple_probe);
          stats_.matches += ProbeTable(table_, key, tuple, emit);
          return true;
        }));
  }
  table_.Clear();
  return Status::OK();
}

}  // namespace gammadb::exec
