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
    : node_(node),
      sm_(sm),
      build_schema_(build_schema),
      probe_schema_(probe_schema),
      build_attr_(build_attr),
      probe_attr_(probe_attr),
      table_(capacity_bytes),
      seed_(seed) {
  GAMMA_CHECK(sm != nullptr && build_schema != nullptr &&
              probe_schema != nullptr);
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

void HybridHashJoinSite::ChargeCpu(double instr) {
  sm_->charge().Cpu(instr);
}

void HybridHashJoinSite::AddBuildTuple(std::span<const uint8_t> tuple) {
  ++stats_.build_received;
  const catalog::TupleView view(build_schema_, tuple);
  const int32_t key = view.GetInt(static_cast<size_t>(build_attr_));
  const auto* tracker = sm_->charge().tracker;
  if (tracker != nullptr) {
    ChargeCpu(tracker->hw().cost.instr_per_tuple_build);
  }
  const int bucket = BucketOf(key);
  if (bucket == 0) {
    if (table_.Insert(key, tuple)) return;
    // Estimate was low: bucket 0 spills to its own file; probes of bucket 0
    // must then be spooled as well (see AddProbeTuple).
    bucket0_spilled_ = true;
  }
  if (!status_.ok()) return;
  if (tracker != nullptr) {
    ChargeCpu(tracker->hw().cost.instr_per_tuple_copy);
  }
  const auto rid =
      sm_->file(build_buckets_[static_cast<size_t>(bucket)]).Append(tuple);
  if (!rid.ok()) {
    status_ = rid.status();
    return;
  }
  ++stats_.build_spooled;
}

void HybridHashJoinSite::ProbeTable(int32_t key,
                                    std::span<const uint8_t> tuple,
                                    const TupleSink& emit) {
  const auto* tracker = sm_->charge().tracker;
  table_.Probe(key, [&](std::span<const uint8_t> build_tuple) {
    catalog::ConcatInto(joined_, build_tuple, tuple);
    if (tracker != nullptr) {
      ChargeCpu(tracker->hw().cost.instr_per_tuple_copy);
    }
    ++stats_.matches;
    emit(joined_);
  });
}

void HybridHashJoinSite::AddProbeTuple(std::span<const uint8_t> tuple,
                                       const TupleSink& emit) {
  ++stats_.probe_received;
  const catalog::TupleView view(probe_schema_, tuple);
  const int32_t key = view.GetInt(static_cast<size_t>(probe_attr_));
  const auto* tracker = sm_->charge().tracker;
  if (tracker != nullptr) {
    ChargeCpu(tracker->hw().cost.instr_per_tuple_probe);
  }
  const int bucket = BucketOf(key);
  if (bucket == 0) {
    ProbeTable(key, tuple, emit);
    if (!bucket0_spilled_) return;
    // Partners may sit in the bucket-0 spill file; spool the probe too.
  }
  if (!status_.ok()) return;
  if (tracker != nullptr) {
    ChargeCpu(tracker->hw().cost.instr_per_tuple_copy);
  }
  const auto rid =
      sm_->file(probe_buckets_[static_cast<size_t>(bucket)]).Append(tuple);
  if (!rid.ok()) {
    status_ = rid.status();
    return;
  }
  ++stats_.probe_spooled;
}

Status HybridHashJoinSite::FinishSpooledBuckets(const TupleSink& emit) {
  GAMMA_RETURN_NOT_OK(status_);
  const auto* tracker = sm_->charge().tracker;
  for (uint32_t b = 0; b < stats_.num_buckets; ++b) {
    const storage::HeapFile& build = sm_->file(build_buckets_[b]);
    const storage::HeapFile& probe = sm_->file(probe_buckets_[b]);
    if (build.num_tuples() == 0 && probe.num_tuples() == 0) continue;
    table_.Clear();
    GAMMA_RETURN_NOT_OK(
        build.Scan([&](storage::Rid, std::span<const uint8_t> tuple) {
          const catalog::TupleView view(build_schema_, tuple);
          const int32_t key = view.GetInt(static_cast<size_t>(build_attr_));
          if (tracker != nullptr) {
            ChargeCpu(tracker->hw().cost.instr_per_tuple_build);
          }
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
          const catalog::TupleView view(probe_schema_, tuple);
          const int32_t key = view.GetInt(static_cast<size_t>(probe_attr_));
          if (tracker != nullptr) {
            ChargeCpu(tracker->hw().cost.instr_per_tuple_probe);
          }
          ProbeTable(key, tuple, emit);
          return true;
        }));
  }
  table_.Clear();
  return Status::OK();
}

}  // namespace gammadb::exec
