#include "exec/merge_join.h"

#include <vector>

#include "common/macros.h"
#include "exec/sort.h"
#include "exec/tuple_arena.h"

namespace gammadb::exec {

namespace {

/// One sorted input held in memory: keys[i] is the join key of tuples[i].
struct KeyedTuples {
  std::vector<int32_t> keys;
  TupleArena tuples;
};

Status Materialize(const storage::HeapFile& file,
                   const catalog::Schema& schema, int attr,
                   const storage::ChargeContext& charge, KeyedTuples* out) {
  out->keys.reserve(file.num_tuples());
  GAMMA_RETURN_NOT_OK(
      file.Scan([&](storage::Rid, std::span<const uint8_t> tuple) {
        const catalog::TupleView view(&schema, tuple);
        out->keys.push_back(view.GetInt(static_cast<size_t>(attr)));
        out->tuples.Append(tuple);
        if (charge.tracker != nullptr) {
          charge.Cpu(charge.tracker->hw().cost.instr_per_tuple_scan);
        }
        return true;
      }));
#ifndef NDEBUG
  for (size_t i = 1; i < out->keys.size(); ++i) {
    GAMMA_DCHECK(out->keys[i - 1] <= out->keys[i]);
  }
#endif
  return Status::OK();
}

}  // namespace

MergeJoinStats SortMergeJoin(const storage::HeapFile& left,
                             const catalog::Schema& left_schema,
                             int left_attr,
                             const storage::HeapFile& right,
                             const catalog::Schema& right_schema,
                             int right_attr,
                             const storage::ChargeContext& charge,
                             const TupleSink& emit) {
  MergeJoinStats stats;
  KeyedTuples lhs;
  KeyedTuples rhs;
  stats.status = Materialize(left, left_schema, left_attr, charge, &lhs);
  if (!stats.status.ok()) return stats;
  stats.status = Materialize(right, right_schema, right_attr, charge, &rhs);
  if (!stats.status.ok()) return stats;
  stats.left_read = lhs.keys.size();
  stats.right_read = rhs.keys.size();

  auto charge_compare = [&] {
    if (charge.tracker != nullptr) {
      charge.Cpu(charge.tracker->hw().cost.instr_per_sort_compare);
    }
  };

  std::vector<uint8_t> joined;
  const size_t n_left = lhs.keys.size();
  const size_t n_right = rhs.keys.size();
  size_t i = 0, j = 0;
  while (i < n_left && j < n_right) {
    charge_compare();
    if (lhs.keys[i] < rhs.keys[j]) {
      ++i;
    } else if (lhs.keys[i] > rhs.keys[j]) {
      ++j;
    } else {
      // Key group: cross product of equal keys on both sides.
      const int32_t key = lhs.keys[i];
      size_t j_end = j;
      while (j_end < n_right && rhs.keys[j_end] == key) ++j_end;
      while (i < n_left && lhs.keys[i] == key) {
        for (size_t k = j; k < j_end; ++k) {
          catalog::ConcatInto(joined,
                              lhs.tuples.Get(static_cast<uint32_t>(i)),
                              rhs.tuples.Get(static_cast<uint32_t>(k)));
          if (charge.tracker != nullptr) {
            charge.Cpu(charge.tracker->hw().cost.instr_per_tuple_copy);
          }
          emit(joined);
          ++stats.output;
        }
        ++i;
      }
      j = j_end;
    }
  }
  return stats;
}

MergeJoinSite::MergeJoinSite(int node, storage::StorageManager* sm,
                             const catalog::Schema* build_schema,
                             const catalog::Schema* probe_schema,
                             int build_attr, int probe_attr,
                             uint64_t memory_bytes)
    : JoinSite(node, sm, build_schema, probe_schema, build_attr, probe_attr),
      memory_bytes_(memory_bytes),
      build_spool_(sm_->CreateFile()),
      probe_spool_(sm_->CreateFile()) {}

MergeJoinSite::~MergeJoinSite() {
  sm_->DropFile(build_spool_);
  sm_->DropFile(probe_spool_);
}

Status MergeJoinSite::Finish(const TupleSink& emit) {
  GAMMA_RETURN_NOT_OK(status());
  Status status;
  const storage::FileId sorted_build = ExternalSort(
      *sm_, build_spool_, *build_schema_, build_attr_, memory_bytes_, &status);
  if (!status.ok()) {
    sm_->DropFile(sorted_build);
    return status;
  }
  const storage::FileId sorted_probe = ExternalSort(
      *sm_, probe_spool_, *probe_schema_, probe_attr_, memory_bytes_, &status);
  if (status.ok()) {
    status = SortMergeJoin(sm_->file(sorted_build), *build_schema_,
                           build_attr_, sm_->file(sorted_probe),
                           *probe_schema_, probe_attr_, sm_->charge(), emit)
                 .status;
  }
  sm_->DropFile(sorted_build);
  sm_->DropFile(sorted_probe);
  return status;
}

}  // namespace gammadb::exec
