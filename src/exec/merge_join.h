#ifndef GAMMA_EXEC_MERGE_JOIN_H_
#define GAMMA_EXEC_MERGE_JOIN_H_

#include <cstdint>

#include "catalog/schema.h"
#include "common/status.h"
#include "exec/join_site.h"
#include "exec/select.h"
#include "storage/heap_file.h"

namespace gammadb::exec {

/// \brief Merge join of two fragment files already sorted on the join
/// attributes (the final step of Teradata's redistribute + sort-merge join).
///
/// Emits the concatenation left ++ right for every matching pair. Handles
/// duplicate join keys on both sides (cross product within a key group).
/// Charges one comparison per merge step and the standard per-tuple scan
/// path; the sequential reads of both inputs are charged through the scans.
/// A failed read of either input stops the join before any output and is
/// returned in `status`.
struct MergeJoinStats {
  uint64_t left_read = 0;
  uint64_t right_read = 0;
  uint64_t output = 0;
  Status status;
};

MergeJoinStats SortMergeJoin(const storage::HeapFile& left,
                             const catalog::Schema& left_schema, int left_attr,
                             const storage::HeapFile& right,
                             const catalog::Schema& right_schema,
                             int right_attr,
                             const storage::ChargeContext& charge,
                             const TupleSink& emit);

/// \brief A join site running the sort-merge join (the Teradata-style
/// alternative of §8's comparison).
///
/// Arriving build and probe tuples are only spooled. `Finish` sorts both
/// spools on their join attributes with `memory_bytes` of sort memory and
/// merges them; memory bounds the run size, never the join, so there are no
/// overflow rounds. Probe tuples never match on arrival.
class MergeJoinSite : public JoinSite {
 public:
  MergeJoinSite(int node, storage::StorageManager* sm,
                const catalog::Schema* build_schema,
                const catalog::Schema* probe_schema, int build_attr,
                int probe_attr, uint64_t memory_bytes);

  ~MergeJoinSite() override;

  void AddBuildTuple(std::span<const uint8_t> tuple) override {
    Spool(build_spool_, tuple);
  }
  void AddProbeTuple(std::span<const uint8_t> tuple,
                     const TupleSink&) override {
    Spool(probe_spool_, tuple);
  }
  Status Finish(const TupleSink& emit) override;

 private:
  uint64_t memory_bytes_;
  storage::FileId build_spool_;
  storage::FileId probe_spool_;
};

}  // namespace gammadb::exec

#endif  // GAMMA_EXEC_MERGE_JOIN_H_
