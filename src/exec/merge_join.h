#ifndef GAMMA_EXEC_MERGE_JOIN_H_
#define GAMMA_EXEC_MERGE_JOIN_H_

#include <cstdint>

#include "catalog/schema.h"
#include "common/status.h"
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

}  // namespace gammadb::exec

#endif  // GAMMA_EXEC_MERGE_JOIN_H_
