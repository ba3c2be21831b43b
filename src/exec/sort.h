#ifndef GAMMA_EXEC_SORT_H_
#define GAMMA_EXEC_SORT_H_

#include <cstdint>

#include "catalog/schema.h"
#include "common/status.h"
#include "storage/storage_manager.h"

namespace gammadb::exec {

/// \brief External merge sort of one fragment file by an integer attribute.
///
/// The Teradata join path: redistributed tuples are spooled, sorted into
/// runs bounded by the AMP's memory, and merged. Run generation reads the
/// input once and writes every run; each merge pass reads and writes the
/// data once more. Comparison CPU is charged per the cost model.
///
/// Returns the id of a new file in `sm` holding the tuples in ascending
/// order of `attr`. The input file is left untouched. A storage error
/// (a failed scan or append) abandons the sort: the returned file is empty
/// and `*error`, when given, receives the error. Callers that must not lose
/// tuples pass `error` and fail on it.
storage::FileId ExternalSort(storage::StorageManager& sm,
                             storage::FileId input,
                             const catalog::Schema& schema, int attr,
                             uint64_t memory_bytes, Status* error = nullptr);

}  // namespace gammadb::exec

#endif  // GAMMA_EXEC_SORT_H_
