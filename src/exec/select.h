#ifndef GAMMA_EXEC_SELECT_H_
#define GAMMA_EXEC_SELECT_H_

#include <cstdint>
#include <functional>
#include <span>

#include "catalog/schema.h"
#include "common/result.h"
#include "exec/predicate.h"
#include "storage/btree.h"
#include "storage/heap_file.h"

namespace gammadb::exec {

/// Where a selection operator pushes its qualifying tuples (usually a
/// SplitTable::Send).
using TupleSink = std::function<void(std::span<const uint8_t>)>;

struct ScanStats {
  uint64_t examined = 0;
  uint64_t emitted = 0;
};

/// Sequential (segment) scan: every page of the fragment is read and every
/// tuple tested. Errors (dead node, corrupt page) abort the scan mid-way;
/// tuples already emitted stay emitted — the machine layer discards the
/// partial result.
Result<ScanStats> SelectScan(const storage::HeapFile& file,
                             const catalog::Schema& schema,
                             const Predicate& pred,
                             const storage::ChargeContext& charge,
                             const TupleSink& emit);

/// Selection through a clustered index on `key_attr`: the file is sorted on
/// that attribute, so after the B-tree descent only the page range holding
/// the matching key range is scanned (sequentially). The predicate must
/// constrain `key_attr` (its BoundsOn window drives the descent); any other
/// conjunction terms are evaluated as residual filters on fetched tuples.
Result<ScanStats> ClusteredIndexSelect(const storage::HeapFile& file,
                                       const storage::BTree& index,
                                       int key_attr,
                                       const catalog::Schema& schema,
                                       const Predicate& pred,
                                       const storage::ChargeContext& charge,
                                       const TupleSink& emit);

/// Selection through a non-clustered index on `key_attr`: the leaf entries
/// give the qualifying rids in key order, but each fetch is a random
/// data-page access (in the worst case one page fault per tuple — paper
/// §5.1). Residual conjunction terms are evaluated on fetched tuples. An
/// entry whose record is gone is Corruption.
Result<ScanStats> NonClusteredIndexSelect(const storage::HeapFile& file,
                                          const storage::BTree& index,
                                          int key_attr,
                                          const catalog::Schema& schema,
                                          const Predicate& pred,
                                          const storage::ChargeContext& charge,
                                          const TupleSink& emit);

}  // namespace gammadb::exec

#endif  // GAMMA_EXEC_SELECT_H_
