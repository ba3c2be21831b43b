#include "exec/select.h"

#include <algorithm>

#include "common/macros.h"

namespace gammadb::exec {

namespace {

/// Per-tuple scan CPU: fetch path plus the compiled predicate.
void ChargeExamine(const storage::ChargeContext& charge,
                   const Predicate& pred) {
  if (charge.tracker == nullptr) return;
  const auto& cost = charge.tracker->hw().cost;
  charge.Cpu(cost.instr_per_tuple_scan +
             pred.compare_count() * cost.instr_per_attr_compare);
}

}  // namespace

Result<ScanStats> SelectScan(const storage::HeapFile& file,
                             const catalog::Schema& schema,
                             const Predicate& pred,
                             const storage::ChargeContext& charge,
                             const TupleSink& emit) {
  ScanStats stats;
  GAMMA_RETURN_NOT_OK(
      file.Scan([&](storage::Rid, std::span<const uint8_t> tuple) {
        ++stats.examined;
        ChargeExamine(charge, pred);
        if (pred.Eval(tuple, schema)) {
          ++stats.emitted;
          emit(tuple);
        }
        return true;
      }));
  return stats;
}

Result<ScanStats> ClusteredIndexSelect(const storage::HeapFile& file,
                                       const storage::BTree& index,
                                       int key_attr,
                                       const catalog::Schema& schema,
                                       const Predicate& pred,
                                       const storage::ChargeContext& charge,
                                       const TupleSink& emit) {
  const auto bounds = pred.BoundsOn(key_attr);
  GAMMA_CHECK_MSG(bounds.has_value(),
                  "index selection requires a predicate on the key attr");
  ScanStats stats;
  // The leaf walk yields qualifying rids in key order; because the file is
  // sorted on the key, they span a contiguous page range.
  std::vector<storage::Rid> rids;
  GAMMA_ASSIGN_OR_RETURN(rids,
                         index.RangeLookup(bounds->first, bounds->second));
  if (rids.empty()) return stats;
  uint32_t first_page = rids.front().page_index;
  uint32_t last_page = rids.front().page_index;
  for (const storage::Rid& rid : rids) {
    first_page = std::min(first_page, rid.page_index);
    last_page = std::max(last_page, rid.page_index);
  }
  GAMMA_RETURN_NOT_OK(
      file.ScanPages(first_page, last_page,
                     [&](storage::Rid, std::span<const uint8_t> tuple) {
                       ++stats.examined;
                       ChargeExamine(charge, pred);
                       if (pred.Eval(tuple, schema)) {
                         ++stats.emitted;
                         emit(tuple);
                       }
                       return true;
                     }));
  return stats;
}

Result<ScanStats> NonClusteredIndexSelect(const storage::HeapFile& file,
                                          const storage::BTree& index,
                                          int key_attr,
                                          const catalog::Schema& schema,
                                          const Predicate& pred,
                                          const storage::ChargeContext& charge,
                                          const TupleSink& emit) {
  const auto bounds = pred.BoundsOn(key_attr);
  GAMMA_CHECK_MSG(bounds.has_value(),
                  "index selection requires a predicate on the key attr");
  ScanStats stats;
  std::vector<storage::Rid> rids;
  GAMMA_ASSIGN_OR_RETURN(rids,
                         index.RangeLookup(bounds->first, bounds->second));
  for (const storage::Rid& rid : rids) {
    auto tuple = file.Fetch(rid, storage::AccessIntent::kRandom);
    if (tuple.status().IsNotFound()) {
      return Status::Corruption("index entry points at a missing record");
    }
    GAMMA_RETURN_NOT_OK(tuple.status());
    ++stats.examined;
    ChargeExamine(charge, pred);
    if (pred.Eval(*tuple, schema)) {
      ++stats.emitted;
      emit(*tuple);
    }
  }
  return stats;
}

}  // namespace gammadb::exec
