#include "exec/select.h"

#include <algorithm>
#include <cstring>

#include "common/macros.h"

namespace gammadb::exec {

namespace {

/// Per-tuple scan CPU: fetch path plus the compiled predicate.
double ExamineInstr(const storage::ChargeContext& charge,
                    const Predicate& pred) {
  if (charge.tracker == nullptr) return 0;
  const auto& cost = charge.tracker->hw().cost;
  return cost.instr_per_tuple_scan +
         pred.compare_count() * cost.instr_per_attr_compare;
}

/// Tests every tuple on pages [first_page, last_page] and emits the
/// matches, a page at a time. A single eq/range term, the shape of every
/// Wisconsin selection, is tested inline as an int32 at a fixed offset
/// against [lo, hi]; True and conjunctions go through Predicate::Eval. Each
/// examined tuple costs ExamineInstr, and the charges a page owes are added
/// by one CpuTimes call just before the next emit (which charges the same
/// node) and at the page's end, so the node's sums see exactly the
/// additions of one charge per tuple.
Status FilterPages(const storage::HeapFile& file, uint32_t first_page,
                   uint32_t last_page, const catalog::Schema& schema,
                   const Predicate& pred, const storage::ChargeContext& charge,
                   const TupleSink& emit, ScanStats* stats) {
  const double instr = ExamineInstr(charge, pred);
  const bool single = pred.is_eq() || pred.is_range();
  const size_t offset =
      single ? schema.offset(static_cast<size_t>(pred.attr())) : 0;
  const auto matches = [&](std::span<const uint8_t> tuple) {
    if (!single) return pred.Eval(tuple, schema);
    int32_t value = 0;
    std::memcpy(&value, tuple.data() + offset, sizeof(value));
    return value >= pred.lo() && value <= pred.hi();
  };
  return file.VisitPages(
      first_page, last_page, [&](uint32_t, const storage::SlottedPage& page) {
        uint64_t unpaid = 0;
        for (uint16_t slot = 0; slot < page.slot_count(); ++slot) {
          const std::span<const uint8_t> tuple = page.Get(slot);
          if (tuple.empty()) continue;
          ++unpaid;
          if (matches(tuple)) {
            charge.CpuTimes(instr, unpaid);
            stats->examined += unpaid;
            unpaid = 0;
            ++stats->emitted;
            emit(tuple);
          }
        }
        charge.CpuTimes(instr, unpaid);
        stats->examined += unpaid;
        return true;
      });
}

}  // namespace

Result<ScanStats> SelectScan(const storage::HeapFile& file,
                             const catalog::Schema& schema,
                             const Predicate& pred,
                             const storage::ChargeContext& charge,
                             const TupleSink& emit) {
  ScanStats stats;
  if (file.num_pages() == 0) return stats;
  GAMMA_RETURN_NOT_OK(FilterPages(file, 0, file.num_pages() - 1, schema, pred,
                                  charge, emit, &stats));
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
  GAMMA_RETURN_NOT_OK(FilterPages(file, first_page, last_page, schema, pred,
                                  charge, emit, &stats));
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
    charge.Cpu(ExamineInstr(charge, pred));
    if (pred.Eval(*tuple, schema)) {
      ++stats.emitted;
      emit(*tuple);
    }
  }
  return stats;
}

}  // namespace gammadb::exec
