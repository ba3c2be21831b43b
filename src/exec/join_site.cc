#include "exec/join_site.h"

#include "common/macros.h"

namespace gammadb::exec {

JoinSite::JoinSite(int node, storage::StorageManager* sm,
                   const catalog::Schema* build_schema,
                   const catalog::Schema* probe_schema, int build_attr,
                   int probe_attr)
    : node_(node),
      sm_(sm),
      build_schema_(build_schema),
      probe_schema_(probe_schema),
      build_attr_(build_attr),
      probe_attr_(probe_attr) {
  GAMMA_CHECK(sm != nullptr && build_schema != nullptr &&
              probe_schema != nullptr);
  GAMMA_CHECK(build_attr >= 0 && probe_attr >= 0);
}

bool JoinSite::Spool(storage::FileId file, std::span<const uint8_t> tuple) {
  if (!status_.ok()) return false;
  Charge(&sim::CostConstants::instr_per_tuple_copy);
  const auto rid = sm_->file(file).Append(tuple);
  if (!rid.ok()) {
    status_ = rid.status();
    return false;
  }
  return true;
}

uint64_t JoinSite::ProbeTable(const JoinHashTable& table, int32_t key,
                              std::span<const uint8_t> probe,
                              const TupleSink& emit) {
  uint64_t matches = 0;
  table.Probe(key, [&](std::span<const uint8_t> build_tuple) {
    catalog::ConcatInto(joined_, build_tuple, probe);
    Charge(&sim::CostConstants::instr_per_tuple_copy);
    ++matches;
    emit(joined_);
  });
  return matches;
}

}  // namespace gammadb::exec
