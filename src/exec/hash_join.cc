#include "exec/hash_join.h"

#include "common/hash.h"
#include "common/macros.h"

namespace gammadb::exec {

namespace {

/// Escalations beyond this fall back to over-committing memory; only
/// reachable with pathological key skew (a single key larger than memory).
constexpr uint64_t kMaxEscalations = 32;

}  // namespace

HashJoinSite::HashJoinSite(int node, storage::StorageManager* sm,
                           const catalog::Schema* build_schema,
                           const catalog::Schema* probe_schema,
                           int build_attr, int probe_attr,
                           uint64_t capacity_bytes)
    : JoinSite(node, sm, build_schema, probe_schema, build_attr, probe_attr),
      table_(capacity_bytes) {
  build_spool_id_ = sm_->CreateFile();
  probe_spool_id_ = sm_->CreateFile();
  prev_build_spool_id_ = sm_->CreateFile();
  prev_probe_spool_id_ = sm_->CreateFile();
}

HashJoinSite::~HashJoinSite() {
  sm_->DropFile(build_spool_id_);
  sm_->DropFile(probe_spool_id_);
  sm_->DropFile(prev_build_spool_id_);
  sm_->DropFile(prev_probe_spool_id_);
}

void HashJoinSite::BeginRound(uint64_t round_seed, bool forced) {
  table_.Clear();
  residency_salts_.clear();
  forced_round_ = forced;
  round_seed_ = round_seed;
  std::swap(build_spool_id_, prev_build_spool_id_);
  std::swap(probe_spool_id_, prev_probe_spool_id_);
  sm_->file(build_spool_id_).Clear();
  sm_->file(probe_spool_id_).Clear();
  stats_.escalations = 0;
}

bool HashJoinSite::Resident(int32_t key) const {
  if (forced_round_) return true;
  for (uint64_t salt : residency_salts_) {
    if (HashInt32(key, salt) & 1) return false;
  }
  return true;
}

void HashJoinSite::SpoolBuild(std::span<const uint8_t> tuple) {
  if (Spool(build_spool_id_, tuple)) ++stats_.build_spooled;
}

void HashJoinSite::Escalate() {
  // One more residency split: half the currently resident key space is
  // purged from the table and spooled ("spools tuples to a temporary file
  // based on a second hash function until the hash table is successfully
  // built", §6).
  const uint64_t salt =
      HashBytes(&round_seed_, sizeof(round_seed_),
                0xE5CA1A7E + residency_salts_.size() + 1);
  residency_salts_.push_back(salt);
  ++stats_.escalations;
  const uint64_t purged = table_.ExtractIf(
      [&](int32_t key) { return (HashInt32(key, salt) & 1) != 0; },
      [&](int32_t, std::span<const uint8_t> tuple) {
        SpoolBuild(tuple);
        GAMMA_DCHECK(stats_.build_resident > 0);
        --stats_.build_resident;
      });
  (void)purged;
}

void HashJoinSite::AddBuildTuple(std::span<const uint8_t> tuple) {
  ++stats_.build_received;
  const int32_t key = BuildKey(tuple);
  Charge(&sim::CostConstants::instr_per_tuple_build);
  if (!Resident(key)) {
    SpoolBuild(tuple);
    return;
  }
  if (forced_round_) {
    if (!table_.Insert(key, tuple)) {
      table_.InsertUnchecked(key, tuple);
      ++stats_.forced_inserts;
    }
    ++stats_.build_resident;
    return;
  }
  while (!table_.Insert(key, tuple)) {
    if (residency_salts_.size() >= kMaxEscalations) {
      table_.InsertUnchecked(key, tuple);
      ++stats_.forced_inserts;
      ++stats_.build_resident;
      return;
    }
    Escalate();
    if (!Resident(key)) {
      SpoolBuild(tuple);
      return;
    }
  }
  ++stats_.build_resident;
}

void HashJoinSite::AddProbeTuple(std::span<const uint8_t> tuple,
                                 const TupleSink& emit) {
  ++stats_.probe_received;
  const int32_t key = ProbeKey(tuple);
  Charge(&sim::CostConstants::instr_per_tuple_probe);
  if (!Resident(key)) {
    if (Spool(probe_spool_id_, tuple)) ++stats_.probe_spooled;
    return;
  }
  stats_.matches += ProbeTable(table_, key, tuple, emit);
}

bool HashJoinSite::HasOverflow() const {
  return sm_->file(build_spool_id_).num_tuples() > 0 ||
         sm_->file(probe_spool_id_).num_tuples() > 0;
}

const storage::HeapFile& HashJoinSite::build_spool() const {
  return sm_->file(build_spool_id_);
}
const storage::HeapFile& HashJoinSite::probe_spool() const {
  return sm_->file(probe_spool_id_);
}
const storage::HeapFile& HashJoinSite::prev_build_spool() const {
  return sm_->file(prev_build_spool_id_);
}
const storage::HeapFile& HashJoinSite::prev_probe_spool() const {
  return sm_->file(prev_probe_spool_id_);
}

}  // namespace gammadb::exec
