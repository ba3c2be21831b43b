#ifndef GAMMA_EXEC_JOIN_SITE_H_
#define GAMMA_EXEC_JOIN_SITE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "catalog/schema.h"
#include "common/status.h"
#include "exec/hash_table.h"
#include "exec/select.h"
#include "sim/hardware.h"
#include "storage/storage_manager.h"

namespace gammadb::exec {

/// \brief One join-operator instance at one processor (§6): the part every
/// join algorithm shares.
///
/// Build tuples and then probe tuples arrive pushed through the split
/// tables; `Finish` runs whatever local work is left once both inputs have
/// closed. The three algorithms — Gamma's Simple hash join
/// (`HashJoinSite`), the Hybrid hash join (`HybridHashJoinSite`) and the
/// sort-merge join (`MergeJoinSite`) — differ only in what they keep in
/// memory and what they spool. The spool append, its error latch and the
/// probe-and-emit loop live here, once.
class JoinSite {
 public:
  /// `sm` provides the site's temporary spool files and its charge context.
  JoinSite(int node, storage::StorageManager* sm,
           const catalog::Schema* build_schema,
           const catalog::Schema* probe_schema, int build_attr,
           int probe_attr);

  JoinSite(const JoinSite&) = delete;
  JoinSite& operator=(const JoinSite&) = delete;

  virtual ~JoinSite() = default;

  int node() const { return node_; }

  /// First spool-append error, or OK. Sticky; tuples a site would spool
  /// after an error are dropped. The orchestrator checks this after each
  /// phase (the push-based Add* callbacks cannot return a Status).
  const Status& status() const { return status_; }

  /// Build phase: insert, spool or keep one arriving build tuple.
  virtual void AddBuildTuple(std::span<const uint8_t> tuple) = 0;

  /// Probe phase: one arriving probe tuple. Matches found now are emitted
  /// as build ++ probe concatenations.
  virtual void AddProbeTuple(std::span<const uint8_t> tuple,
                             const TupleSink& emit) = 0;

  /// Joins what the site kept back locally, after both inputs closed, and
  /// emits the remaining matches.
  virtual Status Finish(const TupleSink& emit) = 0;

 protected:
  int32_t BuildKey(std::span<const uint8_t> tuple) const {
    return catalog::TupleView(build_schema_, tuple)
        .GetInt(static_cast<size_t>(build_attr_));
  }
  int32_t ProbeKey(std::span<const uint8_t> tuple) const {
    return catalog::TupleView(probe_schema_, tuple)
        .GetInt(static_cast<size_t>(probe_attr_));
  }

  /// Charges one path length of the node's cost model (nothing untracked).
  void Charge(double sim::CostConstants::*instr) const {
    const storage::ChargeContext& charge = sm_->charge();
    if (charge.tracker != nullptr) charge.Cpu(charge.tracker->hw().cost.*instr);
  }

  /// Charges one tuple copy and appends `tuple` to the spool `file`. After
  /// the first failed append nothing is charged or appended; the failure
  /// is kept in status(). Returns whether the tuple was spooled.
  bool Spool(storage::FileId file, std::span<const uint8_t> tuple);

  /// Emits build ++ `probe` for every tuple of `table` stored under `key`,
  /// charging one tuple copy per match. Returns the number of matches.
  uint64_t ProbeTable(const JoinHashTable& table, int32_t key,
                      std::span<const uint8_t> probe, const TupleSink& emit);

  int node_;
  storage::StorageManager* sm_;
  const catalog::Schema* build_schema_;
  const catalog::Schema* probe_schema_;
  int build_attr_;
  int probe_attr_;

 private:
  Status status_;
  /// Result-tuple buffer reused by every match (no allocation per result).
  std::vector<uint8_t> joined_;
};

}  // namespace gammadb::exec

#endif  // GAMMA_EXEC_JOIN_SITE_H_
