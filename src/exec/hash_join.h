#ifndef GAMMA_EXEC_HASH_JOIN_H_
#define GAMMA_EXEC_HASH_JOIN_H_

#include <cstdint>
#include <vector>

#include "exec/hash_table.h"
#include "exec/join_site.h"

namespace gammadb::exec {

/// \brief A join site running Gamma's distributed Simple hash-partitioned
/// join [DEWI85] (§6, §6.2.2).
///
/// Build tuples arriving through the split table are inserted into a
/// memory-capped hash table. When the table overflows, the site escalates: a
/// fresh subpartitioning hash function halves the *resident* key set, the
/// no-longer-resident tuples are purged from the table and spooled to a
/// temporary file, and building continues. The scheduler then hands the same
/// residency decision to the probing side, so probe tuples whose partners
/// were spooled are spooled too. The spooled pair is joined in a later round
/// by the orchestrator (which, per the paper, redistributes overflow tuples
/// across *all* join sites with a new split-table hash — the mechanism
/// behind the Local/Remote crossover of Figure 13). Those rounds span
/// sites, so `Finish` has nothing left to do locally.
class HashJoinSite : public JoinSite {
 public:
  struct Stats {
    uint64_t build_received = 0;
    uint64_t build_resident = 0;
    uint64_t build_spooled = 0;
    uint64_t probe_received = 0;
    uint64_t probe_spooled = 0;
    uint64_t matches = 0;
    uint64_t escalations = 0;       // residency splits in the current round
    uint64_t forced_inserts = 0;    // pathological-skew safety valve
  };

  /// `sm` provides the site's temporary spool files; `capacity_bytes` is the
  /// memory available for this site's hash table.
  HashJoinSite(int node, storage::StorageManager* sm,
               const catalog::Schema* build_schema,
               const catalog::Schema* probe_schema, int build_attr,
               int probe_attr, uint64_t capacity_bytes);

  ~HashJoinSite() override;

  /// Starts a (new or first) round: clears the table and residency chain,
  /// retires the current spools to "previous" (so the orchestrator can scan
  /// and redistribute them) and opens fresh ones. `round_seed` decorrelates
  /// this round's residency hashes from previous rounds and from the split
  /// tables. A `forced` round never spools: every build tuple is inserted
  /// even past capacity (the orchestrator's last resort when duplicate skew
  /// leaves a single key group larger than the table — no residency split
  /// can make progress on it).
  void BeginRound(uint64_t round_seed, bool forced = false);

  /// Build phase: insert or spool one arriving build tuple.
  void AddBuildTuple(std::span<const uint8_t> tuple) override;

  /// Probe phase: probe or spool one arriving probe tuple.
  void AddProbeTuple(std::span<const uint8_t> tuple,
                     const TupleSink& emit) override;

  Status Finish(const TupleSink&) override { return Status::OK(); }

  /// True when this round spooled anything (another round is needed).
  bool HasOverflow() const;

  /// Spooled tuples of the round in progress (awaiting the next round).
  const storage::HeapFile& build_spool() const;
  const storage::HeapFile& probe_spool() const;
  /// Spools retired by the last BeginRound (the previous round's overflow);
  /// the orchestrator scans these to redistribute.
  const storage::HeapFile& prev_build_spool() const;
  const storage::HeapFile& prev_probe_spool() const;

  const Stats& stats() const { return stats_; }
  const JoinHashTable& table() const { return table_; }

 private:
  bool Resident(int32_t key) const;
  /// Adds one residency split and purges newly non-resident tuples from the
  /// hash table into the build spool.
  void Escalate();
  void SpoolBuild(std::span<const uint8_t> tuple);

  JoinHashTable table_;
  uint64_t round_seed_ = 0;
  std::vector<uint64_t> residency_salts_;
  storage::FileId build_spool_id_;
  storage::FileId probe_spool_id_;
  storage::FileId prev_build_spool_id_;
  storage::FileId prev_probe_spool_id_;
  bool forced_round_ = false;
  Stats stats_;
};

}  // namespace gammadb::exec

#endif  // GAMMA_EXEC_HASH_JOIN_H_
