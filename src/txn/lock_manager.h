#ifndef GAMMA_TXN_LOCK_MANAGER_H_
#define GAMMA_TXN_LOCK_MANAGER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

namespace gammadb::txn {

/// Multi-granularity lock modes (Gray's hierarchy): intent-shared and
/// intent-exclusive announce finer locks below, SIX is the classic
/// "read everything, update some" combination.
enum class LockMode : uint8_t { kIS, kIX, kS, kSIX, kX };

/// Can a lock in `requested` be granted alongside a held lock in `held`?
bool Compatible(LockMode held, LockMode requested);

/// Least mode at least as strong as both (the upgrade target when a holder
/// of `a` requests `b`): sup(S, IX) = SIX, sup(anything, X) = X, ...
LockMode Supremum(LockMode a, LockMode b);

const char* ModeName(LockMode mode);

/// A lockable object in the relation -> fragment -> page hierarchy.
/// Relation ids are small integers handed out by the TxnManager registry.
struct LockId {
  enum class Level : uint8_t { kRelation, kFragment, kPage };
  Level level = Level::kRelation;
  uint32_t relation = 0;
  uint32_t fragment = 0;
  uint32_t page = 0;

  static LockId Relation(uint32_t relation) {
    return {Level::kRelation, relation, 0, 0};
  }
  static LockId Fragment(uint32_t relation, uint32_t fragment) {
    return {Level::kFragment, relation, fragment, 0};
  }
  static LockId Page(uint32_t relation, uint32_t fragment, uint32_t page) {
    return {Level::kPage, relation, fragment, page};
  }

  uint64_t Encode() const {
    return (static_cast<uint64_t>(level) << 60) |
           (static_cast<uint64_t>(relation) << 40) |
           (static_cast<uint64_t>(fragment) << 32) | page;
  }
  std::string ToString() const;
};

/// \brief One lock table of the multi-granularity 2PL layer.
///
/// The machine's only lock tables. A conflicting request queues: each lock
/// keeps a granted group and a FIFO wait queue, upgrades jump to the front,
/// and a release promotes waiters strictly from the front (no starvation,
/// and the grant order is a pure function of the request order —
/// deterministic). GammaMachine never waits on a real thread: it cancels a
/// queued request and fails the statement fast.
/// Blocking policy lives above: the TxnManager runs deadlock detection over
/// the wait queues of every table.
class LockManager {
 public:
  enum class Outcome { kGranted, kWait };

  /// A request granted as a side effect of a release/cancel; the owner's
  /// scheduler resumes the waiting transaction.
  struct Grant {
    uint64_t txn;
    LockId id;
  };

  LockManager() = default;
  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  /// Requests `mode` on `id`. Re-acquisition at (or below) the held mode is
  /// granted immediately; a stronger request becomes an upgrade to
  /// Supremum(held, mode). A transaction may have at most one waiting
  /// request per table at a time.
  Outcome Acquire(uint64_t txn, LockId id, LockMode mode);

  /// Cancels `txn`'s waiting request (if any); queue removal can promote
  /// waiters behind it.
  void CancelWait(uint64_t txn, std::vector<Grant>* grants);

  /// Releases everything `txn` holds, promoting newly grantable waiters.
  void Release(uint64_t txn, std::vector<Grant>* grants);

  /// Transactions `txn`'s waiting request is stuck behind: incompatible
  /// members of the granted group plus everyone queued ahead of it (FIFO
  /// promotion stops at the first blocked waiter, so queue order is a real
  /// dependency). Sorted, deduplicated, never contains `txn`.
  std::vector<uint64_t> Blockers(uint64_t txn) const;

  bool HoldsAtLeast(uint64_t txn, LockId id, LockMode mode) const;
  bool IsWaiting(uint64_t txn) const {
    return wait_key_.find(txn) != wait_key_.end();
  }
  size_t held_count(uint64_t txn) const;
  uint64_t acquisitions() const { return acquisitions_; }
  uint64_t waits() const { return waits_; }
  uint64_t upgrades() const { return upgrades_; }

 private:
  struct Req {
    uint64_t txn;
    LockMode mode;
    bool upgrade;
  };
  struct Entry {
    LockId id;
    std::vector<Req> granted;
    std::deque<Req> waiting;
  };

  /// Is `mode` compatible with every granted request except `txn`'s own?
  static bool CanGrant(const Entry& entry, uint64_t txn, LockMode mode);
  void PromoteWaiters(Entry& entry, std::vector<Grant>* grants);

  /// Keyed by LockId::Encode(); ordered so iteration is deterministic.
  std::map<uint64_t, Entry> table_;
  /// txn -> encoded ids of locks it holds (grant order).
  std::map<uint64_t, std::vector<uint64_t>> held_;
  /// txn -> encoded id of its single waiting request.
  std::map<uint64_t, uint64_t> wait_key_;
  uint64_t acquisitions_ = 0;
  uint64_t waits_ = 0;
  uint64_t upgrades_ = 0;
};

}  // namespace gammadb::txn

#endif  // GAMMA_TXN_LOCK_MANAGER_H_
