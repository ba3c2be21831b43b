#ifndef GAMMA_EXEC_EXCHANGE_H_
#define GAMMA_EXEC_EXCHANGE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "exec/select.h"
#include "exec/split_table.h"
#include "exec/tuple_arena.h"

namespace gammadb::exec {

/// \brief Per-(producer, consumer) tuple buffers: the deterministic seam
/// between the host-parallel executor's producer and consumer subphases.
///
/// Under sequential execution a split table delivers each tuple straight
/// into the consuming operator; producers run one after another, so a
/// consumer sees all of producer 0's tuples, then all of producer 1's, and
/// so on. Under host parallelism producers run concurrently, so instead of
/// delivering directly they append into their private (producer, consumer)
/// cell here — single writer per cell, no locks — and after the producer
/// barrier each consumer drains its column in ascending producer order,
/// which reproduces the sequential arrival order exactly. Tuples are
/// fixed-size (every schema in the system is), so a cell is a TupleArena:
/// appends never move buffered bytes, and Clear() keeps the chunks for the
/// next phase.
class Exchange {
 public:
  Exchange(size_t producers, size_t consumers, size_t tuple_size);

  Exchange(const Exchange&) = delete;
  Exchange& operator=(const Exchange&) = delete;

  size_t producers() const { return producers_; }
  size_t consumers() const { return consumers_; }

  /// Appends one tuple from `producer` bound for `consumer`. Only
  /// `producer`'s task may touch row `producer`.
  void Append(size_t producer, size_t consumer, std::span<const uint8_t> t);

  /// Delivers every buffered tuple bound for `consumer`, in ascending
  /// producer order (within a producer, in append order).
  void Drain(size_t consumer, const TupleSink& sink) const;

  /// Discards all buffered tuples (after a drain barrier, so the same
  /// Exchange can back the next phase).
  void Clear();

 private:
  TupleArena& cell(size_t producer, size_t consumer) {
    return cells_[producer * consumers_ + consumer];
  }
  const TupleArena& cell(size_t producer, size_t consumer) const {
    return cells_[producer * consumers_ + consumer];
  }

  size_t producers_;
  size_t consumers_;
  size_t tuple_size_;
  std::vector<TupleArena> cells_;
};

/// Split-table destinations that buffer `producer`'s tuples in `ex`:
/// destination d is consumer c = (d + rotate) % nodes.size(), running at
/// `nodes[c]`. Rotating by the producer index interleaves concurrent
/// round-robin streams; a host-bound result is `nodes = {host_node}`.
std::vector<SplitTable::Destination> ExchangeDestinations(
    Exchange& ex, size_t producer, const std::vector<int>& nodes,
    size_t rotate = 0);

}  // namespace gammadb::exec

#endif  // GAMMA_EXEC_EXCHANGE_H_
