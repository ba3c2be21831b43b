#ifndef GAMMA_EXEC_SPLIT_TABLE_H_
#define GAMMA_EXEC_SPLIT_TABLE_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "catalog/schema.h"
#include "exec/bit_vector_filter.h"
#include "sim/cost_tracker.h"

namespace gammadb::exec {

/// How a split table picks the destination process for an output tuple.
struct RouteSpec {
  enum class Kind { kHashAttr, kRoundRobin, kSingle, kBucketMap };

  Kind kind = Kind::kRoundRobin;
  int attr = -1;                        // kHashAttr / kBucketMap
  uint64_t salt = 0x5317;               // kHashAttr / kBucketMap
  int single_index = 0;                 // kSingle
  /// kBucketMap: virtual bucket -> destination index. The tuple's key is
  /// hashed into one of bucket_map.size() virtual buckets, and the map
  /// names the destination. Bucket counts far above the destination count
  /// let a skew-aware builder balance estimated per-node weight.
  std::vector<int32_t> bucket_map;

  static RouteSpec HashAttr(int attr, uint64_t salt);
  static RouteSpec RoundRobin();
  static RouteSpec Single(int index);
  static RouteSpec BucketMap(int attr, uint64_t salt,
                             std::vector<int32_t> bucket_map);
};

/// \brief The split table: Gamma's demultiplexer between operator processes
/// (§2).
///
/// A producing operator pushes every output tuple through its split table,
/// which (a) optionally drops it via a bit-vector filter, (b) picks a
/// destination entry (hash of an attribute, round-robin, one fixed entry or
/// a bucket map), (c) accounts 2 KB network packets — short-circuited when
/// producer and consumer share a processor — and (d) delivers the tuple to
/// the consuming operator instance. Close() flushes partially filled packets and sends the
/// end-of-stream control messages whose growth with configuration size costs
/// the 0% selection its perfect speedup (§5.2.1).
class SplitTable {
 public:
  struct Destination {
    /// Machine node the consuming operator instance runs on.
    int node;
    /// Consuming operator instance.
    std::function<void(std::span<const uint8_t>)> deliver;
  };

  /// `tracker` may be null (no accounting). `filter`, when set, is tested
  /// against `filter_attr` before routing.
  SplitTable(int src_node, const catalog::Schema* schema, RouteSpec route,
             std::vector<Destination> destinations, sim::CostTracker* tracker,
             const BitVectorFilter* filter = nullptr, int filter_attr = -1);

  SplitTable(const SplitTable&) = delete;
  SplitTable& operator=(const SplitTable&) = delete;

  void Send(std::span<const uint8_t> tuple);

  /// Disables same-node short-circuiting (Teradata result redistribution
  /// always pays the network path, §4).
  void set_force_network(bool force) { force_network_ = force; }

  /// Redirects accounting to `tracker` (null = no accounting). A split
  /// table that stays open across phases — the join's per-site result
  /// splits — charges into whichever host-parallel task shard currently
  /// drives it; the machine rebinds it at task entry/exit.
  void BindTracker(sim::CostTracker* tracker) { tracker_ = tracker; }

  /// Flushes partial packets and emits one end-of-stream control message per
  /// destination. Idempotent.
  void Close();

  uint64_t sent() const { return sent_; }
  uint64_t filtered() const { return filtered_; }

 private:
  int RouteTuple(std::span<const uint8_t> tuple);
  void ChargeTupleBytes(int dest_index, size_t bytes);
  /// True for routes that pick destinations from the tuple's key (hash /
  /// bucket-map) — the ones whose balance the skew observability counters
  /// track.
  bool KeyRouted() const;

  int src_node_;
  const catalog::Schema* schema_;
  RouteSpec route_;
  std::vector<Destination> destinations_;
  sim::CostTracker* tracker_;
  const BitVectorFilter* filter_;
  int filter_attr_;
  std::vector<uint64_t> pending_bytes_;
  uint64_t round_robin_next_ = 0;
  uint64_t sent_ = 0;
  uint64_t filtered_ = 0;
  bool closed_ = false;
  bool force_network_ = false;
};

}  // namespace gammadb::exec

#endif  // GAMMA_EXEC_SPLIT_TABLE_H_
