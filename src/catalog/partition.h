#ifndef GAMMA_CATALOG_PARTITION_H_
#define GAMMA_CATALOG_PARTITION_H_

#include <cstdint>
#include <span>
#include <vector>

#include "catalog/schema.h"

namespace gammadb::catalog {

/// Gamma's declustering strategies (§2). Its two range strategies (user
/// ranges, uniform ranges) differ only in how the boundaries are chosen, so
/// they share kRange.
enum class PartitionStrategy {
  /// Tuples dealt to disks in turn; the default for query results.
  kRoundRobin,
  /// A randomizing function applied to the key attribute selects the disk.
  kHashed,
  /// Key ranges per site: boundaries given by the user (RangeUser) or
  /// computed to spread the key domain uniformly (RangeUniform).
  kRange,
};

/// \brief How a relation is declustered across the processors with disks.
struct PartitionSpec {
  PartitionStrategy strategy = PartitionStrategy::kRoundRobin;
  /// Partitioning attribute (hashed / range strategies).
  int key_attr = -1;
  /// Ascending boundaries b_0 < b_1 < ... (size = ranges - 1); key < b_i goes
  /// to the first range i whose boundary exceeds it. Filled by the user
  /// (RangeUser) or computed from the key domain (RangeUniform).
  std::vector<int32_t> range_boundaries;
  /// Salt for the declustering hash; split tables use different salts so
  /// load-time and join-time hashes stay independent.
  uint64_t hash_salt = 0x6A17;
  /// Virtual-bucket placement for hashed relations (elastic growth; the
  /// catalog-side mirror of exec::RouteSpec::kBucketMap): when non-empty,
  /// the home site is bucket_map[Hash(key, salt) % bucket_map.size()]
  /// instead of Hash % nodes, so placement no longer depends on the machine
  /// width and a migration rewrites buckets rather than rehashing every
  /// tuple. AddNode converts plain hashed specs placement-preservingly
  /// (bucket b -> b % old_nodes with old_nodes | buckets).
  std::vector<int32_t> bucket_map;
  /// Range-site indirection for range relations (elastic growth): when
  /// non-empty (size = range_boundaries.size() + 1), range i is served by
  /// node range_nodes[i] instead of node i, so a boundary split can hand one
  /// sub-range to a new node without renumbering every later site.
  std::vector<int32_t> range_nodes;

  static PartitionSpec RoundRobin() { return {}; }
  static PartitionSpec Hashed(int key_attr);
  static PartitionSpec RangeUser(int key_attr,
                                 std::vector<int32_t> boundaries);
  /// Uniform ranges over the closed key domain [lo, hi] for `nodes` sites.
  static PartitionSpec RangeUniform(int key_attr, int32_t lo, int32_t hi,
                                    int nodes);

  /// Number of key ranges (range strategies): boundaries + 1.
  size_t num_ranges() const { return range_boundaries.size() + 1; }
  /// Node serving range `i`, honouring the range_nodes indirection.
  int RangeNode(size_t i, int num_nodes) const;

  /// Flat little-endian image for kPartition WAL records, and its inverse.
  /// Deserialize returns false on a malformed image (spec untouched).
  std::vector<uint8_t> Serialize() const;
  static bool Deserialize(std::span<const uint8_t> bytes, PartitionSpec* out);
};

/// \brief Routes tuples to home sites under a PartitionSpec.
class Partitioner {
 public:
  Partitioner(const PartitionSpec* spec, const Schema* schema, int num_nodes);

  /// Home site for this tuple. Round-robin advances an internal counter.
  int NodeFor(std::span<const uint8_t> tuple);

  /// What the `position`-th NodeFor call of a fresh Partitioner returns
  /// for `tuple`, with no counter to advance: disjoint ranges of one batch
  /// can be routed at once.
  int NodeAt(uint64_t position, std::span<const uint8_t> tuple) const;

  /// Home site by key value (exact-match queries on hashed/range relations
  /// can go straight to one site). Returns -1 when the strategy cannot
  /// localize a key (round-robin).
  int NodeForKey(int32_t key) const;

 private:
  const PartitionSpec* spec_;
  const Schema* schema_;
  int num_nodes_;
  uint64_t round_robin_next_ = 0;
};

}  // namespace gammadb::catalog

#endif  // GAMMA_CATALOG_PARTITION_H_
