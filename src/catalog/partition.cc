#include "catalog/partition.h"

#include <algorithm>

#include "common/hash.h"
#include "common/macros.h"

namespace gammadb::catalog {

PartitionSpec PartitionSpec::Hashed(int key_attr) {
  PartitionSpec spec;
  spec.strategy = PartitionStrategy::kHashed;
  spec.key_attr = key_attr;
  return spec;
}

PartitionSpec PartitionSpec::RangeUser(int key_attr,
                                       std::vector<int32_t> boundaries) {
  GAMMA_CHECK(std::is_sorted(boundaries.begin(), boundaries.end()));
  PartitionSpec spec;
  spec.strategy = PartitionStrategy::kRange;
  spec.key_attr = key_attr;
  spec.range_boundaries = std::move(boundaries);
  return spec;
}

PartitionSpec PartitionSpec::RangeUniform(int key_attr, int32_t lo,
                                          int32_t hi, int nodes) {
  GAMMA_CHECK(lo <= hi && nodes > 0);
  PartitionSpec spec;
  spec.strategy = PartitionStrategy::kRange;
  spec.key_attr = key_attr;
  const int64_t span = static_cast<int64_t>(hi) - lo + 1;
  for (int i = 1; i < nodes; ++i) {
    spec.range_boundaries.push_back(
        static_cast<int32_t>(lo + span * i / nodes));
  }
  return spec;
}

int PartitionSpec::RangeNode(size_t i, int num_nodes) const {
  if (!range_nodes.empty()) {
    GAMMA_CHECK(i < range_nodes.size());
    return range_nodes[i];
  }
  return static_cast<int>(
      std::min(i, static_cast<size_t>(num_nodes > 0 ? num_nodes - 1 : 0)));
}

namespace {

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

bool GetU32(std::span<const uint8_t> bytes, size_t* pos, uint32_t* v) {
  if (*pos + 4 > bytes.size()) return false;
  *v = 0;
  for (int i = 0; i < 4; ++i) {
    *v |= static_cast<uint32_t>(bytes[*pos + static_cast<size_t>(i)]) << (8 * i);
  }
  *pos += 4;
  return true;
}

bool GetU64(std::span<const uint8_t> bytes, size_t* pos, uint64_t* v) {
  if (*pos + 8 > bytes.size()) return false;
  *v = 0;
  for (int i = 0; i < 8; ++i) {
    *v |= static_cast<uint64_t>(bytes[*pos + static_cast<size_t>(i)]) << (8 * i);
  }
  *pos += 8;
  return true;
}

bool GetI32Vec(std::span<const uint8_t> bytes, size_t* pos,
               std::vector<int32_t>* out) {
  uint32_t count = 0;
  if (!GetU32(bytes, pos, &count)) return false;
  if (*pos + static_cast<size_t>(count) * 4 > bytes.size()) return false;
  out->clear();
  out->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t raw = 0;
    GetU32(bytes, pos, &raw);
    out->push_back(static_cast<int32_t>(raw));
  }
  return true;
}

void PutI32Vec(std::vector<uint8_t>* out, const std::vector<int32_t>& v) {
  PutU32(out, static_cast<uint32_t>(v.size()));
  for (const int32_t x : v) PutU32(out, static_cast<uint32_t>(x));
}

}  // namespace

std::vector<uint8_t> PartitionSpec::Serialize() const {
  std::vector<uint8_t> out;
  PutU32(&out, static_cast<uint32_t>(strategy));
  PutU32(&out, static_cast<uint32_t>(key_attr));
  PutU64(&out, hash_salt);
  PutI32Vec(&out, range_boundaries);
  PutI32Vec(&out, bucket_map);
  PutI32Vec(&out, range_nodes);
  return out;
}

bool PartitionSpec::Deserialize(std::span<const uint8_t> bytes,
                                PartitionSpec* out) {
  PartitionSpec spec;
  size_t pos = 0;
  uint32_t strategy_raw = 0;
  uint32_t key_attr_raw = 0;
  if (!GetU32(bytes, &pos, &strategy_raw)) return false;
  if (strategy_raw > static_cast<uint32_t>(PartitionStrategy::kRange)) {
    return false;
  }
  spec.strategy = static_cast<PartitionStrategy>(strategy_raw);
  if (!GetU32(bytes, &pos, &key_attr_raw)) return false;
  spec.key_attr = static_cast<int>(static_cast<int32_t>(key_attr_raw));
  if (!GetU64(bytes, &pos, &spec.hash_salt)) return false;
  if (!GetI32Vec(bytes, &pos, &spec.range_boundaries)) return false;
  if (!GetI32Vec(bytes, &pos, &spec.bucket_map)) return false;
  if (!GetI32Vec(bytes, &pos, &spec.range_nodes)) return false;
  if (pos != bytes.size()) return false;
  *out = std::move(spec);
  return true;
}

Partitioner::Partitioner(const PartitionSpec* spec, const Schema* schema,
                         int num_nodes)
    : spec_(spec), schema_(schema), num_nodes_(num_nodes) {
  GAMMA_CHECK(spec != nullptr && schema != nullptr && num_nodes > 0);
  if (spec->strategy != PartitionStrategy::kRoundRobin) {
    GAMMA_CHECK_MSG(spec->key_attr >= 0 &&
                        static_cast<size_t>(spec->key_attr) <
                            schema->num_attrs(),
                    "partitioning attribute out of range");
  }
}

int Partitioner::NodeFor(std::span<const uint8_t> tuple) {
  return NodeAt(round_robin_next_++, tuple);
}

int Partitioner::NodeAt(uint64_t position,
                        std::span<const uint8_t> tuple) const {
  if (spec_->strategy == PartitionStrategy::kRoundRobin) {
    return static_cast<int>(position % static_cast<uint64_t>(num_nodes_));
  }
  const TupleView view(schema_, tuple);
  return NodeForKey(view.GetInt(static_cast<size_t>(spec_->key_attr)));
}

int Partitioner::NodeForKey(int32_t key) const {
  switch (spec_->strategy) {
    case PartitionStrategy::kRoundRobin:
      return -1;
    case PartitionStrategy::kHashed: {
      const uint64_t hash = HashInt32(key, spec_->hash_salt);
      if (!spec_->bucket_map.empty()) {
        return spec_->bucket_map[hash % spec_->bucket_map.size()];
      }
      return static_cast<int>(hash % static_cast<uint64_t>(num_nodes_));
    }
    case PartitionStrategy::kRange: {
      const auto& bounds = spec_->range_boundaries;
      const auto it = std::upper_bound(bounds.begin(), bounds.end(), key);
      const size_t range = static_cast<size_t>(it - bounds.begin());
      return spec_->RangeNode(range, num_nodes_);
    }
  }
  return -1;
}

}  // namespace gammadb::catalog
