#ifndef GAMMA_CATALOG_SCHEMA_H_
#define GAMMA_CATALOG_SCHEMA_H_

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/macros.h"

namespace gammadb::catalog {

/// Attribute types of the Wisconsin benchmark: 4-byte integers and
/// fixed-length (space-padded) character strings.
enum class AttrType { kInt32, kChar };

struct Attribute {
  std::string name;
  AttrType type = AttrType::kInt32;
  /// Byte length; 4 for kInt32, the fixed string length for kChar.
  uint32_t length = 4;
};

/// \brief Fixed-layout tuple schema: attribute list plus computed offsets.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Attribute> attrs);

  size_t num_attrs() const { return attrs_.size(); }
  uint32_t tuple_size() const { return tuple_size_; }
  const Attribute& attr(size_t i) const { return attrs_.at(i); }
  uint32_t offset(size_t i) const { return offsets_.at(i); }

  /// Index of the attribute named `name`, if any.
  std::optional<size_t> IndexOf(std::string_view name) const;

  /// Schema of a join result: all attributes of `left` then of `right`,
  /// with names prefixed to stay unique ("l_", "r_" on collision).
  static Schema Concat(const Schema& left, const Schema& right);

 private:
  std::vector<Attribute> attrs_;
  std::vector<uint32_t> offsets_;
  uint32_t tuple_size_ = 0;
};

/// \brief Read-only view of one tuple's bytes under a schema.
///
/// Construction and GetInt are inline: every scan, predicate, routing and
/// statistics pass decodes integers through them once per tuple.
class TupleView {
 public:
  TupleView(const Schema* schema, std::span<const uint8_t> bytes)
      : schema_(schema), bytes_(bytes) {
    GAMMA_DCHECK(schema != nullptr);
    GAMMA_DCHECK(bytes.size() == schema->tuple_size());
  }

  int32_t GetInt(size_t attr_index) const {
    GAMMA_DCHECK(schema_->attr(attr_index).type == AttrType::kInt32);
    int32_t value = 0;
    std::memcpy(&value, bytes_.data() + schema_->offset(attr_index),
                sizeof(value));
    return value;
  }
  std::string_view GetChar(size_t attr_index) const;
  std::span<const uint8_t> bytes() const { return bytes_; }
  const Schema& schema() const { return *schema_; }

 private:
  const Schema* schema_;
  std::span<const uint8_t> bytes_;
};

/// Integer attribute `attr` of `tuple` under `schema` (a key, index or
/// partitioning attribute).
inline int32_t IntAttr(const Schema& schema, std::span<const uint8_t> tuple,
                       int attr) {
  return TupleView(&schema, tuple).GetInt(static_cast<size_t>(attr));
}

/// \brief Builder that assembles one tuple's bytes under a schema.
class TupleBuilder {
 public:
  explicit TupleBuilder(const Schema* schema);

  TupleBuilder& SetInt(size_t attr_index, int32_t value);
  /// Copies `value` into the fixed-length field, space-padded / truncated.
  TupleBuilder& SetChar(size_t attr_index, std::string_view value);

  std::span<const uint8_t> bytes() const { return buffer_; }
  /// Resets all fields to zero for reuse.
  void Reset();

 private:
  const Schema* schema_;
  std::vector<uint8_t> buffer_;
};

/// Writes left ++ right into `out` (the physical form of a join result
/// under Schema::Concat). Reusing one `out` across calls keeps its buffer,
/// so a join emits its results without a heap allocation per tuple.
void ConcatInto(std::vector<uint8_t>& out, std::span<const uint8_t> left,
                std::span<const uint8_t> right);

}  // namespace gammadb::catalog

#endif  // GAMMA_CATALOG_SCHEMA_H_
