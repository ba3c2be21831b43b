#include "catalog/schema.h"

#include <algorithm>

#include "common/macros.h"

namespace gammadb::catalog {

Schema::Schema(std::vector<Attribute> attrs) : attrs_(std::move(attrs)) {
  offsets_.reserve(attrs_.size());
  uint32_t offset = 0;
  for (Attribute& attr : attrs_) {
    if (attr.type == AttrType::kInt32) attr.length = 4;
    GAMMA_CHECK_MSG(attr.length > 0, "zero-length attribute");
    offsets_.push_back(offset);
    offset += attr.length;
  }
  tuple_size_ = offset;
}

std::optional<size_t> Schema::IndexOf(std::string_view name) const {
  for (size_t i = 0; i < attrs_.size(); ++i) {
    if (attrs_[i].name == name) return i;
  }
  return std::nullopt;
}

Schema Schema::Concat(const Schema& left, const Schema& right) {
  std::vector<Attribute> attrs;
  attrs.reserve(left.num_attrs() + right.num_attrs());
  for (size_t i = 0; i < left.num_attrs(); ++i) attrs.push_back(left.attr(i));
  for (size_t i = 0; i < right.num_attrs(); ++i) {
    Attribute attr = right.attr(i);
    const bool collides =
        std::any_of(attrs.begin(), attrs.end(), [&](const Attribute& a) {
          return a.name == attr.name;
        });
    if (collides) attr.name = "r_" + attr.name;
    attrs.push_back(std::move(attr));
  }
  return Schema(std::move(attrs));
}

std::string_view TupleView::GetChar(size_t attr_index) const {
  const Attribute& attr = schema_->attr(attr_index);
  GAMMA_DCHECK(attr.type == AttrType::kChar);
  return {reinterpret_cast<const char*>(bytes_.data()) +
              schema_->offset(attr_index),
          attr.length};
}

TupleBuilder::TupleBuilder(const Schema* schema)
    : schema_(schema), buffer_(schema->tuple_size(), 0) {
  GAMMA_CHECK(schema != nullptr);
}

TupleBuilder& TupleBuilder::SetInt(size_t attr_index, int32_t value) {
  GAMMA_DCHECK(schema_->attr(attr_index).type == AttrType::kInt32);
  std::memcpy(buffer_.data() + schema_->offset(attr_index), &value,
              sizeof(value));
  return *this;
}

TupleBuilder& TupleBuilder::SetChar(size_t attr_index,
                                    std::string_view value) {
  const Attribute& attr = schema_->attr(attr_index);
  GAMMA_DCHECK(attr.type == AttrType::kChar);
  uint8_t* field = buffer_.data() + schema_->offset(attr_index);
  const size_t copy = std::min<size_t>(value.size(), attr.length);
  std::memcpy(field, value.data(), copy);
  std::memset(field + copy, ' ', attr.length - copy);
  return *this;
}

void TupleBuilder::Reset() {
  std::fill(buffer_.begin(), buffer_.end(), uint8_t{0});
}

void ConcatInto(std::vector<uint8_t>& out, std::span<const uint8_t> left,
                std::span<const uint8_t> right) {
  out.assign(left.begin(), left.end());
  out.insert(out.end(), right.begin(), right.end());
}

}  // namespace gammadb::catalog
