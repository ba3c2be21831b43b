#include "catalog/catalog.h"

#include "storage/heap_file.h"

namespace gammadb::catalog {

const IndexMeta* RelationMeta::FindIndex(int attr) const {
  const IndexMeta* found = nullptr;
  for (const IndexMeta& index : indices) {
    if (index.attr != attr) continue;
    if (index.clustered) return &index;
    found = &index;
  }
  return found;
}

const IndexMeta* RelationMeta::FindClusteredIndex() const {
  for (const IndexMeta& index : indices) {
    if (index.clustered) return &index;
  }
  return nullptr;
}

Status Catalog::Register(RelationMeta meta) {
  if (relations_.contains(meta.name)) {
    return Status::AlreadyExists("relation " + meta.name);
  }
  relations_.emplace(meta.name, std::move(meta));
  return Status::OK();
}

Status Catalog::CheckResultName(const std::string& name) const {
  if (!name.empty() && relations_.contains(name)) {
    return Status::AlreadyExists("result relation " + name);
  }
  return Status::OK();
}

Status Catalog::CheckResult(const std::string& name, const Schema& schema,
                            uint32_t page_size) const {
  GAMMA_RETURN_NOT_OK(CheckResultName(name));
  if (!storage::HeapFile::RecordFits(schema.tuple_size(), page_size)) {
    return Status::InvalidArgument("a result tuple does not fit on one page");
  }
  return Status::OK();
}

std::string Catalog::FreshResultName(const std::string& prefix) {
  std::string name;
  do {
    name = prefix + std::to_string(next_result_id_++);
  } while (Contains(name));
  return name;
}

Result<RelationMeta*> Catalog::Get(const std::string& name) {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("relation " + name);
  }
  return &it->second;
}

Result<const RelationMeta*> Catalog::Get(const std::string& name) const {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("relation " + name);
  }
  return &it->second;
}

Status Catalog::Drop(const std::string& name) {
  if (relations_.erase(name) == 0) {
    return Status::NotFound("relation " + name);
  }
  return Status::OK();
}

std::vector<std::string> Catalog::Names() const {
  std::vector<std::string> names;
  names.reserve(relations_.size());
  for (const auto& [name, meta] : relations_) names.push_back(name);
  return names;
}

}  // namespace gammadb::catalog
