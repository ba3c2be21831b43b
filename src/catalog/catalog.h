#ifndef GAMMA_CATALOG_CATALOG_H_
#define GAMMA_CATALOG_CATALOG_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "catalog/partition.h"
#include "catalog/schema.h"
#include "common/result.h"

namespace gammadb::catalog {

/// Sentinel in per_node_file / per_node_backup_file: this node holds no
/// fragment (node was dead at creation, or the relation has no backups).
inline constexpr uint32_t kNoFile = 0xFFFFFFFF;

/// Metadata for one index of a relation, with the per-site physical index
/// ids (every site indexes its own fragment).
struct IndexMeta {
  /// Indexed attribute.
  int attr = -1;
  /// Clustered: the fragment files are sorted on `attr` and range scans
  /// touch only matching data pages. Non-clustered: data order is unrelated.
  bool clustered = false;
  /// Physical index id at each site (parallel to the relation's fragments).
  std::vector<uint32_t> per_node_index;
};

/// \brief Metadata for one horizontally partitioned relation.
struct RelationMeta {
  std::string name;
  Schema schema;
  PartitionSpec partitioning;
  /// Physical heap-file id at each site with disks (kNoFile = no fragment).
  std::vector<uint32_t> per_node_file;
  /// Chained declustering [HD90-style]: when backed_up, the backup copy of
  /// fragment f lives on node (f+1) % n as file per_node_backup_file[f].
  /// Backups carry no indexes — a backup-served fragment is always scanned.
  bool backed_up = false;
  std::vector<uint32_t> per_node_backup_file;
  std::vector<IndexMeta> indices;
  uint64_t num_tuples = 0;

  /// The clustered index on `attr` if one exists, else the non-clustered
  /// one, else nullptr.
  const IndexMeta* FindIndex(int attr) const;
  const IndexMeta* FindClusteredIndex() const;
};

/// \brief Name -> relation metadata map for one machine.
class Catalog {
 public:
  Catalog() = default;

  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  Status Register(RelationMeta meta);
  Result<RelationMeta*> Get(const std::string& name);
  Result<const RelationMeta*> Get(const std::string& name) const;
  bool Contains(const std::string& name) const {
    return relations_.contains(name);
  }
  /// AlreadyExists when a statement may not store its result under `name`:
  /// it names an existing relation. An empty name is always free (the
  /// machine picks a fresh one).
  Status CheckResultName(const std::string& name) const;
  /// Refuses a stored result (or a temporary spool) before anything is
  /// charged: a taken `name` (CheckResultName), or a `schema` tuple that
  /// does not fit on one `page_size` page.
  Status CheckResult(const std::string& name, const Schema& schema,
                     uint32_t page_size) const;
  /// The next `prefix` + N (N = 1, 2, ...) that names no relation; the
  /// counter never reuses a number, even after its relation is dropped.
  std::string FreshResultName(const std::string& prefix);
  Status Drop(const std::string& name);
  std::vector<std::string> Names() const;

 private:
  std::map<std::string, RelationMeta> relations_;
  uint64_t next_result_id_ = 1;
};

}  // namespace gammadb::catalog

#endif  // GAMMA_CATALOG_CATALOG_H_
