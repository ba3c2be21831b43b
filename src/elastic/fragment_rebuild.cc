#include "elastic/fragment_rebuild.h"

#include <algorithm>
#include <utility>

#include "common/macros.h"

namespace gammadb::elastic {

using catalog::IndexMeta;
using catalog::IntAttr;
using storage::Rid;

Result<FragmentRebuildResult> RebuildFragment(
    storage::StorageManager& dst, int fragment, catalog::RelationMeta* meta,
    std::vector<std::vector<uint8_t>> tuples, const sim::MachineParams& hw) {
  GAMMA_CHECK(fragment >= 0 &&
              static_cast<size_t>(fragment) < meta->per_node_file.size());
  const uint32_t old_fid = meta->per_node_file[static_cast<size_t>(fragment)];

  // A clustered fragment is physically key-ordered; the rebuild restores
  // that order (order-exact provided no appends landed after the
  // clustering — the same guarantee reintegration always gave).
  const IndexMeta* clustered = meta->FindClusteredIndex();
  if (clustered != nullptr) {
    std::stable_sort(tuples.begin(), tuples.end(),
                     [&](const std::vector<uint8_t>& a,
                         const std::vector<uint8_t>& b) {
                       return IntAttr(meta->schema, a, clustered->attr) <
                              IntAttr(meta->schema, b, clustered->attr);
                     });
  }

  FragmentRebuildResult result;
  const storage::FileId new_fid = dst.CreateFile();
  storage::HeapFile& fresh = dst.file(new_fid);
  result.rids.reserve(tuples.size());
  for (const std::vector<uint8_t>& tuple : tuples) {
    dst.charge().Cpu(hw.cost.instr_per_tuple_store);
    GAMMA_ASSIGN_OR_RETURN(const Rid rid, fresh.Append(tuple));
    result.rids.push_back(rid);
  }

  // Fresh B-trees via BulkLoad, replacing this fragment's slot in every
  // index of the relation.
  for (IndexMeta& idx : meta->indices) {
    std::vector<storage::BTree::Entry> entries;
    entries.reserve(tuples.size());
    for (size_t i = 0; i < tuples.size(); ++i) {
      entries.push_back(storage::BTree::Entry{
          IntAttr(meta->schema, tuples[i], idx.attr), result.rids[i]});
    }
    std::sort(entries.begin(), entries.end(),
              [](const storage::BTree::Entry& a,
                 const storage::BTree::Entry& b) {
                if (a.key != b.key) return a.key < b.key;
                return a.rid < b.rid;
              });
    const storage::IndexId new_idx = dst.CreateIndex();
    GAMMA_RETURN_NOT_OK(dst.index(new_idx).BulkLoad(entries));
    dst.DropIndex(idx.per_node_index[static_cast<size_t>(fragment)]);
    idx.per_node_index[static_cast<size_t>(fragment)] = new_idx;
  }

  if (old_fid != catalog::kNoFile) dst.DropFile(old_fid);
  meta->per_node_file[static_cast<size_t>(fragment)] = new_fid;
  result.tuples = std::move(tuples);
  return result;
}

}  // namespace gammadb::elastic
