#include "storage/storage_manager.h"

#include "common/macros.h"

namespace gammadb::storage {

StorageManager::StorageManager(uint32_t page_size, uint64_t buffer_bytes,
                               sim::FaultInjector* faults, int fault_node)
    : disk_(page_size, faults, fault_node),
      pool_(&disk_, &charge_, buffer_bytes) {}

void StorageManager::BindTracker(sim::CostTracker* tracker, int node) {
  charge_.tracker = tracker;
  charge_.node = node;
}

FileId StorageManager::CreateFile() {
  const FileId id = next_file_id_++;
  files_[id] = std::make_unique<HeapFile>(&pool_, &charge_);
  return id;
}

HeapFile& StorageManager::file(FileId id) {
  auto it = files_.find(id);
  GAMMA_CHECK_MSG(it != files_.end(), "unknown file id");
  return *it->second;
}

const HeapFile& StorageManager::file(FileId id) const {
  auto it = files_.find(id);
  GAMMA_CHECK_MSG(it != files_.end(), "unknown file id");
  return *it->second;
}

void StorageManager::DropFile(FileId id) {
  GAMMA_CHECK_MSG(files_.erase(id) == 1, "unknown file id");
}

IndexId StorageManager::CreateIndex() {
  const IndexId id = next_index_id_++;
  indices_[id] = std::make_unique<BTree>(&pool_, &charge_);
  return id;
}

BTree& StorageManager::index(IndexId id) {
  auto it = indices_.find(id);
  GAMMA_CHECK_MSG(it != indices_.end(), "unknown index id");
  return *it->second;
}

const BTree& StorageManager::index(IndexId id) const {
  auto it = indices_.find(id);
  GAMMA_CHECK_MSG(it != indices_.end(), "unknown index id");
  return *it->second;
}

void StorageManager::DropIndex(IndexId id) {
  GAMMA_CHECK_MSG(indices_.erase(id) == 1, "unknown index id");
}

}  // namespace gammadb::storage
