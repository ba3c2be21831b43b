#ifndef GAMMA_STORAGE_STORAGE_MANAGER_H_
#define GAMMA_STORAGE_STORAGE_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>

#include "common/macros.h"
#include "storage/btree.h"
#include "storage/buffer_pool.h"
#include "storage/disk.h"
#include "storage/heap_file.h"

namespace gammadb::storage {

using FileId = uint32_t;
using IndexId = uint32_t;

/// \brief All storage state of one processor-with-disk: the NOSE/WiSS role.
///
/// Owns the node's simulated disk, buffer pool, heap files and B-tree
/// indices, plus the ChargeContext through which every component
/// reports simulated hardware usage. A machine binds the context to the
/// current query's CostTracker before running operators on the node.
class StorageManager {
 public:
  /// `faults`/`fault_node` optionally attach the machine's fault injector so
  /// this node's disk consults its schedule (null = fault-free node).
  StorageManager(uint32_t page_size, uint64_t buffer_bytes,
                 sim::FaultInjector* faults = nullptr, int fault_node = -1);

  StorageManager(const StorageManager&) = delete;
  StorageManager& operator=(const StorageManager&) = delete;

  uint32_t page_size() const { return disk_.page_size(); }

  /// Binds (or clears, with nullptr) the accounting sink for this node.
  void BindTracker(sim::CostTracker* tracker, int node);
  const ChargeContext& charge() const { return charge_; }

  /// Single-writer-per-node invariant of the host-parallel executor: a task
  /// claims the node's storage for the duration of one parallel step.
  /// Two live claims mean two tasks were scheduled onto one node — a
  /// scheduling bug, aborted loudly rather than raced through.
  void BeginExclusive() {
    GAMMA_CHECK_MSG(!exclusive_.exchange(true, std::memory_order_acquire),
                    "two host tasks claimed one node's storage");
  }
  void EndExclusive() { exclusive_.store(false, std::memory_order_release); }

  BufferPool& pool() { return pool_; }
  SimulatedDisk& disk() { return disk_; }

  FileId CreateFile();
  HeapFile& file(FileId id);
  const HeapFile& file(FileId id) const;
  bool HasFile(FileId id) const { return files_.contains(id); }
  /// Drops the file (temporary-file lifecycle).
  void DropFile(FileId id);

  IndexId CreateIndex();
  BTree& index(IndexId id);
  const BTree& index(IndexId id) const;
  void DropIndex(IndexId id);

 private:
  ChargeContext charge_;
  SimulatedDisk disk_;
  BufferPool pool_;
  std::unordered_map<FileId, std::unique_ptr<HeapFile>> files_;
  std::unordered_map<IndexId, std::unique_ptr<BTree>> indices_;
  FileId next_file_id_ = 1;
  IndexId next_index_id_ = 1;
  std::atomic<bool> exclusive_{false};
};

}  // namespace gammadb::storage

#endif  // GAMMA_STORAGE_STORAGE_MANAGER_H_
