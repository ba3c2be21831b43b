#include "storage/btree.h"

#include <algorithm>
#include <cstring>

#include "common/macros.h"

namespace gammadb::storage {

BTree::BTree(BufferPool* pool, const ChargeContext* charge)
    : pool_(pool), charge_(charge) {
  GAMMA_CHECK(pool != nullptr && charge != nullptr);
  const uint32_t page_size = pool_->page_size();
  GAMMA_CHECK(page_size > kHeaderSize + sizeof(LeafEntry) * 2 + 8);
  leaf_capacity_ = (page_size - kHeaderSize) / sizeof(LeafEntry);
  // Internal layout: header, leftmost child pointer (4 bytes), entries.
  internal_capacity_ =
      (page_size - kHeaderSize - sizeof(uint32_t)) / sizeof(InternalEntry);
}

bool BTree::EntryLess(const LeafEntry& a, int32_t key, Rid rid) {
  if (a.key != key) return a.key < key;
  const Rid arid{a.page_index, a.slot};
  return arid < rid;
}

namespace {

// Leftmost child pointer of an internal node lives right after the header.
uint32_t* LeftmostChild(uint8_t* frame) {
  return reinterpret_cast<uint32_t*>(frame + sizeof(uint32_t) * 2);
}
const uint32_t* LeftmostChild(const uint8_t* frame) {
  return reinterpret_cast<const uint32_t*>(frame + sizeof(uint32_t) * 2);
}

}  // namespace

Result<uint32_t> BTree::NewNode(bool is_leaf, uint8_t** frame_out) {
  uint8_t* frame = nullptr;
  uint32_t page_no = 0;
  GAMMA_ASSIGN_OR_RETURN(page_no, pool_->NewPage(&frame));
  auto* header = Header(frame);
  header->count = 0;
  header->is_leaf = is_leaf ? 1 : 0;
  header->pad = 0;
  header->next_leaf = kNoPage;
  *frame_out = frame;
  ++num_pages_;
  return page_no;
}

// Internal entries area starts after header + leftmost child pointer.
static constexpr uint32_t kInternalEntriesOffset = 8 + 4;

Result<uint32_t> BTree::FindLeafForScan(int32_t key) const {
  GAMMA_CHECK(root_ != kNoPage);
  uint32_t page_no = root_;
  for (;;) {
    const uint8_t* frame = nullptr;
    GAMMA_ASSIGN_OR_RETURN(frame,
                           pool_->PinRead(page_no, AccessIntent::kRandom));
    charge_->BtreeNodeVisit();
    const auto* header = Header(frame);
    if (header->is_leaf) {
      pool_->Unpin(page_no);
      return page_no;
    }
    const auto* entries =
        reinterpret_cast<const InternalEntry*>(frame + kInternalEntriesOffset);
    // Strict-less routing: the largest separator strictly below `key`, so a
    // run of duplicates split across children is entered at its start.
    uint32_t lo = 0, hi = header->count;
    while (lo < hi) {
      const uint32_t mid = (lo + hi) / 2;
      if (entries[mid].key < key) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    const uint32_t child =
        (lo == 0) ? *LeftmostChild(frame) : entries[lo - 1].child;
    pool_->Unpin(page_no);
    page_no = child;
  }
}

Result<uint32_t> BTree::FindLeafForInsert(int32_t key, Rid /*rid*/,
                                          std::vector<uint32_t>* path) const {
  GAMMA_CHECK(root_ != kNoPage);
  uint32_t page_no = root_;
  for (;;) {
    const uint8_t* frame = nullptr;
    GAMMA_ASSIGN_OR_RETURN(frame,
                           pool_->PinRead(page_no, AccessIntent::kRandom));
    charge_->BtreeNodeVisit();
    const auto* header = Header(frame);
    if (header->is_leaf) {
      pool_->Unpin(page_no);
      return page_no;
    }
    const auto* entries =
        reinterpret_cast<const InternalEntry*>(frame + kInternalEntriesOffset);
    // Route right among equal separators (first separator > key).
    uint32_t lo = 0, hi = header->count;
    while (lo < hi) {
      const uint32_t mid = (lo + hi) / 2;
      if (entries[mid].key <= key) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    const uint32_t child =
        (lo == 0) ? *LeftmostChild(frame) : entries[lo - 1].child;
    path->push_back(page_no);
    pool_->Unpin(page_no);
    page_no = child;
  }
}

Status BTree::BulkLoad(std::span<const Entry> sorted_entries) {
  GAMMA_CHECK_MSG(root_ == kNoPage, "BulkLoad on a non-empty tree");
#ifndef NDEBUG
  for (size_t i = 1; i < sorted_entries.size(); ++i) {
    GAMMA_DCHECK(sorted_entries[i - 1].key <= sorted_entries[i].key);
  }
#endif
  if (sorted_entries.empty()) {
    uint8_t* frame = nullptr;
    GAMMA_ASSIGN_OR_RETURN(root_, NewNode(/*is_leaf=*/true, &frame));
    pool_->Unpin(root_);
    height_ = 1;
    return Status::OK();
  }

  // Level 0: pack leaves full, remembering each leaf's minimum key.
  std::vector<InternalEntry> level;
  uint32_t prev_leaf = kNoPage;
  size_t i = 0;
  while (i < sorted_entries.size()) {
    uint8_t* frame = nullptr;
    uint32_t page_no = 0;
    GAMMA_ASSIGN_OR_RETURN(page_no, NewNode(/*is_leaf=*/true, &frame));
    auto* header = Header(frame);
    auto* leaves = Leaves(frame);
    const size_t take =
        std::min<size_t>(leaf_capacity_, sorted_entries.size() - i);
    for (size_t j = 0; j < take; ++j) {
      const Entry& entry = sorted_entries[i + j];
      leaves[j] = LeafEntry{entry.key, entry.rid.page_index, entry.rid.slot, 0};
    }
    header->count = static_cast<uint16_t>(take);
    pool_->Unpin(page_no);
    if (prev_leaf != kNoPage) {
      uint8_t* prev = nullptr;
      GAMMA_ASSIGN_OR_RETURN(prev,
                             pool_->Pin(prev_leaf, AccessIntent::kSequential));
      Header(prev)->next_leaf = page_no;
      pool_->MarkDirty(prev_leaf, AccessIntent::kSequential);
      pool_->Unpin(prev_leaf);
    }
    prev_leaf = page_no;
    level.push_back(InternalEntry{sorted_entries[i].key, page_no});
    i += take;
  }
  height_ = 1;

  // Build internal levels until a single node remains.
  while (level.size() > 1) {
    std::vector<InternalEntry> next_level;
    size_t j = 0;
    while (j < level.size()) {
      uint8_t* frame = nullptr;
      uint32_t page_no = 0;
      GAMMA_ASSIGN_OR_RETURN(page_no, NewNode(/*is_leaf=*/false, &frame));
      auto* header = Header(frame);
      const size_t take =
          std::min<size_t>(internal_capacity_ + 1, level.size() - j);
      *LeftmostChild(frame) = level[j].child;
      auto* entries =
          reinterpret_cast<InternalEntry*>(frame + kInternalEntriesOffset);
      for (size_t k = 1; k < take; ++k) entries[k - 1] = level[j + k];
      header->count = static_cast<uint16_t>(take - 1);
      pool_->Unpin(page_no);
      next_level.push_back(InternalEntry{level[j].key, page_no});
      j += take;
    }
    level = std::move(next_level);
    ++height_;
  }
  root_ = level.front().child;
  num_entries_ = sorted_entries.size();
  return Status::OK();
}

Status BTree::Insert(int32_t key, Rid rid) {
  if (root_ == kNoPage) {
    uint8_t* frame = nullptr;
    GAMMA_ASSIGN_OR_RETURN(root_, NewNode(/*is_leaf=*/true, &frame));
    pool_->Unpin(root_);
    height_ = 1;
  }
  std::vector<uint32_t> path;
  uint32_t leaf_no = 0;
  GAMMA_ASSIGN_OR_RETURN(leaf_no, FindLeafForInsert(key, rid, &path));

  uint8_t* frame = nullptr;
  GAMMA_ASSIGN_OR_RETURN(frame, pool_->Pin(leaf_no, AccessIntent::kRandom));
  auto* header = Header(frame);
  auto* leaves = Leaves(frame);
  const uint16_t count = header->count;

  if (count < leaf_capacity_) {
    uint16_t pos = 0;
    while (pos < count && EntryLess(leaves[pos], key, rid)) ++pos;
    std::memmove(&leaves[pos + 1], &leaves[pos],
                 sizeof(LeafEntry) * (count - pos));
    leaves[pos] = LeafEntry{key, rid.page_index, rid.slot, 0};
    header->count = count + 1;
    pool_->MarkDirty(leaf_no, AccessIntent::kRandom);
    pool_->Unpin(leaf_no);
    ++num_entries_;
    return Status::OK();
  }

  // Leaf split: gather count+1 entries, divide in half.
  std::vector<LeafEntry> all(leaves, leaves + count);
  LeafEntry incoming{key, rid.page_index, rid.slot, 0};
  auto it = std::lower_bound(
      all.begin(), all.end(), incoming, [](const LeafEntry& a,
                                           const LeafEntry& b) {
        return EntryLess(a, b.key, Rid{b.page_index, b.slot});
      });
  all.insert(it, incoming);
  const size_t mid = all.size() / 2;

  uint8_t* right_frame = nullptr;
  const Result<uint32_t> right_or = NewNode(/*is_leaf=*/true, &right_frame);
  if (!right_or.ok()) {
    pool_->Unpin(leaf_no);
    return right_or.status();
  }
  const uint32_t right_no = *right_or;
  auto* right_header = Header(right_frame);
  auto* right_leaves = Leaves(right_frame);
  std::copy(all.begin() + static_cast<long>(mid), all.end(), right_leaves);
  right_header->count = static_cast<uint16_t>(all.size() - mid);
  right_header->next_leaf = header->next_leaf;
  pool_->MarkDirty(right_no, AccessIntent::kSequential);

  std::copy(all.begin(), all.begin() + static_cast<long>(mid), leaves);
  header->count = static_cast<uint16_t>(mid);
  header->next_leaf = right_no;
  pool_->MarkDirty(leaf_no, AccessIntent::kRandom);

  const int32_t sep_key = right_leaves[0].key;
  pool_->Unpin(right_no);
  pool_->Unpin(leaf_no);
  ++num_entries_;
  return InsertIntoParent(&path, sep_key, right_no);
}

Status BTree::InsertIntoParent(std::vector<uint32_t>* path, int32_t sep_key,
                               uint32_t new_child) {
  if (path->empty()) {
    // The split node was the root: grow the tree by one level.
    const uint32_t old_root = root_;
    uint8_t* frame = nullptr;
    uint32_t new_root = 0;
    GAMMA_ASSIGN_OR_RETURN(new_root, NewNode(/*is_leaf=*/false, &frame));
    auto* header = Header(frame);
    *LeftmostChild(frame) = old_root;
    auto* entries =
        reinterpret_cast<InternalEntry*>(frame + kInternalEntriesOffset);
    entries[0] = InternalEntry{sep_key, new_child};
    header->count = 1;
    pool_->MarkDirty(new_root, AccessIntent::kSequential);
    pool_->Unpin(new_root);
    root_ = new_root;
    ++height_;
    return Status::OK();
  }

  const uint32_t parent_no = path->back();
  path->pop_back();
  // The new child always sits immediately right of its split sibling, and
  // the sibling is where the descent went; locating the insertion point by
  // separator key handles duplicate separators correctly because the
  // descent routed right among equals.
  uint8_t* frame = nullptr;
  GAMMA_ASSIGN_OR_RETURN(frame, pool_->Pin(parent_no, AccessIntent::kRandom));
  auto* header = Header(frame);
  auto* entries =
      reinterpret_cast<InternalEntry*>(frame + kInternalEntriesOffset);
  const uint16_t count = header->count;

  uint16_t pos = 0;
  while (pos < count && entries[pos].key <= sep_key) ++pos;

  if (count < internal_capacity_) {
    std::memmove(&entries[pos + 1], &entries[pos],
                 sizeof(InternalEntry) * (count - pos));
    entries[pos] = InternalEntry{sep_key, new_child};
    header->count = count + 1;
    pool_->MarkDirty(parent_no, AccessIntent::kRandom);
    pool_->Unpin(parent_no);
    return Status::OK();
  }

  // Internal split: middle separator moves up.
  std::vector<InternalEntry> all(entries, entries + count);
  all.insert(all.begin() + pos, InternalEntry{sep_key, new_child});
  const size_t mid = all.size() / 2;
  const InternalEntry promoted = all[mid];

  uint8_t* right_frame = nullptr;
  const Result<uint32_t> right_or = NewNode(/*is_leaf=*/false, &right_frame);
  if (!right_or.ok()) {
    pool_->Unpin(parent_no);
    return right_or.status();
  }
  const uint32_t right_no = *right_or;
  auto* right_header = Header(right_frame);
  *LeftmostChild(right_frame) = promoted.child;
  auto* right_entries = reinterpret_cast<InternalEntry*>(right_frame +
                                                         kInternalEntriesOffset);
  std::copy(all.begin() + static_cast<long>(mid) + 1, all.end(),
            right_entries);
  right_header->count = static_cast<uint16_t>(all.size() - mid - 1);
  pool_->MarkDirty(right_no, AccessIntent::kSequential);
  pool_->Unpin(right_no);

  std::copy(all.begin(), all.begin() + static_cast<long>(mid), entries);
  header->count = static_cast<uint16_t>(mid);
  pool_->MarkDirty(parent_no, AccessIntent::kRandom);
  pool_->Unpin(parent_no);

  return InsertIntoParent(path, promoted.key, right_no);
}

Result<bool> BTree::Delete(int32_t key, Rid rid) {
  if (root_ == kNoPage) return false;
  uint32_t page_no = 0;
  GAMMA_ASSIGN_OR_RETURN(page_no, FindLeafForScan(key));
  while (page_no != kNoPage) {
    uint8_t* frame = nullptr;
    GAMMA_ASSIGN_OR_RETURN(frame, pool_->Pin(page_no, AccessIntent::kRandom));
    auto* header = Header(frame);
    auto* leaves = Leaves(frame);
    const uint16_t count = header->count;
    bool past_key = false;
    for (uint16_t i = 0; i < count; ++i) {
      if (leaves[i].key > key) {
        past_key = true;
        break;
      }
      if (leaves[i].key == key && leaves[i].page_index == rid.page_index &&
          leaves[i].slot == rid.slot) {
        std::memmove(&leaves[i], &leaves[i + 1],
                     sizeof(LeafEntry) * (count - i - 1));
        header->count = count - 1;
        pool_->MarkDirty(page_no, AccessIntent::kRandom);
        pool_->Unpin(page_no);
        --num_entries_;
        return true;
      }
    }
    const uint32_t next = header->next_leaf;
    pool_->Unpin(page_no);
    if (past_key) return false;
    page_no = next;
  }
  return false;
}

Status BTree::ScanFrom(int32_t key, const ScanCallback& callback) const {
  if (root_ == kNoPage) return Status::OK();
  uint32_t page_no = 0;
  GAMMA_ASSIGN_OR_RETURN(page_no, FindLeafForScan(key));
  bool first_leaf = true;
  while (page_no != kNoPage) {
    const uint8_t* frame = nullptr;
    GAMMA_ASSIGN_OR_RETURN(
        frame,
        pool_->PinRead(page_no, first_leaf ? AccessIntent::kRandom
                                           : AccessIntent::kSequential));
    const auto* header = Header(frame);
    const auto* leaves = Leaves(frame);
    for (uint16_t i = 0; i < header->count; ++i) {
      if (leaves[i].key < key) continue;
      Entry entry{leaves[i].key, Rid{leaves[i].page_index, leaves[i].slot}};
      if (!callback(entry)) {
        pool_->Unpin(page_no);
        return Status::OK();
      }
    }
    const uint32_t next = header->next_leaf;
    pool_->Unpin(page_no);
    page_no = next;
    first_leaf = false;
  }
  return Status::OK();
}

Result<std::vector<Rid>> BTree::RangeLookup(int32_t lo, int32_t hi) const {
  std::vector<Rid> rids;
  GAMMA_RETURN_NOT_OK(ScanFrom(lo, [&](const Entry& entry) {
    if (entry.key > hi) return false;
    rids.push_back(entry.rid);
    return true;
  }));
  return rids;
}

}  // namespace gammadb::storage
