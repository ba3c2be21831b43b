#include "exec/sort.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <vector>

#include "common/macros.h"
#include "exec/tuple_arena.h"

namespace gammadb::exec {

namespace {

/// Charges n*log2(n) comparisons for an in-memory sort of n tuples.
void ChargeSortCpu(const storage::ChargeContext& charge, uint64_t n) {
  if (charge.tracker == nullptr || n < 2) return;
  const double compares = static_cast<double>(n) * std::log2(static_cast<double>(n));
  charge.Cpu(compares * charge.tracker->hw().cost.instr_per_sort_compare);
}

/// One tuple of a run being formed: its sort key and its arena index.
struct SortKey {
  int32_t key;
  uint32_t index;
};

}  // namespace

storage::FileId ExternalSort(storage::StorageManager& sm,
                             storage::FileId input,
                             const catalog::Schema& schema, int attr,
                             uint64_t memory_bytes, Status* error) {
  GAMMA_CHECK(attr >= 0 &&
              static_cast<size_t>(attr) < schema.num_attrs());
  const storage::ChargeContext& charge = sm.charge();
  const storage::HeapFile& in = sm.file(input);
  const uint64_t tuples_per_run =
      std::max<uint64_t>(memory_bytes / schema.tuple_size(), 1);
  auto key_of = [&](std::span<const uint8_t> tuple) {
    return catalog::TupleView(&schema, tuple)
        .GetInt(static_cast<size_t>(attr));
  };

  std::vector<storage::FileId> runs;
  // A storage error abandons the sort: the runs are dropped and an empty
  // file is returned, so the caller sees the tuples as lost.
  auto fail = [&](Status status) {
    for (storage::FileId run_id : runs) sm.DropFile(run_id);
    if (error != nullptr) *error = std::move(status);
    return sm.CreateFile();
  };

  // Pass 0: run formation. Each run is read into memory (charged by the
  // scan), sorted, and written to its own temporary file (charged by the
  // appends as pages fill). Only the {key, index} pairs are sorted, with
  // the same key-only comparator std::sort would apply to whole tuples, so
  // the permutation (and every run) is the same as sorting the tuples.
  TupleArena tuples;
  std::vector<SortKey> order;
  order.reserve(std::min<uint64_t>(tuples_per_run, in.num_tuples()));

  auto flush_run = [&]() -> Status {
    if (order.empty()) return Status::OK();
    ChargeSortCpu(charge, order.size());
    std::sort(order.begin(), order.end(),
              [](const SortKey& a, const SortKey& b) { return a.key < b.key; });
    const storage::FileId run_id = sm.CreateFile();
    runs.push_back(run_id);
    storage::HeapFile& run = sm.file(run_id);
    for (const SortKey& item : order) {
      GAMMA_RETURN_NOT_OK(run.Append(tuples.Get(item.index)).status());
    }
    order.clear();
    tuples.Clear();
    return Status::OK();
  };

  Status run_status;
  Status status = in.Scan([&](storage::Rid, std::span<const uint8_t> tuple) {
    order.push_back(SortKey{key_of(tuple), tuples.Append(tuple)});
    if (charge.tracker != nullptr) {
      charge.Cpu(charge.tracker->hw().cost.instr_per_tuple_scan);
    }
    if (order.size() >= tuples_per_run) run_status = flush_run();
    return run_status.ok();
  });
  if (status.ok()) status = run_status;
  if (status.ok()) status = flush_run();
  if (!status.ok()) return fail(std::move(status));

  if (runs.empty()) {
    return sm.CreateFile();  // empty input -> empty sorted file
  }
  if (runs.size() == 1) {
    return runs.front();
  }

  // Merge pass: k-way merge of all runs into the output file. Reading every
  // run sequentially and appending the output charges the second pass of
  // I/O; the heap costs log2(k) comparisons per tuple. All runs are read
  // into the arena (emptied by the last flush); cursor i walks run i's
  // index range.
  struct Cursor {
    uint32_t next;
    uint32_t end;
  };
  std::vector<Cursor> cursors;
  cursors.reserve(runs.size());
  std::vector<int32_t> keys;
  keys.reserve(in.num_tuples());
  for (storage::FileId run_id : runs) {
    const uint32_t begin = tuples.size();
    status = sm.file(run_id).Scan(
        [&](storage::Rid, std::span<const uint8_t> tuple) {
          keys.push_back(key_of(tuple));
          tuples.Append(tuple);
          return true;
        });
    if (!status.ok()) return fail(std::move(status));
    cursors.push_back(Cursor{begin, tuples.size()});
  }

  using HeapItem = std::pair<int32_t, size_t>;  // (key, cursor index)
  auto greater = [](const HeapItem& a, const HeapItem& b) {
    return a.first > b.first;
  };
  std::priority_queue<HeapItem, std::vector<HeapItem>, decltype(greater)>
      heap(greater);
  for (size_t i = 0; i < cursors.size(); ++i) {
    if (cursors[i].next < cursors[i].end) {
      heap.emplace(keys[cursors[i].next], i);
    }
  }

  const storage::FileId out_id = sm.CreateFile();
  storage::HeapFile& out = sm.file(out_id);
  const double merge_compares_per_tuple =
      std::log2(static_cast<double>(runs.size()) + 1);
  while (!heap.empty()) {
    const size_t idx = heap.top().second;
    heap.pop();
    Cursor& cursor = cursors[idx];
    status = out.Append(tuples.Get(cursor.next)).status();
    if (!status.ok()) {
      sm.DropFile(out_id);
      return fail(std::move(status));
    }
    if (charge.tracker != nullptr) {
      charge.Cpu(merge_compares_per_tuple *
                 charge.tracker->hw().cost.instr_per_sort_compare);
    }
    cursor.next += 1;
    if (cursor.next < cursor.end) {
      heap.emplace(keys[cursor.next], idx);
    }
  }

  for (storage::FileId run_id : runs) sm.DropFile(run_id);
  return out_id;
}

}  // namespace gammadb::exec
