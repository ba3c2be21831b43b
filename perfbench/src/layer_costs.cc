#include "layer_costs.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "exec/exchange.h"
#include "exec/hash_table.h"
#include "exec/predicate.h"
#include "exec/sort.h"
#include "exec/split_table.h"
#include "gamma/wal.h"
#include "obs/journal.h"
#include "obs/metrics_registry.h"
#include "sim/host_pool.h"
#include "spans.h"
#include "storage/btree.h"
#include "storage/buffer_pool.h"
#include "storage/disk.h"
#include "storage/heap_file.h"
#include "storage/storage_manager.h"
#include "txn/lock_manager.h"
#include "wisconsin/wisconsin.h"

namespace gammadb::perfbench {
namespace {

namespace wis = gammadb::wisconsin;
using Tuples = std::vector<std::vector<uint8_t>>;

constexpr uint32_t kPageSize = 4096;
constexpr int kReps = 5;

/// Median over kReps of `trial`, which returns one measurement.
double Median(const std::function<double()>& trial) {
  std::vector<double> values;
  for (int i = 0; i < kReps; ++i) values.push_back(trial());
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

/// Runs `trial` kReps times; each trial returns one value per name in
/// `names`, and each metric reports the median of its values.
void Trials(LayerCosts& out, const std::vector<const char*>& names,
            const std::function<std::vector<double>()>& trial) {
  std::vector<std::vector<double>> values(names.size());
  for (int rep = 0; rep < kReps; ++rep) {
    const std::vector<double> trial_values = trial();
    for (size_t i = 0; i < names.size(); ++i) {
      values[i].push_back(trial_values[i]);
    }
  }
  for (size_t i = 0; i < names.size(); ++i) {
    std::sort(values[i].begin(), values[i].end());
    out[names[i]] = values[i][values[i].size() / 2];
  }
}

double NsPer(int64_t start, int64_t end, uint64_t ops) {
  return static_cast<double>(end - start) / static_cast<double>(ops);
}

/// Keeps a value observable so the measured loop is not folded away.
volatile uint64_t g_sink = 0;

// --- storage ---------------------------------------------------------------

void MeasureDisk(LayerCosts& out) {
  std::vector<uint8_t> page(kPageSize);
  for (size_t i = 0; i < page.size(); ++i) {
    page[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  out["storage.checksum_ns_per_page"] = Median([&] {
    constexpr int kOps = 4000;
    uint64_t acc = 0;
    const int64_t start = NowNs();
    for (int i = 0; i < kOps; ++i) {
      page[0] = static_cast<uint8_t>(i);
      acc += storage::SimulatedDisk::ComputeChecksum(page.data(), kPageSize);
    }
    const int64_t end = NowNs();
    g_sink = g_sink + acc;
    return NsPer(start, end, kOps);
  });

  constexpr uint32_t kPages = 2048;  // 8 MB per trial
  Trials(out,
         {"storage.disk.allocate_ns", "storage.disk.write_ns",
          "storage.disk.read_ns"},
         [&]() -> std::vector<double> {
           storage::SimulatedDisk disk(kPageSize);
           int64_t start = NowNs();
           for (uint32_t i = 0; i < kPages; ++i) {
             if (!disk.Allocate().ok()) return {0, 0, 0};
           }
           const double allocate = NsPer(start, NowNs(), kPages);
           start = NowNs();
           for (uint32_t i = 0; i < kPages; ++i) {
             page[0] = static_cast<uint8_t>(i);
             if (!disk.Write(i, page.data()).ok()) return {0, 0, 0};
           }
           const double write = NsPer(start, NowNs(), kPages);
           std::vector<uint8_t> buf(kPageSize);
           start = NowNs();
           for (uint32_t i = 0; i < kPages; ++i) {
             if (!disk.Read(i, buf.data()).ok()) return {0, 0, 0};
           }
           return {allocate, write, NsPer(start, NowNs(), kPages)};
         });
}

void MeasureBufferPool(LayerCosts& out) {
  constexpr uint32_t kPages = 1024;
  storage::SimulatedDisk disk(kPageSize);
  for (uint32_t i = 0; i < kPages; ++i) {
    if (!disk.Allocate().ok()) return;
  }
  storage::ChargeContext charge;  // uncharged, as in loading
  // The workloads' 64 KB pool: 16 frames, so a sweep over 1024 pages misses
  // every time.
  storage::BufferPool pool(&disk, &charge, 64 * 1024);
  out["storage.buffer_pool.pin_miss_ns"] = Median([&] {
    const int64_t start = NowNs();
    for (uint32_t i = 0; i < kPages; ++i) {
      auto frame = pool.Pin(i, storage::AccessIntent::kSequential);
      if (!frame.ok()) return 0.0;
      g_sink = g_sink + (*frame)[0];
      pool.Unpin(i);
    }
    return NsPer(start, NowNs(), kPages);
  });
  out["storage.buffer_pool.pin_hit_ns"] = Median([&] {
    constexpr int kOps = 200000;
    const int64_t start = NowNs();
    for (int i = 0; i < kOps; ++i) {
      const uint32_t page_no = static_cast<uint32_t>(i % 8);
      auto frame = pool.Pin(page_no, storage::AccessIntent::kRandom);
      if (!frame.ok()) return 0.0;
      pool.Unpin(page_no);
    }
    return NsPer(start, NowNs(), kOps);
  });
}

void MeasureHeapFile(LayerCosts& out, const Tuples& tuples) {
  Trials(out,
         {"storage.heap_file.append_ns", "storage.heap_file.scan_ns_per_tuple"},
         [&]() -> std::vector<double> {
           storage::StorageManager sm(kPageSize, 64 * 1024);
           storage::HeapFile& file = sm.file(sm.CreateFile());
           int64_t start = NowNs();
           for (const auto& t : tuples) {
             if (!file.Append(t).ok()) return {0, 0};
           }
           if (!sm.pool().FlushAll().ok()) return {0, 0};
           const double append = NsPer(start, NowNs(), tuples.size());
           uint64_t seen = 0;
           start = NowNs();
           const Status st =
               file.Scan([&](storage::Rid, std::span<const uint8_t> r) {
                 seen += r[0];
                 return true;
               });
           const double scan = NsPer(start, NowNs(), tuples.size());
           g_sink = g_sink + seen;
           if (!st.ok()) return {0, 0};
           return {append, scan};
         });
}

void MeasureBTree(LayerCosts& out) {
  // Mirrors bench/micro_operators' BM_BTreeInsert: 10k random keys into a
  // fresh tree over a 1 MB pool.
  out["storage.btree.insert_per_s"] = Median([&] {
    constexpr int kInserts = 10000;
    storage::StorageManager sm(kPageSize, 1 << 20);
    storage::BTree& tree = sm.index(sm.CreateIndex());
    uint64_t state = 1;
    const int64_t start = NowNs();
    for (int i = 0; i < kInserts; ++i) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      const auto key = static_cast<int32_t>((state >> 33) & ((1u << 20) - 1));
      if (!tree.Insert(key, storage::Rid{static_cast<uint32_t>(i), 0}).ok()) {
        return 0.0;
      }
    }
    return 1e9 * kInserts / static_cast<double>(NowNs() - start);
  });

  storage::StorageManager sm(kPageSize, 4 << 20);
  storage::BTree& tree = sm.index(sm.CreateIndex());
  std::vector<storage::BTree::Entry> entries;
  for (int32_t key = 0; key < 100000; ++key) {
    entries.push_back({key, storage::Rid{static_cast<uint32_t>(key / 17),
                                         static_cast<uint16_t>(key % 17)}});
  }
  if (!tree.BulkLoad(entries).ok()) return;
  out["storage.btree.range_ns_per_rid"] = Median([&] {
    constexpr int kLookups = 200;
    uint64_t rids = 0;
    const int64_t start = NowNs();
    for (int i = 0; i < kLookups; ++i) {
      const int32_t lo = (i * 7919) % 99000;
      auto found = tree.RangeLookup(lo, lo + 999);
      if (!found.ok()) return 0.0;
      rids += found->size();
    }
    return NsPer(start, NowNs(), rids);
  });
}

// --- exec --------------------------------------------------------------------

void MeasureExec(LayerCosts& out, const Tuples& tuples) {
  const catalog::Schema& schema = wis::WisconsinSchema();
  const exec::Predicate pred =
      exec::Predicate::Range(wis::kUnique1, 0, static_cast<int32_t>(
                                                   tuples.size() / 10));
  out["exec.predicate.eval_ns"] = Median([&] {
    uint64_t matches = 0;
    const int64_t start = NowNs();
    for (int rep = 0; rep < 10; ++rep) {
      for (const auto& t : tuples) matches += pred.Eval(t, schema) ? 1 : 0;
    }
    const int64_t end = NowNs();
    g_sink = g_sink + matches;
    return NsPer(start, end, 10 * tuples.size());
  });

  // Mirrors BM_JoinHashTableBuildProbe: build and probe on unique2.
  Trials(out,
         {"exec.hash_table.build_probe_per_s", "exec.hash_table.insert_ns",
          "exec.hash_table.probe_ns"},
         [&]() -> std::vector<double> {
           exec::JoinHashTable table(1ull << 30);
           uint64_t matches = 0;
           const int64_t start = NowNs();
           for (const auto& t : tuples) {
             table.Insert(
                 catalog::TupleView(&schema, t).GetInt(wis::kUnique2), t);
           }
           const int64_t mid = NowNs();
           for (const auto& t : tuples) {
             table.Probe(catalog::TupleView(&schema, t).GetInt(wis::kUnique2),
                         [&](std::span<const uint8_t>) { ++matches; });
           }
           const int64_t end = NowNs();
           g_sink = g_sink + matches;
           return {1e9 * 2.0 * static_cast<double>(tuples.size()) /
                       static_cast<double>(end - start),
                   NsPer(start, mid, tuples.size()),
                   NsPer(mid, end, tuples.size())};
         });

  // Mirrors BM_SplitTableRouting: hash on unique2 over 8 destinations.
  uint64_t delivered = 0;
  std::vector<exec::SplitTable::Destination> dests;
  for (int i = 0; i < 8; ++i) {
    dests.push_back(exec::SplitTable::Destination{
        i, [&delivered](std::span<const uint8_t>) { ++delivered; }});
  }
  exec::SplitTable split(0, &schema,
                         exec::RouteSpec::HashAttr(wis::kUnique2, 42),
                         std::move(dests), nullptr);
  const double send_ns = Median([&] {
    const int64_t start = NowNs();
    for (int rep = 0; rep < 10; ++rep) {
      for (const auto& t : tuples) split.Send(t);
    }
    return NsPer(start, NowNs(), 10 * tuples.size());
  });
  g_sink = g_sink + delivered;
  out["exec.split_table.send_ns"] = send_ns;
  out["exec.split_table.routings_per_s"] = send_ns > 0 ? 1e9 / send_ns : 0;

  out["exec.exchange.append_drain_ns"] = Median([&] {
    exec::Exchange exchange(8, 8, schema.tuple_size());
    uint64_t drained = 0;
    const int64_t start = NowNs();
    for (size_t i = 0; i < tuples.size(); ++i) {
      exchange.Append(i % 8, (i / 8) % 8, tuples[i]);
    }
    for (size_t consumer = 0; consumer < 8; ++consumer) {
      exchange.Drain(consumer, [&](std::span<const uint8_t> t) {
        drained += t[0];
      });
    }
    const int64_t end = NowNs();
    g_sink = g_sink + drained;
    return NsPer(start, end, tuples.size());
  });

  // Teradata's per-AMP sort: 1 MB of sort memory, several runs.
  out["exec.sort.ns_per_tuple"] = Median([&] {
    storage::StorageManager sm(kPageSize, 64 * 1024);
    const storage::FileId input = sm.CreateFile();
    for (const auto& t : tuples) {
      if (!sm.file(input).Append(t).ok()) return 0.0;
    }
    if (!sm.pool().FlushAll().ok()) return 0.0;
    const int64_t start = NowNs();
    const storage::FileId sorted =
        exec::ExternalSort(sm, input, schema, wis::kUnique2, 1 << 20);
    const int64_t end = NowNs();
    g_sink = g_sink + sm.file(sorted).num_tuples();
    return NsPer(start, end, tuples.size());
  });
}

// --- gamma.wal, txn, sim, obs ----------------------------------------------

void MeasureControlPaths(LayerCosts& out, const Tuples& tuples) {
  out["gamma.wal.stage_seal_ns"] = Median([&] {
    gamma::WalStore wal(19);
    const uint32_t rel = wal.InternRelation("A");
    const int64_t start = NowNs();
    for (size_t i = 0; i < tuples.size(); ++i) {
      gamma::WalRecord record;
      record.txn = 1 + i / 16;
      record.kind = gamma::WalKind::kInsert;
      record.rel = rel;
      record.fragment = static_cast<int32_t>(i % 8);
      record.after = tuples[i];
      wal.Stage(static_cast<int>(i % 8), std::move(record));
      if (i % 16 == 15) wal.Seal();
    }
    wal.Seal();
    return NsPer(start, NowNs(), tuples.size());
  });

  out["txn.lock_acquire_release_ns"] = Median([&] {
    txn::LockManager locks;
    std::vector<txn::LockManager::Grant> grants;
    constexpr int kTxns = 2000;
    constexpr int kLocksPerTxn = 8;
    const int64_t start = NowNs();
    for (int t = 1; t <= kTxns; ++t) {
      const auto id = static_cast<uint64_t>(t);
      locks.Acquire(id, txn::LockId::Relation(1), txn::LockMode::kIX);
      for (int p = 0; p < kLocksPerTxn - 1; ++p) {
        locks.Acquire(id,
                      txn::LockId::Page(1, static_cast<uint32_t>(p % 8),
                                        static_cast<uint32_t>(t * 8 + p)),
                      txn::LockMode::kX);
      }
      locks.Release(id, &grants);
    }
    return NsPer(start, NowNs(), kTxns * kLocksPerTxn);
  });

  out["sim.host_pool.barrier_us"] = Median([&] {
    const std::vector<std::function<void()>> tasks(16, [] {});
    constexpr int kBarriers = 2000;
    const int64_t start = NowNs();
    for (int i = 0; i < kBarriers; ++i) sim::HostPool::Instance().RunAll(tasks);
    return NsPer(start, NowNs(), kBarriers) * 1e-3;
  });

  out["obs.journal.emit_ns"] = Median([&] {
    obs::Journal journal(19, 256);
    constexpr int kEmits = 100000;
    const int64_t start = NowNs();
    for (int i = 0; i < kEmits; ++i) {
      journal.Emit(i % 19, obs::JournalEventKind::kPhase, i, 0, "scan");
    }
    return NsPer(start, NowNs(), kEmits);
  });

  obs::Histogram& histogram = obs::MetricsRegistry::Instance().histogram(
      "perfbench.observe_probe", obs::LogBuckets(1e-4, 1e4, 4));
  out["obs.registry.observe_ns"] = Median([&] {
    constexpr int kObservations = 200000;
    const int64_t start = NowNs();
    for (int i = 0; i < kObservations; ++i) {
      histogram.Observe(1e-3 * static_cast<double>(i % 1000 + 1));
    }
    return NsPer(start, NowNs(), kObservations);
  });
}

}  // namespace

LayerCosts MeasureLayerCosts() {
  // The workloads' tuple width (208-byte Wisconsin) and page size (4 KB).
  const Tuples tuples = wis::GenerateWisconsin(10000, 0x5EED);
  LayerCosts out;
  MeasureDisk(out);
  MeasureBufferPool(out);
  MeasureHeapFile(out, tuples);
  MeasureBTree(out);
  MeasureExec(out, tuples);
  MeasureControlPaths(out, tuples);
  return out;
}

}  // namespace gammadb::perfbench
