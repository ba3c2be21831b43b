// Micro-benchmarks (google-benchmark): host-time throughput of the real
// data-path primitives underlying the simulation — slotted pages, B-tree,
// join hash table, external sort, merge join, split routing, predicate
// evaluation, the three join sites, Teradata bulk load, load-time
// statistics, Gamma index builds, a single-site select's fixed cost, the
// page path (checksum, buffer-pool misses and the dirty spool cycle), and
// a whole machine's life (build, load, overflowing join, destroy).
// These measure
// the reproduction's own code (wall-clock), not the simulated 1988
// hardware.

#include <sys/resource.h>

#include <benchmark/benchmark.h>

#include "catalog/schema.h"
#include "common/rng.h"
#include "exec/hash_join.h"
#include "exec/hash_table.h"
#include "exec/hybrid_join.h"
#include "exec/merge_join.h"
#include "exec/predicate.h"
#include "exec/sort.h"
#include "exec/split_table.h"
#include "gamma/machine.h"
#include "opt/statistics.h"
#include "sim/host_pool.h"
#include "storage/btree.h"
#include "storage/page.h"
#include "storage/storage_manager.h"
#include "teradata/machine.h"
#include "wisconsin/wisconsin.h"

namespace gammadb {
namespace {

namespace wis = gammadb::wisconsin;

void BM_SlottedPageInsert(benchmark::State& state) {
  const size_t record_size = static_cast<size_t>(state.range(0));
  std::vector<uint8_t> buffer(4096);
  std::vector<uint8_t> record(record_size, 0xAB);
  for (auto _ : state) {
    storage::SlottedPage::Initialize(buffer.data(), 4096);
    storage::SlottedPage page(buffer.data(), 4096);
    while (page.Insert(record).has_value()) {
    }
    benchmark::DoNotOptimize(buffer.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(4000 / (record_size + 4)));
}
BENCHMARK(BM_SlottedPageInsert)->Arg(32)->Arg(208);

void BM_PageChecksum(benchmark::State& state) {
  const auto page_size = static_cast<size_t>(state.range(0));
  std::vector<uint8_t> page(page_size);
  Rng rng(6);
  for (auto& byte : page) byte = static_cast<uint8_t>(rng.Uniform(256));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        storage::SimulatedDisk::ComputeChecksum(page.data(), page.size()));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(page_size));
}
BENCHMARK(BM_PageChecksum)->Arg(4096)->Arg(32768);

void BM_BufferPoolMissSweep(benchmark::State& state) {
  // 1024 pages through a 16-frame pool: every read pin misses, so each one
  // is a fault check, a checksum of the disk's own block and an eviction.
  constexpr uint32_t kPages = 1024;
  storage::StorageManager sm(4096, 16 * 4096);
  for (uint32_t i = 0; i < kPages; ++i) {
    if (!sm.disk().Allocate().ok()) {
      state.SkipWithError("allocate failed");
      return;
    }
  }
  for (auto _ : state) {
    for (uint32_t page_no = 0; page_no < kPages; ++page_no) {
      auto frame =
          sm.pool().PinRead(page_no, storage::AccessIntent::kSequential);
      if (!frame.ok()) {
        state.SkipWithError("pin failed");
        return;
      }
      benchmark::DoNotOptimize(*frame);
      sm.pool().Unpin(page_no);
    }
  }
  state.SetItemsProcessed(state.iterations() * kPages);
}
BENCHMARK(BM_BufferPoolMissSweep);

void BM_BufferPoolDirtySweep(benchmark::State& state) {
  // The spool cycle: append 1024 records of 2 KB (two per page) through a
  // 16-frame pool, so every new page evicts a dirty one, then read the file
  // back and drop it. Each page is zeroed once, written back once and
  // re-read once.
  constexpr uint32_t kRecords = 1024;
  storage::StorageManager sm(4096, 16 * 4096);
  const std::vector<uint8_t> record(2000, 0x5A);
  for (auto _ : state) {
    const storage::FileId id = sm.CreateFile();
    storage::HeapFile& file = sm.file(id);
    for (uint32_t i = 0; i < kRecords; ++i) {
      if (!file.Append(record).ok()) {
        state.SkipWithError("append failed");
        return;
      }
    }
    uint64_t seen = 0;
    const Status scanned =
        file.VisitPages([&](uint32_t, const storage::SlottedPage& page) {
          seen += page.live_count();
          return true;
        });
    if (!scanned.ok() || seen != kRecords) {
      state.SkipWithError("scan failed");
      return;
    }
    benchmark::DoNotOptimize(seen);
    sm.pool().Discard();
    sm.DropFile(id);
  }
  state.SetItemsProcessed(state.iterations() * kRecords);
}
BENCHMARK(BM_BufferPoolDirtySweep);

void BM_BTreeInsert(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    state.PauseTiming();
    storage::StorageManager sm(4096, 1 << 20);
    storage::BTree& tree = sm.index(sm.CreateIndex());
    state.ResumeTiming();
    for (int i = 0; i < state.range(0); ++i) {
      tree.Insert(static_cast<int32_t>(rng.Uniform(1u << 20)),
                  storage::Rid{static_cast<uint32_t>(i), 0});
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BTreeInsert)->Arg(10000);

void BM_BTreeRangeLookup(benchmark::State& state) {
  storage::StorageManager sm(4096, 4 << 20);
  storage::BTree& tree = sm.index(sm.CreateIndex());
  std::vector<storage::BTree::Entry> entries;
  for (int32_t key = 0; key < 100000; ++key) {
    entries.push_back({key, storage::Rid{static_cast<uint32_t>(key / 17),
                                         static_cast<uint16_t>(key % 17)}});
  }
  tree.BulkLoad(entries);
  Rng rng(2);
  for (auto _ : state) {
    const int32_t lo = static_cast<int32_t>(rng.Uniform(99000));
    benchmark::DoNotOptimize(tree.RangeLookup(lo, lo + 999));
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_BTreeRangeLookup);

void BM_JoinHashTableBuildProbe(benchmark::State& state) {
  const auto tuples = wis::GenerateWisconsin(10000, 3);
  const auto& schema = wis::WisconsinSchema();
  for (auto _ : state) {
    exec::JoinHashTable table(1ull << 30);
    for (const auto& tuple : tuples) {
      const catalog::TupleView view(&schema, tuple);
      table.Insert(view.GetInt(wis::kUnique2), tuple);
    }
    uint64_t matches = 0;
    for (const auto& tuple : tuples) {
      const catalog::TupleView view(&schema, tuple);
      table.Probe(view.GetInt(wis::kUnique2),
                  [&](std::span<const uint8_t>) { ++matches; });
    }
    benchmark::DoNotOptimize(matches);
  }
  state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_JoinHashTableBuildProbe);

/// A heap file of 10000 Wisconsin tuples in unique2-random order.
storage::FileId LoadWisconsinFile(storage::StorageManager& sm, uint64_t seed) {
  const storage::FileId id = sm.CreateFile();
  for (const auto& tuple : wis::GenerateWisconsin(10000, seed)) {
    if (!sm.file(id).Append(tuple).ok()) return id;
  }
  return id;
}

void BM_ExternalSort(benchmark::State& state) {
  // Teradata's per-AMP sort step: 10000 Wisconsin tuples by unique2 under
  // 512 KB of sort memory (four runs and a merge pass) through a 64 KB
  // pool. Disk pages are never reused, so each iteration gets a fresh node.
  const auto& schema = wis::WisconsinSchema();
  for (auto _ : state) {
    state.PauseTiming();
    storage::StorageManager sm(4096, 64 << 10);
    const storage::FileId input = LoadWisconsinFile(sm, 6);
    if (!sm.pool().FlushAll().ok()) {
      state.SkipWithError("flush failed");
      return;
    }
    state.ResumeTiming();
    const storage::FileId sorted =
        exec::ExternalSort(sm, input, schema, wis::kUnique2, 512 << 10);
    benchmark::DoNotOptimize(sm.file(sorted).num_tuples());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_ExternalSort);

void BM_SortMergeJoin(benchmark::State& state) {
  // Merge of two sorted 10000-tuple inputs on unique2 (every tuple matches
  // once): materialize both, then emit 10000 concatenated results.
  storage::StorageManager sm(4096, 8 << 20);
  const auto& schema = wis::WisconsinSchema();
  const storage::FileId left_in = LoadWisconsinFile(sm, 7);
  const storage::FileId right_in = LoadWisconsinFile(sm, 8);
  const storage::FileId left =
      exec::ExternalSort(sm, left_in, schema, wis::kUnique2, 8 << 20);
  const storage::FileId right =
      exec::ExternalSort(sm, right_in, schema, wis::kUnique2, 8 << 20);
  uint64_t emitted = 0;
  for (auto _ : state) {
    const auto stats = exec::SortMergeJoin(
        sm.file(left), schema, wis::kUnique2, sm.file(right), schema,
        wis::kUnique2, sm.charge(),
        [&emitted](std::span<const uint8_t>) { ++emitted; });
    benchmark::DoNotOptimize(stats.output);
  }
  benchmark::DoNotOptimize(emitted);
  state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_SortMergeJoin);

enum class SiteKind { kSimple, kHybrid, kSortMerge };

void BM_JoinSite(benchmark::State& state, SiteKind kind) {
  // Host ns per build and probe tuple through one join site: 10000
  // Wisconsin build tuples, then 10000 probe tuples (each matches once on
  // unique2), pushed through a per-tuple sink as the join's exchange drain
  // delivers them, then the site's local finish. Arg 1 gives the site a
  // quarter of the build in memory, so it spills: Simple runs its overflow
  // rounds on this one site, Hybrid joins its spooled buckets and
  // sort-merge sorts more than one run. Each iteration gets a fresh node.
  const auto build = wis::GenerateWisconsin(10000, 7);
  const auto probe = wis::GenerateWisconsin(10000, 8);
  const catalog::Schema* schema = &wis::WisconsinSchema();
  const uint64_t build_bytes =
      build.size() *
      (schema->tuple_size() + exec::JoinHashTable::kPerEntryOverhead);
  const uint64_t capacity =
      state.range(0) != 0 ? build_bytes / 4 : 2 * build_bytes;
  uint64_t matches = 0;
  const exec::TupleSink emit = [&matches](std::span<const uint8_t>) {
    ++matches;
  };
  for (auto _ : state) {
    state.PauseTiming();
    auto sm = std::make_unique<storage::StorageManager>(4096, 8 << 20);
    std::unique_ptr<exec::JoinSite> site;
    switch (kind) {
      case SiteKind::kSimple: {
        auto simple = std::make_unique<exec::HashJoinSite>(
            0, sm.get(), schema, schema, wis::kUnique2, wis::kUnique2, capacity);
        simple->BeginRound(1);
        site = std::move(simple);
        break;
      }
      case SiteKind::kHybrid:
        site = std::make_unique<exec::HybridHashJoinSite>(
            0, sm.get(), schema, schema, wis::kUnique2, wis::kUnique2, capacity,
            build_bytes, /*seed=*/5);
        break;
      case SiteKind::kSortMerge:
        site = std::make_unique<exec::MergeJoinSite>(
            0, sm.get(), schema, schema, wis::kUnique2, wis::kUnique2, capacity);
        break;
    }
    const auto deliver = [&](bool is_probe) -> exec::TupleSink {
      return [s = site.get(), &emit, is_probe](std::span<const uint8_t> t) {
        is_probe ? s->AddProbeTuple(t, emit) : s->AddBuildTuple(t);
      };
    };
    const exec::TupleSink to_build = deliver(false);
    const exec::TupleSink to_probe = deliver(true);
    state.ResumeTiming();
    for (const auto& t : build) to_build(t);
    for (const auto& t : probe) to_probe(t);
    if (!site->Finish(emit).ok()) {
      state.SkipWithError("finish failed");
      return;
    }
    if (kind == SiteKind::kSimple) {
      auto& simple = static_cast<exec::HashJoinSite&>(*site);
      uint64_t prev_spooled = UINT64_MAX;
      for (uint64_t round = 2; simple.HasOverflow(); ++round) {
        const uint64_t spooled = simple.build_spool().num_tuples() +
                                 simple.probe_spool().num_tuples();
        simple.BeginRound(round, spooled >= prev_spooled);
        prev_spooled = spooled;
        const auto feed = [](const storage::HeapFile& spool,
                             const exec::TupleSink& sink) {
          return spool.Scan([&](storage::Rid, std::span<const uint8_t> t) {
            sink(t);
            return true;
          });
        };
        if (!feed(simple.prev_build_spool(), to_build).ok() ||
            !feed(simple.prev_probe_spool(), to_probe).ok()) {
          state.SkipWithError("spool scan failed");
          return;
        }
      }
    }
    if (!site->status().ok()) {
      state.SkipWithError("spool append failed");
      return;
    }
    benchmark::DoNotOptimize(matches);
    state.PauseTiming();
    site.reset();
    sm.reset();
    state.ResumeTiming();
  }
  if (matches != 10000 * static_cast<uint64_t>(state.iterations())) {
    state.SkipWithError("wrong match count");
  }
  state.SetItemsProcessed(state.iterations() * 20000);
  state.counters["per_tuple"] = benchmark::Counter(
      20000, benchmark::Counter::kIsIterationInvariantRate |
                 benchmark::Counter::kInvert);
}
BENCHMARK_CAPTURE(BM_JoinSite, simple, SiteKind::kSimple)
    ->ArgName("spill")
    ->Arg(0)
    ->Arg(1);
BENCHMARK_CAPTURE(BM_JoinSite, hybrid, SiteKind::kHybrid)
    ->ArgName("spill")
    ->Arg(0)
    ->Arg(1);
BENCHMARK_CAPTURE(BM_JoinSite, sortmerge, SiteKind::kSortMerge)
    ->ArgName("spill")
    ->Arg(0)
    ->Arg(1);

void BM_SplitTableRouting(benchmark::State& state) {
  const auto tuples = wis::GenerateWisconsin(10000, 4);
  const auto& schema = wis::WisconsinSchema();
  uint64_t delivered = 0;
  std::vector<exec::SplitTable::Destination> dests;
  for (int i = 0; i < 8; ++i) {
    dests.push_back(exec::SplitTable::Destination{
        i, [&delivered](std::span<const uint8_t>) { ++delivered; }});
  }
  exec::SplitTable split(0, &schema,
                         exec::RouteSpec::HashAttr(wis::kUnique2, 42),
                         std::move(dests), nullptr);
  for (auto _ : state) {
    for (const auto& tuple : tuples) split.Send(tuple);
  }
  benchmark::DoNotOptimize(delivered);
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SplitTableRouting);

void BM_SplitTableRoutingBucketMap(benchmark::State& state) {
  // Per-tuple cost of the skew-aware route relative to BM_SplitTableRouting
  // above: one extra modulo and map lookup on top of the same attribute
  // hash. The map folds 512 virtual buckets onto 8 destinations.
  const auto tuples = wis::GenerateWisconsin(10000, 4);
  const auto& schema = wis::WisconsinSchema();
  uint64_t delivered = 0;
  std::vector<exec::SplitTable::Destination> dests;
  for (int i = 0; i < 8; ++i) {
    dests.push_back(exec::SplitTable::Destination{
        i, [&delivered](std::span<const uint8_t>) { ++delivered; }});
  }
  std::vector<int32_t> bucket_map(512);
  for (size_t b = 0; b < bucket_map.size(); ++b) {
    bucket_map[b] = static_cast<int32_t>(b % 8);
  }
  exec::SplitTable split(
      0, &schema,
      exec::RouteSpec::BucketMap(wis::kUnique2, 42, std::move(bucket_map)),
      std::move(dests), nullptr);
  for (auto _ : state) {
    for (const auto& tuple : tuples) split.Send(tuple);
  }
  benchmark::DoNotOptimize(delivered);
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SplitTableRoutingBucketMap);

void BM_PredicateEval(benchmark::State& state) {
  const auto tuples = wis::GenerateWisconsin(10000, 5);
  const auto& schema = wis::WisconsinSchema();
  const exec::Predicate pred = exec::Predicate::Range(wis::kUnique1, 0, 999);
  for (auto _ : state) {
    int matches = 0;
    for (const auto& tuple : tuples) {
      matches += pred.Eval(tuple, schema) ? 1 : 0;
    }
    benchmark::DoNotOptimize(matches);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_PredicateEval);

void BM_GenerateWisconsin(benchmark::State& state) {
  // wisconsin.generate_ns_per_tuple: a 100k-tuple Wisconsin relation at Arg
  // host threads.
  sim::HostPool& pool = sim::HostPool::Instance();
  const int saved_threads = pool.num_threads();
  pool.set_num_threads(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(wis::GenerateWisconsin(100000, 7));
  }
  pool.set_num_threads(saved_threads);
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_GenerateWisconsin)->Arg(1)->Arg(2)->Arg(4)->UseRealTime()->Unit(
    benchmark::kMillisecond);

void BM_LoadTuples(benchmark::State& state) {
  // gamma.load_ns_per_tuple: 100k Wisconsin tuples loaded into a fresh
  // hashed relation on the default machine's 8 disk nodes (route, page-at-a-
  // time appends, pool settle, load statistics) at Arg host threads. The
  // machine's construction and destruction are not timed.
  const auto tuples = wis::GenerateWisconsin(100000, 8);
  sim::HostPool& pool = sim::HostPool::Instance();
  const int saved_threads = pool.num_threads();
  pool.set_num_threads(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    state.PauseTiming();
    auto machine = std::make_unique<gamma::GammaMachine>(gamma::GammaConfig{});
    if (!machine
             ->CreateRelation("A", wis::WisconsinSchema(),
                              catalog::PartitionSpec::Hashed(wis::kUnique1))
             .ok()) {
      state.SkipWithError("create failed");
      break;
    }
    state.ResumeTiming();
    if (!machine->LoadTuples("A", tuples).ok()) {
      state.SkipWithError("load failed");
      break;
    }
    state.PauseTiming();
    machine.reset();
    state.ResumeTiming();
  }
  pool.set_num_threads(saved_threads);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(tuples.size()));
}
BENCHMARK(BM_LoadTuples)->Arg(1)->Arg(2)->Arg(4)->UseRealTime()->Unit(
    benchmark::kMillisecond);

void BM_TeradataLoad(benchmark::State& state) {
  // teradata.load_ns_per_tuple: 100k Wisconsin tuples bulk-loaded into a
  // fresh 20-AMP machine (route, hash-order sort, append, key directory,
  // pool settle) at Arg host threads. The machine's construction is not
  // timed.
  const auto tuples = wis::GenerateWisconsin(100000, 8);
  sim::HostPool& pool = sim::HostPool::Instance();
  const int saved_threads = pool.num_threads();
  pool.set_num_threads(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    state.PauseTiming();
    auto machine =
        std::make_unique<teradata::TeradataMachine>(teradata::TeradataConfig{});
    if (!machine->CreateRelation("A", wis::WisconsinSchema(), wis::kUnique1)
             .ok()) {
      state.SkipWithError("create failed");
      break;
    }
    state.ResumeTiming();
    if (!machine->LoadTuples("A", tuples).ok()) {
      state.SkipWithError("load failed");
      break;
    }
    state.PauseTiming();
    machine.reset();
    state.ResumeTiming();
  }
  pool.set_num_threads(saved_threads);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(tuples.size()));
}
// The threaded benches time wall clock: CPU time counts the calling thread
// only, so it would leave out every pool worker's share.
BENCHMARK(BM_TeradataLoad)->Arg(1)->Arg(4)->UseRealTime()->Unit(
    benchmark::kMillisecond);

void BM_StatsFold(benchmark::State& state) {
  // opt.stats.fold_ns_per_tuple: the first read of unique1's statistics on
  // 100k loaded Wisconsin tuples (each fragment's stored pages gathered on
  // a host task, then min/max, the linear-counting and the space-saving
  // sketches folded in stored order) on the default machine at Arg host
  // threads. Each iteration first drops the fold with an untimed recount.
  const auto tuples = wis::GenerateWisconsin(100000, 9);
  gamma::GammaMachine machine{gamma::GammaConfig{}};
  if (!machine
           .CreateRelation("A", wis::WisconsinSchema(),
                           catalog::PartitionSpec::Hashed(wis::kUnique1))
           .ok() ||
      !machine.LoadTuples("A", tuples).ok()) {
    state.SkipWithError("load failed");
    return;
  }
  sim::HostPool& pool = sim::HostPool::Instance();
  const int saved_threads = pool.num_threads();
  pool.set_num_threads(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    state.PauseTiming();
    if (!machine.RecomputeStatistics("A").ok()) {
      state.SkipWithError("recount failed");
      break;
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(machine.stats().Find("A")->Attr(wis::kUnique1));
  }
  pool.set_num_threads(saved_threads);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(tuples.size()));
}
BENCHMARK(BM_StatsFold)->Arg(1)->Arg(2)->Arg(4)->UseRealTime()->Unit(
    benchmark::kMillisecond);

void BM_BuildIndex(benchmark::State& state) {
  // gamma.build_index_ns_per_tuple: a clustered index on unique1 (the
  // fragments rewritten in key order), then a non-clustered index on
  // unique2, over 100k Wisconsin tuples on the default machine at Arg host
  // threads. The machine's construction and the load are not timed.
  const auto tuples = wis::GenerateWisconsin(100000, 10);
  sim::HostPool& pool = sim::HostPool::Instance();
  const int saved_threads = pool.num_threads();
  pool.set_num_threads(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    state.PauseTiming();
    auto machine = std::make_unique<gamma::GammaMachine>(gamma::GammaConfig{});
    if (!machine
             ->CreateRelation("A", wis::WisconsinSchema(),
                              catalog::PartitionSpec::Hashed(wis::kUnique1))
             .ok() ||
        !machine->LoadTuples("A", tuples).ok()) {
      state.SkipWithError("load failed");
      break;
    }
    state.ResumeTiming();
    if (!machine->BuildIndex("A", wis::kUnique1, /*clustered=*/true).ok() ||
        !machine->BuildIndex("A", wis::kUnique2, /*clustered=*/false).ok()) {
      state.SkipWithError("index build failed");
      break;
    }
    state.PauseTiming();
    machine.reset();
    state.ResumeTiming();
  }
  pool.set_num_threads(saved_threads);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(tuples.size()));
}
BENCHMARK(BM_BuildIndex)->Arg(1)->Arg(2)->Arg(4)->UseRealTime()->Unit(
    benchmark::kMillisecond);

void BM_ReintegrateNode(benchmark::State& state) {
  // gamma.reintegrate_ns_per_tuple: ReintegrateNode(1) after node 1 died on
  // an idle machine (8 disk nodes, logging and chained declustering on, a
  // clustered index on unique1 and a non-clustered one on unique2, 100k
  // Wisconsin tuples): node 2's backup of fragment 1 is scanned, shipped
  // and written back as the fragment in key order with both B-trees. Only
  // the reintegration is timed.
  const auto tuples = wis::GenerateWisconsin(100000, 15);
  gamma::GammaConfig config;
  config.num_disk_nodes = 8;
  config.num_diskless_nodes = 0;
  config.enable_logging = true;
  config.chained_declustering = true;
  for (auto _ : state) {
    state.PauseTiming();
    auto machine = std::make_unique<gamma::GammaMachine>(config);
    if (!machine
             ->CreateRelation("A", wis::WisconsinSchema(),
                              catalog::PartitionSpec::Hashed(wis::kUnique1))
             .ok() ||
        !machine->LoadTuples("A", tuples).ok() ||
        !machine->BuildIndex("A", wis::kUnique1, /*clustered=*/true).ok() ||
        !machine->BuildIndex("A", wis::kUnique2, /*clustered=*/false).ok()) {
      state.SkipWithError("set-up failed");
      break;
    }
    machine->KillNode(1);
    state.ResumeTiming();
    if (!machine->ReintegrateNode(1).ok()) {
      state.SkipWithError("reintegration failed");
      break;
    }
    state.PauseTiming();
    machine.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(tuples.size() / 8));
}
BENCHMARK(BM_ReintegrateNode)->UseRealTime()->Unit(benchmark::kMillisecond);

void BM_RecomputeStatistics(benchmark::State& state) {
  // gamma.recompute_stats_ns_per_tuple: the recount that follows Recover()
  // and ReintegrateNode() (a pinned sweep of every serving page that only
  // counts the live slots, then a drop of the folded statistics) over 100k
  // Wisconsin tuples on the default machine at Arg host threads. The
  // machine's construction and the load are not timed.
  const auto tuples = wis::GenerateWisconsin(100000, 12);
  gamma::GammaMachine machine{gamma::GammaConfig{}};
  if (!machine
           .CreateRelation("A", wis::WisconsinSchema(),
                           catalog::PartitionSpec::Hashed(wis::kUnique1))
           .ok() ||
      !machine.LoadTuples("A", tuples).ok()) {
    state.SkipWithError("load failed");
    return;
  }
  sim::HostPool& pool = sim::HostPool::Instance();
  const int saved_threads = pool.num_threads();
  pool.set_num_threads(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    if (!machine.RecomputeStatistics("A").ok()) {
      state.SkipWithError("recount failed");
      break;
    }
    benchmark::DoNotOptimize(machine.stats().Find("A"));
  }
  pool.set_num_threads(saved_threads);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(tuples.size()));
}
BENCHMARK(BM_RecomputeStatistics)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_PointSelect(benchmark::State& state) {
  // gamma.select_point_us: one single-site select (unique1 = key, through
  // the clustered index) returned to the host, on the durable Table 3
  // machine (8 disk + 8 diskless nodes, logging and chained declustering
  // on, a clustered index on unique1 and a non-clustered one on unique2,
  // 100k tuples) at Arg host threads. Everything around the one-site scan
  // is fixed per-statement cost: the scheduler, locks, the result return
  // and the end-of-statement pool flush. Set-up is not timed.
  const uint32_t n = 100000;
  gamma::GammaConfig config;
  config.num_disk_nodes = 8;
  config.num_diskless_nodes = 8;
  config.page_size = 4096;
  config.join_memory_total = 24ull << 20;
  config.enable_logging = true;
  config.chained_declustering = true;
  gamma::GammaMachine machine(config);
  if (!machine
           .CreateRelation("A", wis::WisconsinSchema(),
                           catalog::PartitionSpec::Hashed(wis::kUnique1))
           .ok() ||
      !machine.LoadTuples("A", wis::GenerateWisconsin(n, 13)).ok() ||
      !machine.BuildIndex("A", wis::kUnique1, /*clustered=*/true).ok() ||
      !machine.BuildIndex("A", wis::kUnique2, /*clustered=*/false).ok()) {
    state.SkipWithError("set-up failed");
    return;
  }
  sim::HostPool& pool = sim::HostPool::Instance();
  const int saved_threads = pool.num_threads();
  pool.set_num_threads(static_cast<int>(state.range(0)));
  Rng rng(14);
  gamma::SelectQuery query;
  query.relation = "A";
  query.store_result = false;
  for (auto _ : state) {
    query.predicate = exec::Predicate::Eq(
        wis::kUnique1, static_cast<int32_t>(rng.Uniform(n)));
    auto result = machine.RunSelect(query);
    if (!result.ok() || result->returned.size() != 1) {
      state.SkipWithError("point select failed");
      break;
    }
    benchmark::DoNotOptimize(result->returned.data());
  }
  pool.set_num_threads(saved_threads);
}
BENCHMARK(BM_PointSelect)->Arg(1)->Arg(2)->UseRealTime()->Unit(
    benchmark::kMicrosecond);

void BM_MachineRebuild(benchmark::State& state) {
  // One machine's whole life, the way a perfbench join_100k iteration
  // spends it: build the §6.1 Gamma machine (8 disk + 8 diskless nodes,
  // 4 KB pages, 4.8 MB join memory), load 100k-tuple A and B, run the
  // overflowing Remote-mode joinAB on unique2, and destroy the machine.
  // Everything is timed; `minflt` is the host's minor page faults per
  // iteration (getrusage), which counts the fresh host pages touched.
  const auto tuples = wis::GenerateWisconsin(100000, 16);
  gamma::GammaConfig config;
  config.num_disk_nodes = 8;
  config.num_diskless_nodes = 8;
  config.page_size = 4096;
  config.join_memory_total = 4800 * 1024;
  gamma::JoinQuery query;
  query.outer = "A";
  query.inner = "B";
  query.outer_attr = wis::kUnique2;
  query.inner_attr = wis::kUnique2;
  query.mode = gamma::JoinMode::kRemote;
  rusage before{};
  getrusage(RUSAGE_SELF, &before);
  for (auto _ : state) {
    gamma::GammaMachine machine(config);
    bool ok = true;
    for (const char* name : {"A", "B"}) {
      ok = ok &&
           machine
               .CreateRelation(name, wis::WisconsinSchema(),
                               catalog::PartitionSpec::Hashed(wis::kUnique1))
               .ok() &&
           machine.LoadTuples(name, tuples).ok();
    }
    if (!ok) {
      state.SkipWithError("load failed");
      break;
    }
    auto result = machine.RunJoin(query);
    if (!result.ok() || result->result_tuples != tuples.size() ||
        result->metrics.overflow_rounds == 0) {
      state.SkipWithError("overflowing joinAB failed");
      break;
    }
    benchmark::DoNotOptimize(result->result_relation.data());
  }
  rusage after{};
  getrusage(RUSAGE_SELF, &after);
  state.counters["minflt"] = benchmark::Counter(
      static_cast<double>(after.ru_minflt - before.ru_minflt),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_MachineRebuild)->UseRealTime()->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace gammadb

BENCHMARK_MAIN();
