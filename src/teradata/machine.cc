#include "teradata/machine.h"

#include "teradata/index_entry.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <set>

#include "common/hash.h"
#include "common/macros.h"
#include "exec/merge_join.h"
#include "exec/node_executor.h"
#include "exec/select.h"
#include "exec/sort.h"
#include "exec/split_table.h"
#include "obs/profile.h"
#include "sim/host_pool.h"

namespace gammadb::teradata {

using catalog::IntAttr;
using catalog::RelationMeta;
using catalog::Schema;
using exec::Predicate;
using exec::QueryResult;
using exec::SplitTable;
using storage::AccessIntent;
using storage::Rid;

namespace {

/// The optimizer uses a dense secondary index below this selectivity
/// (it chose the index at 1% and the scan at 10%, §5.1).
constexpr double kIndexThreshold = 0.05;

/// One tuple of a hash-key-ordered fragment, tagged with its placement hash.
struct HashKeyed {
  uint64_t hash;
  int32_t key;
  std::vector<uint8_t> bytes;
};

/// Materializes a fragment in hash-key order (its physical order), applying
/// a selection. The scan costs are charged through SelectScan.
Result<std::vector<HashKeyed>> LoadHashOrdered(
    const storage::HeapFile& fragment, const Schema& schema, int attr,
    const Predicate& pred, uint64_t salt,
    const storage::ChargeContext& charge) {
  std::vector<HashKeyed> out;
  out.reserve(fragment.num_tuples());
  GAMMA_RETURN_NOT_OK(
      exec::SelectScan(fragment, schema, pred, charge,
                       [&](std::span<const uint8_t> t) {
                         const int32_t key = IntAttr(schema, t, attr);
                         out.push_back(HashKeyed{HashInt32(key, salt), key,
                                                 {t.begin(), t.end()}});
                       })
          .status());
  // The fragment is maintained in hash-key order; re-establish it here in
  // case single-tuple updates or a second load batch appended out of order
  // (no cost charged: the machine keeps the order as part of every insert).
  const auto by_hash = [](const HashKeyed& a, const HashKeyed& b) {
    return a.hash < b.hash;
  };
  if (!std::is_sorted(out.begin(), out.end(), by_hash)) {
    std::stable_sort(out.begin(), out.end(), by_hash);
  }
  return out;
}

/// Merge join over two hash-key-ordered inputs: advance on hash value, and
/// match key equality within equal-hash groups. Emits inner ++ outer.
uint64_t HashOrderMergeJoin(const std::vector<HashKeyed>& inner,
                            const std::vector<HashKeyed>& outer,
                            const storage::ChargeContext& charge,
                            const exec::TupleSink& emit) {
  uint64_t matches = 0;
  std::vector<uint8_t> joined;
  auto charge_compare = [&] {
    if (charge.tracker != nullptr) {
      charge.Cpu(charge.tracker->hw().cost.instr_per_sort_compare);
    }
  };
  size_t i = 0, j = 0;
  while (i < inner.size() && j < outer.size()) {
    charge_compare();
    if (inner[i].hash < outer[j].hash) {
      ++i;
    } else if (inner[i].hash > outer[j].hash) {
      ++j;
    } else {
      const uint64_t hash = inner[i].hash;
      size_t j_end = j;
      while (j_end < outer.size() && outer[j_end].hash == hash) ++j_end;
      while (i < inner.size() && inner[i].hash == hash) {
        for (size_t k = j; k < j_end; ++k) {
          charge_compare();
          if (inner[i].key != outer[k].key) continue;
          if (charge.tracker != nullptr) {
            charge.Cpu(charge.tracker->hw().cost.instr_per_tuple_copy);
          }
          catalog::ConcatInto(joined, inner[i].bytes, outer[k].bytes);
          emit(joined);
          ++matches;
        }
        ++i;
      }
      j = j_end;
    }
  }
  return matches;
}

}  // namespace

TeradataMachine::TeradataMachine(TeradataConfig config) : config_(config) {
  GAMMA_CHECK(config_.num_amps > 0);
  for (int i = 0; i < config_.num_amps; ++i) {
    amps_.push_back(std::make_unique<storage::StorageManager>(
        config_.page_size, config_.buffer_pool_bytes));
  }
}

void TeradataMachine::Directory::Erase(int32_t key, Rid rid) {
  auto [begin, end] = map_.equal_range(key);
  for (auto it = begin; it != end; ++it) {
    if (it->second == rid) {
      map_.erase(it);
      return;
    }
  }
}

std::vector<Rid> TeradataMachine::Directory::Find(int32_t key) const {
  std::vector<Rid> rids;
  auto [begin, end] = map_.equal_range(key);
  for (auto it = begin; it != end; ++it) rids.push_back(it->second);
  return rids;
}

Result<TeradataMachine::Rel> TeradataMachine::GetRel(const std::string& name) {
  GAMMA_ASSIGN_OR_RETURN(RelationMeta * meta, catalog_.Get(name));
  return Rel{meta, &states_.at(name)};
}

Status TeradataMachine::FlushAllPools() {
  Status first = Status::OK();
  for (const auto& amp : amps_) {
    if (amp->pool().dirty_frames() == 0) continue;
    Status status = amp->pool().FlushAll();
    if (first.ok()) first = std::move(status);
  }
  return first;
}

int TeradataMachine::AmpForKey(int32_t key) const {
  return static_cast<int>(HashInt32(key, placement_salt_) %
                          static_cast<uint64_t>(config_.num_amps));
}

TeradataMachine::Rel TeradataMachine::AddRelation(const std::string& name,
                                                  catalog::Schema schema,
                                                  int key_attr) {
  RelationMeta meta;
  meta.name = name;
  meta.schema = std::move(schema);
  meta.partitioning = catalog::PartitionSpec::Hashed(key_attr);
  meta.partitioning.hash_salt = placement_salt_;
  for (int i = 0; i < config_.num_amps; ++i) {
    meta.per_node_file.push_back(amps_[static_cast<size_t>(i)]->CreateFile());
  }
  GAMMA_CHECK(catalog_.Register(std::move(meta)).ok());
  RelationState state;
  state.key_dir.resize(static_cast<size_t>(config_.num_amps));
  auto [it, inserted] = states_.emplace(name, std::move(state));
  GAMMA_CHECK(inserted);
  return Rel{*catalog_.Get(name), &it->second};
}

Status TeradataMachine::CreateRelation(const std::string& name,
                                       catalog::Schema schema,
                                       int primary_key_attr) {
  if (catalog_.Contains(name)) {
    return Status::AlreadyExists("relation " + name);
  }
  if (!storage::HeapFile::RecordFits(schema.tuple_size(), config_.page_size)) {
    return Status::InvalidArgument("a tuple of " + name +
                                   " does not fit on one page");
  }
  if (primary_key_attr < 0 ||
      static_cast<size_t>(primary_key_attr) >= schema.num_attrs() ||
      schema.attr(static_cast<size_t>(primary_key_attr)).type !=
          catalog::AttrType::kInt32) {
    return Status::InvalidArgument(
        "primary key must be an int attribute of " + name);
  }
  AddRelation(name, std::move(schema), primary_key_attr);
  return Status::OK();
}

Status TeradataMachine::RunAmpTasks(sim::CostTracker* tracker,
                                    std::vector<exec::NodeTask> tasks) {
  return exec::NodeExecutor(amps_, config_.hw, config_.tracker_nodes())
      .Run(tracker, std::move(tasks));
}

Status TeradataMachine::LoadTuples(
    const std::string& name, const std::vector<std::vector<uint8_t>>& tuples) {
  GAMMA_ASSIGN_OR_RETURN(const Rel rel, GetRel(name));
  const RelationMeta& meta = *rel.meta;
  const int key_attr = rel.key_attr();
  const auto num_amps = static_cast<size_t>(config_.num_amps);
  // Route each tuple to its AMP by its placement hash, on every host
  // thread; each AMP then stores its fragment in hash-key order (the hash
  // value, then a sequence number, forms the tuple id, §3). Ties keep input
  // order. Every tuple is validated before any fragment is touched.
  struct Keyed {
    uint64_t hash;
    uint32_t index;
    bool operator<(const Keyed& o) const {
      return hash != o.hash ? hash < o.hash : index < o.index;
    }
  };
  GAMMA_CHECK(tuples.size() <= UINT32_MAX);
  std::vector<std::vector<Keyed>> per_amp(num_amps);
  const bool routed = sim::RouteInChunks(
      tuples.size(), per_amp,
      [&](size_t i) -> std::optional<uint64_t> {
        if (tuples[i].size() != meta.schema.tuple_size()) return std::nullopt;
        return HashInt32(IntAttr(meta.schema, tuples[i], key_attr),
                         placement_salt_);
      },
      [&](size_t i, uint64_t hash, auto&& emit) {
        emit(hash % num_amps, Keyed{hash, static_cast<uint32_t>(i)});
      });
  if (!routed) {
    return Status::InvalidArgument("tuple size does not match schema");
  }
  // One task per AMP: sort, append, fill the key directory and settle the
  // pool (loading is uncharged; measured queries start cold). Each rid is
  // kept for the rollback.
  std::vector<std::vector<Rid>> rids(num_amps);
  for (size_t amp = 0; amp < num_amps; ++amp) {
    rids[amp].resize(per_amp[amp].size());
  }
  std::vector<size_t> appended(num_amps);
  std::vector<exec::NodeTask> tasks;
  tasks.reserve(num_amps);
  for (size_t amp = 0; amp < num_amps; ++amp) {
    tasks.push_back(exec::NodeTask{
        static_cast<int>(amp), [&, amp](sim::CostTracker&) -> Status {
          std::vector<Keyed>& bucket = per_amp[amp];
          std::sort(bucket.begin(), bucket.end());
          Directory& dir = rel.state->key_dir[amp];
          dir.Reserve(bucket.size());
          GAMMA_RETURN_NOT_OK(
              amps_[amp]->file(meta.per_node_file[amp]).AppendBatch(
                  bucket.size(),
                  [&](size_t j) -> std::span<const uint8_t> {
                    return tuples[bucket[j].index];
                  },
                  [&](size_t j, Rid rid) {
                    rids[amp][j] = rid;
                    ++appended[amp];
                    dir.Add(IntAttr(meta.schema, tuples[bucket[j].index],
                                    key_attr),
                            rid);
                  }));
          return amps_[amp]->pool().Invalidate();
        }});
  }
  const Status status = RunAmpTasks(nullptr, std::move(tasks));
  if (!status.ok()) {
    // All-or-nothing: take what this call appended back out, then settle
    // the pools.
    for (size_t amp = 0; amp < num_amps; ++amp) {
      for (size_t j = 0; j < appended[amp]; ++j) {
        (void)Remove(rel, static_cast<int>(amp), rids[amp][j],
                     tuples[per_amp[amp][j].index]);
      }
      amps_[amp]->pool().Invalidate();
    }
    return status;
  }
  rel.meta->num_tuples += tuples.size();
  return Status::OK();
}

Status TeradataMachine::BuildSecondaryIndex(const std::string& name,
                                            int attr) {
  GAMMA_ASSIGN_OR_RETURN(const Rel rel, GetRel(name));
  RelationMeta* meta = rel.meta;
  if (attr < 0 || static_cast<size_t>(attr) >= meta->schema.num_attrs()) {
    return Status::InvalidArgument("index attribute out of range");
  }
  const auto num_amps = static_cast<size_t>(config_.num_amps);
  SecondaryIndex index;
  index.attr = attr;
  index.dir.resize(num_amps);
  index.per_amp_file.assign(num_amps, catalog::kNoFile);
  // One task per AMP: scan the fragment into a fresh entry file and the
  // exact-match directory, then settle the pool.
  std::vector<exec::NodeTask> tasks;
  tasks.reserve(num_amps);
  for (size_t amp = 0; amp < num_amps; ++amp) {
    tasks.push_back(exec::NodeTask{
        static_cast<int>(amp), [&, amp](sim::CostTracker&) -> Status {
          storage::StorageManager& sm = *amps_[amp];
          index.per_amp_file[amp] = sm.CreateFile();
          storage::HeapFile& index_file = sm.file(index.per_amp_file[amp]);
          const storage::HeapFile& fragment =
              sm.file(meta->per_node_file[amp]);
          Directory& dir = index.dir[amp];
          dir.Reserve(fragment.num_tuples());
          Status append_status;
          GAMMA_RETURN_NOT_OK(
              fragment.Scan([&](Rid rid, std::span<const uint8_t> tuple) {
                const int32_t key = IntAttr(meta->schema, tuple, attr);
                append_status =
                    index_file.Append(internal::SerializeIndexEntry(key, rid))
                        .status();
                if (!append_status.ok()) return false;
                dir.Add(key, rid);
                return true;
              }));
          GAMMA_RETURN_NOT_OK(append_status);
          return sm.pool().Invalidate();
        }});
  }
  const Status status = RunAmpTasks(nullptr, std::move(tasks));
  if (!status.ok()) {
    // A partial index would silently miss rows: drop every entry file.
    for (size_t amp = 0; amp < num_amps; ++amp) {
      if (index.per_amp_file[amp] != catalog::kNoFile) {
        amps_[amp]->DropFile(index.per_amp_file[amp]);
      }
      amps_[amp]->pool().Invalidate();
    }
    return status;
  }
  rel.state->indices.push_back(std::move(index));
  // Catalog-level metadata so callers can discover the index.
  catalog::IndexMeta meta_index;
  meta_index.attr = attr;
  meta_index.clustered = false;
  meta_index.per_node_index = {};
  meta->indices.push_back(std::move(meta_index));
  return Status::OK();
}

// --- Statement scope and result sink (DESIGN.md §20) ---

TeradataMachine::Statement::Statement(TeradataMachine& machine, int steps,
                                      bool single_tuple)
    : m_(machine),
      tracker_(machine.config_.hw, machine.config_.tracker_nodes()),
      temps_(machine.amps_.size()) {
  for (size_t amp = 0; amp < m_.amps_.size(); ++amp) {
    m_.amps_[amp]->BindTracker(&tracker_, static_cast<int>(amp));
  }
  // IFP work (parse, plan, per-step dispatch over the Y-net) is serialized
  // ahead of AMP execution; modelled as scheduler time.
  const TeradataConfig& config = m_.config_;
  tracker_.BeginPhase("ifp_dispatch", sim::PhaseKind::kSequential);
  tracker_.ChargeSerialSec(config.ifp_node(),
                           single_tuple ? kSingleStepOverheadSec
                                        : steps * kStepOverheadSec);
  tracker_.ChargeControlMessage(config.host_node(), config.ifp_node(),
                                /*blocking=*/true);
  tracker_.EndPhase();
}

TeradataMachine::Statement::~Statement() {
  if (ended_) return;
  End();
  if (stored_.meta != nullptr) {
    // A failed statement leaves no partial result behind.
    const std::string name = stored_.meta->name;
    for (size_t amp = 0; amp < m_.amps_.size(); ++amp) {
      m_.amps_[amp]->DropFile(stored_.meta->per_node_file[amp]);
    }
    GAMMA_CHECK(m_.catalog_.Drop(name).ok());
    m_.states_.erase(name);
  }
}

void TeradataMachine::Statement::End() {
  ended_ = true;
  split_.reset();
  for (size_t amp = 0; amp < m_.amps_.size(); ++amp) {
    for (const storage::FileId id : temps_[amp]) m_.amps_[amp]->DropFile(id);
    m_.amps_[amp]->BindTracker(nullptr, static_cast<int>(amp));
  }
}

void TeradataMachine::Statement::OpenResult(bool store,
                                            const std::string& name,
                                            catalog::Schema schema,
                                            InsertMode mode) {
  sink_open_ = true;
  mode_ = mode;
  if (!store) return;
  stored_ = m_.AddRelation(
      name.empty() ? m_.catalog_.FreshResultName("td_result_") : name,
      std::move(schema), /*key_attr=*/0);
  result_.result_relation = stored_.meta->name;
}

void TeradataMachine::Statement::SendToHost(int src,
                                            std::span<const uint8_t> tuple) {
  tracker_.ChargeDataPacket(src, m_.config_.host_node(), tuple.size());
  result_.returned.emplace_back(tuple.begin(), tuple.end());
}

exec::TupleSink TeradataMachine::Statement::OpenStream(int src) {
  if (stored_.meta == nullptr) {
    return [this, src](std::span<const uint8_t> t) { SendToHost(src, t); };
  }
  // Result tuples are re-hashed on the result's primary key; the low-level
  // software never short-circuits this (§4). The first failed store is
  // kept and fails the statement once the stream closes.
  std::vector<SplitTable::Destination> dests;
  for (int dst = 0; dst < m_.config_.num_amps; ++dst) {
    dests.push_back(SplitTable::Destination{
        dst, [this, dst](std::span<const uint8_t> t) {
          auto rid = m_.Insert(mode_, stored_, dst, t);
          if (!rid.ok() && store_status_.ok()) store_status_ = rid.status();
        }});
  }
  split_ = std::make_unique<SplitTable>(
      src, &stored_.meta->schema,
      exec::RouteSpec::HashAttr(0, m_.placement_salt_), std::move(dests),
      &tracker_);
  split_->set_force_network(true);
  return [split = split_.get()](std::span<const uint8_t> t) {
    split->Send(t);
  };
}

Status TeradataMachine::Statement::CloseStream() {
  if (split_ != nullptr) {
    split_->Close();
    split_.reset();
  }
  return store_status_;
}

Status TeradataMachine::Statement::Deliver(int src,
                                           std::span<const uint8_t> tuple) {
  if (stored_.meta == nullptr) {
    SendToHost(src, tuple);
    return Status::OK();
  }
  const int home = m_.AmpForKey(IntAttr(stored_.meta->schema, tuple, 0));
  tracker_.ChargeDataPacket(src, home, tuple.size(), /*force_network=*/true);
  return m_.Insert(mode_, stored_, home, tuple).status();
}

storage::FileId TeradataMachine::Statement::TempFile(int amp) {
  const storage::FileId id = m_.amps_[static_cast<size_t>(amp)]->CreateFile();
  AdoptTemp(amp, id);
  return id;
}

void TeradataMachine::Statement::AdoptTemp(int amp, storage::FileId id) {
  temps_[static_cast<size_t>(amp)].push_back(id);
}

Result<QueryResult> TeradataMachine::Statement::Finish(const char* label) {
  if (sink_open_) {
    result_.result_tuples = stored_.meta != nullptr
                                ? stored_.meta->num_tuples
                                : result_.returned.size();
  }
  End();
  result_.metrics = tracker_.Finish();
  obs::FinalizeStatement(m_.config_.trace, "teradata", label,
                         m_.config_.hw.net.ring_bytes_per_sec, &result_);
  return std::move(result_);
}

Result<QueryResult> TeradataMachine::RunSelect(const TdSelectQuery& query) {
  GAMMA_ASSIGN_OR_RETURN(const Rel rel, GetRel(query.relation));
  if (query.store_result) {
    GAMMA_RETURN_NOT_OK(catalog_.CheckResult(
        query.result_name, rel.meta->schema, config_.page_size));
  }
  const RelationMeta& meta = *rel.meta;
  const Predicate& pred = query.predicate;
  const bool exact_pk = pred.is_eq() && pred.attr() == rel.key_attr();
  Statement stmt(*this, query.store_result ? 2 : 1, exact_pk);
  stmt.OpenResult(query.store_result, query.result_name, meta.schema,
                  InsertMode::kRecovery);
  sim::CostTracker& tracker = stmt.tracker();

  if (exact_pk) {
    tracker.BeginPhase("point_select", sim::PhaseKind::kSequential);
    const int amp_index = AmpForKey(pred.lo());
    const auto amp = static_cast<size_t>(amp_index);
    storage::StorageManager& sm = *amps_[amp];
    for (const Rid rid : rel.state->key_dir[amp].Find(pred.lo())) {
      GAMMA_ASSIGN_OR_RETURN(
          const std::vector<uint8_t> tuple,
          sm.file(meta.per_node_file[amp]).Fetch(rid, AccessIntent::kRandom));
      sm.charge().Cpu(config_.hw.cost.instr_per_tuple_scan +
                      config_.hw.cost.instr_per_attr_compare);
      GAMMA_RETURN_NOT_OK(stmt.Deliver(amp_index, tuple));
    }
    GAMMA_RETURN_NOT_OK(FlushAllPools());
    tracker.EndPhase();
    return stmt.Finish("select");
  }
  // Pick the access path: a dense secondary index helps only at low
  // selectivity, and even then the whole index must be scanned (§3, §5.1).
  const SecondaryIndex* index = nullptr;
  if (query.allow_index && !pred.is_true()) {
    for (const SecondaryIndex& candidate : rel.state->indices) {
      if (candidate.attr == pred.attr()) index = &candidate;
    }
    const double span = static_cast<double>(pred.hi()) - pred.lo() + 1;
    const double selectivity =
        span / std::max<double>(1.0, static_cast<double>(meta.num_tuples));
    if (selectivity > kIndexThreshold) index = nullptr;
  }

  // AMP software serializes its disk, CPU and Y-net work (single 80286).
  tracker.BeginPhase("scan_select", sim::PhaseKind::kSequential);
  for (int amp_index = 0; amp_index < config_.num_amps; ++amp_index) {
    const auto amp = static_cast<size_t>(amp_index);
    storage::StorageManager& sm = *amps_[amp];
    const exec::TupleSink emit = stmt.OpenStream(amp_index);
    storage::HeapFile& fragment = sm.file(meta.per_node_file[amp]);
    if (index != nullptr) {
      // Scan the *entire* index (hash order, not key order), then fetch
      // each qualifying tuple with a random access. Entry files are
      // append-only, so a modified or deleted tuple leaves stale entries:
      // each rid is fetched once, a dead slot is skipped, and the fetched
      // tuple must still match (DESIGN.md §20).
      std::vector<Rid> rids;
      std::set<Rid> seen;
      GAMMA_RETURN_NOT_OK(
          sm.file(index->per_amp_file[amp])
              .Scan([&](Rid, std::span<const uint8_t> bytes) {
                const internal::IndexEntry entry =
                    internal::DeserializeIndexEntry(bytes);
                sm.charge().Cpu(config_.hw.cost.instr_per_tuple_scan +
                                pred.compare_count() *
                                    config_.hw.cost.instr_per_attr_compare);
                const Rid rid{entry.page_index, entry.slot};
                if (entry.key >= pred.lo() && entry.key <= pred.hi() &&
                    seen.insert(rid).second) {
                  rids.push_back(rid);
                }
                return true;
              }));
      for (const Rid rid : rids) {
        Result<std::vector<uint8_t>> tuple =
            fragment.Fetch(rid, AccessIntent::kRandom);
        if (tuple.status().IsNotFound()) continue;
        GAMMA_RETURN_NOT_OK(tuple.status());
        sm.charge().Cpu(config_.hw.cost.instr_per_tuple_scan);
        if (pred.Eval(*tuple, meta.schema)) emit(*tuple);
      }
    } else {
      GAMMA_RETURN_NOT_OK(
          exec::SelectScan(fragment, meta.schema, pred, sm.charge(), emit)
              .status());
    }
    GAMMA_RETURN_NOT_OK(stmt.CloseStream());
  }
  GAMMA_RETURN_NOT_OK(FlushAllPools());
  tracker.EndPhase();
  return stmt.Finish("select");
}

Result<QueryResult> TeradataMachine::RunJoin(const TdJoinQuery& query) {
  GAMMA_ASSIGN_OR_RETURN(const Rel outer, GetRel(query.outer));
  GAMMA_ASSIGN_OR_RETURN(const Rel inner, GetRel(query.inner));
  if (query.outer_attr < 0 ||
      static_cast<size_t>(query.outer_attr) >=
          outer.meta->schema.num_attrs() ||
      query.inner_attr < 0 ||
      static_cast<size_t>(query.inner_attr) >=
          inner.meta->schema.num_attrs()) {
    return Status::InvalidArgument("join attribute out of range");
  }
  if (query.store_result) {
    GAMMA_RETURN_NOT_OK(catalog_.CheckResult(
        query.result_name,
        Schema::Concat(inner.meta->schema, outer.meta->schema),
        config_.page_size));
  }
  // Joining on both primary keys: every tuple already lives at its join AMP
  // *and* every fragment is already in hash-key order on the join attribute,
  // so the redistribution and sort steps are skipped — the §6.1
  // "substantial performance improvement" for key-attribute joins.
  const bool key_join = query.outer_attr == outer.key_attr() &&
                        query.inner_attr == inner.key_attr();
  Statement stmt(*this, (key_join ? 1 : 3) + (query.store_result ? 1 : 0),
                 /*single_tuple=*/false);
  // Results are inserted with full recovery, unless they feed a later step
  // of the same query: an intermediate is spooled.
  stmt.OpenResult(query.store_result, query.result_name,
                  Schema::Concat(inner.meta->schema, outer.meta->schema),
                  query.result_is_temp ? InsertMode::kSpool
                                       : InsertMode::kRecovery);
  sim::CostTracker& tracker = stmt.tracker();

  // --- Redistribution: both inputs hashed on the join attribute into
  // per-AMP spool files (skipped entirely for key-attribute joins). ---
  const auto num_amps = static_cast<size_t>(config_.num_amps);
  std::vector<storage::FileId> outer_spool(num_amps, catalog::kNoFile);
  std::vector<storage::FileId> inner_spool(num_amps, catalog::kNoFile);
  std::vector<storage::FileId> outer_sorted(num_amps, catalog::kNoFile);
  std::vector<storage::FileId> inner_sorted(num_amps, catalog::kNoFile);
  if (!key_join) {
    for (int amp = 0; amp < config_.num_amps; ++amp) {
      outer_spool[static_cast<size_t>(amp)] = stmt.TempFile(amp);
      inner_spool[static_cast<size_t>(amp)] = stmt.TempFile(amp);
    }
  }

  // Teradata deliberately does NOT adopt the skew-aware kBucketMap route:
  // the Ynet's hardware hashes tuples to AMPs with the fixed placement
  // function (§4) — there is no per-query software split table that could
  // carry a bucket->AMP map, and result rows always pay the network path.
  auto redistribute = [&](const RelationMeta& meta, const Predicate& pred,
                          int join_attr,
                          const std::vector<storage::FileId>& spools,
                          const char* phase) -> Status {
    tracker.BeginPhase(phase, sim::PhaseKind::kSequential);
    Status spool_status;  // first failed spool append
    for (int src = 0; src < config_.num_amps; ++src) {
      storage::StorageManager& sm = *amps_[static_cast<size_t>(src)];
      std::vector<SplitTable::Destination> dests;
      for (int dst = 0; dst < config_.num_amps; ++dst) {
        // Arriving tuples are inserted into a temporary file kept in
        // hash-key order (§6): the full tuple-insert path runs.
        dests.push_back(SplitTable::Destination{
            dst, [&, dst](std::span<const uint8_t> t) {
              const auto rid = Insert(InsertMode::kSpool, dst,
                                      spools[static_cast<size_t>(dst)], t);
              if (!rid.ok() && spool_status.ok()) {
                spool_status = rid.status();
              }
            }});
      }
      SplitTable split(src, &meta.schema,
                       exec::RouteSpec::HashAttr(join_attr, placement_salt_),
                       std::move(dests), &tracker);
      GAMMA_RETURN_NOT_OK(
          exec::SelectScan(
              sm.file(meta.per_node_file[static_cast<size_t>(src)]),
              meta.schema, pred, sm.charge(),
              [&split](std::span<const uint8_t> t) { split.Send(t); })
              .status());
      split.Close();
      GAMMA_RETURN_NOT_OK(spool_status);
    }
    GAMMA_RETURN_NOT_OK(FlushAllPools());
    tracker.EndPhase();
    return Status::OK();
  };

  if (!key_join) {
    GAMMA_RETURN_NOT_OK(redistribute(*inner.meta, query.inner_pred,
                                     query.inner_attr, inner_spool,
                                     "redistribute_inner"));
    GAMMA_RETURN_NOT_OK(redistribute(*outer.meta, query.outer_pred,
                                     query.outer_attr, outer_spool,
                                     "redistribute_outer"));

    // --- Sort both spools at every AMP: one task per AMP, each charging
    // only its own AMP, so the AMPs sort in parallel. ---
    tracker.BeginPhase("sort", sim::PhaseKind::kSequential);
    std::vector<exec::NodeTask> sorts;
    sorts.reserve(num_amps);
    for (size_t amp = 0; amp < num_amps; ++amp) {
      sorts.push_back(exec::NodeTask{
          static_cast<int>(amp), [&, amp](sim::CostTracker&) -> Status {
            storage::StorageManager& sm = *amps_[amp];
            Status sort_status;
            inner_sorted[amp] = exec::ExternalSort(
                sm, inner_spool[amp], inner.meta->schema, query.inner_attr,
                config_.sort_memory_bytes, &sort_status);
            stmt.AdoptTemp(static_cast<int>(amp), inner_sorted[amp]);
            GAMMA_RETURN_NOT_OK(sort_status);
            outer_sorted[amp] = exec::ExternalSort(
                sm, outer_spool[amp], outer.meta->schema, query.outer_attr,
                config_.sort_memory_bytes, &sort_status);
            stmt.AdoptTemp(static_cast<int>(amp), outer_sorted[amp]);
            GAMMA_RETURN_NOT_OK(sort_status);
            return sm.pool().FlushAll();
          }});
    }
    GAMMA_RETURN_NOT_OK(RunAmpTasks(&tracker, std::move(sorts)));
    tracker.EndPhase();
  }

  // --- Merge join at every AMP into the result sink. ---
  tracker.BeginPhase("merge_store", sim::PhaseKind::kSequential);
  for (int amp_index = 0; amp_index < config_.num_amps; ++amp_index) {
    const auto amp = static_cast<size_t>(amp_index);
    storage::StorageManager& sm = *amps_[amp];
    const exec::TupleSink emit = stmt.OpenStream(amp_index);
    if (key_join) {
      GAMMA_ASSIGN_OR_RETURN(
          const auto lhs,
          LoadHashOrdered(sm.file(inner.meta->per_node_file[amp]),
                          inner.meta->schema, query.inner_attr,
                          query.inner_pred, placement_salt_, sm.charge()));
      GAMMA_ASSIGN_OR_RETURN(
          const auto rhs,
          LoadHashOrdered(sm.file(outer.meta->per_node_file[amp]),
                          outer.meta->schema, query.outer_attr,
                          query.outer_pred, placement_salt_, sm.charge()));
      HashOrderMergeJoin(lhs, rhs, sm.charge(), emit);
    } else {
      GAMMA_RETURN_NOT_OK(
          exec::SortMergeJoin(sm.file(inner_sorted[amp]), inner.meta->schema,
                              query.inner_attr, sm.file(outer_sorted[amp]),
                              outer.meta->schema, query.outer_attr,
                              sm.charge(), emit)
              .status);
    }
    GAMMA_RETURN_NOT_OK(stmt.CloseStream());
  }
  GAMMA_RETURN_NOT_OK(FlushAllPools());
  tracker.EndPhase();
  return stmt.Finish("join");
}

}  // namespace gammadb::teradata
