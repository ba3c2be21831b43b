#include "teradata/machine.h"

#include "teradata/index_entry.h"

#include <algorithm>
#include <cstring>
#include <memory>

#include "common/hash.h"
#include "common/macros.h"
#include "exec/merge_join.h"
#include "exec/node_executor.h"
#include "exec/select.h"
#include "exec/sort.h"
#include "exec/split_table.h"
#include "obs/profile.h"

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

void TeradataMachine::BindAll(sim::CostTracker* tracker) {
  for (int i = 0; i < config_.num_amps; ++i) {
    amps_[static_cast<size_t>(i)]->BindTracker(tracker, i);
  }
}

Status TeradataMachine::FlushAllPools() {
  // Every AMP is bound to the same tracker (or to none) between steps.
  sim::CostTracker* tracker = amps_[0]->charge().tracker;
  std::vector<exec::NodeTask> tasks;
  tasks.reserve(amps_.size());
  for (size_t amp = 0; amp < amps_.size(); ++amp) {
    tasks.push_back(exec::NodeTask{static_cast<int>(amp),
                                   [this, amp](sim::CostTracker&) {
                                     return amps_[amp]->pool().FlushAll();
                                   }});
  }
  return RunAmpTasks(tracker, std::move(tasks));
}

void TeradataMachine::ChargeSteps(sim::CostTracker* tracker, int steps,
                                  bool single_tuple) {
  // IFP work (parse, plan, per-step dispatch over the Y-net) is serialized
  // ahead of AMP execution; modelled as scheduler time.
  const double overhead = single_tuple
                              ? config_.single_step_overhead_sec
                              : steps * config_.step_overhead_sec;
  tracker->BeginPhase("ifp_dispatch", sim::PhaseKind::kSequential);
  tracker->ChargeSerialSec(config_.ifp_node(), overhead);
  tracker->ChargeControlMessage(config_.host_node(), config_.ifp_node(),
                                /*blocking=*/true);
  tracker->EndPhase();
}

int TeradataMachine::AmpForKey(int32_t key) const {
  return static_cast<int>(HashInt32(key, placement_salt_) %
                          static_cast<uint64_t>(config_.num_amps));
}

std::string TeradataMachine::FreshResultName() {
  return "td_result_" + std::to_string(next_result_id_++);
}

Status TeradataMachine::CreateRelation(const std::string& name,
                                       catalog::Schema schema,
                                       int primary_key_attr) {
  if (catalog_.Contains(name)) {
    return Status::AlreadyExists("relation " + name);
  }
  if (primary_key_attr < 0 ||
      static_cast<size_t>(primary_key_attr) >= schema.num_attrs()) {
    return Status::InvalidArgument("primary key attribute out of range");
  }
  RelationMeta meta;
  meta.name = name;
  meta.schema = std::move(schema);
  meta.partitioning = catalog::PartitionSpec::Hashed(primary_key_attr);
  meta.partitioning.hash_salt = placement_salt_;
  for (int i = 0; i < config_.num_amps; ++i) {
    meta.per_node_file.push_back(amps_[static_cast<size_t>(i)]->CreateFile());
  }
  GAMMA_RETURN_NOT_OK(catalog_.Register(std::move(meta)));
  RelationState state;
  state.pk_attr = primary_key_attr;
  state.key_dir.resize(static_cast<size_t>(config_.num_amps));
  states_.emplace(name, std::move(state));
  return Status::OK();
}

Status TeradataMachine::RunAmpTasks(sim::CostTracker* tracker,
                                    std::vector<exec::NodeTask> tasks) {
  return exec::NodeExecutor(amps_, config_.hw, config_.tracker_nodes())
      .Run(tracker, std::move(tasks),
           exec::NodeExecutor::Merge::kContinueOwner);
}

Status TeradataMachine::LoadTuples(
    const std::string& name, const std::vector<std::vector<uint8_t>>& tuples) {
  GAMMA_ASSIGN_OR_RETURN(RelationMeta * meta, catalog_.Get(name));
  RelationState& state = states_.at(name);
  const auto num_amps = static_cast<size_t>(config_.num_amps);
  // Route each tuple to its AMP by its placement hash, computed once; each
  // AMP then stores its fragment in hash-key order (the hash value, then a
  // sequence number, forms the tuple id, §3). Ties keep input order.
  struct Keyed {
    uint64_t hash;
    size_t index;
    bool operator<(const Keyed& o) const {
      return hash != o.hash ? hash < o.hash : index < o.index;
    }
  };
  std::vector<std::vector<Keyed>> per_amp(num_amps);
  for (size_t i = 0; i < tuples.size(); ++i) {
    if (tuples[i].size() != meta->schema.tuple_size()) {
      return Status::InvalidArgument("tuple size does not match schema");
    }
    const uint64_t hash =
        HashInt32(IntAttr(meta->schema, tuples[i], state.pk_attr),
                  placement_salt_);
    per_amp[hash % num_amps].push_back(Keyed{hash, i});
  }
  // One task per AMP: sort, append, fill the key directory and settle the
  // pool (loading is uncharged; measured queries start cold).
  std::vector<std::vector<std::pair<int32_t, Rid>>> appended(num_amps);
  std::vector<exec::NodeTask> tasks;
  tasks.reserve(num_amps);
  for (size_t amp = 0; amp < num_amps; ++amp) {
    tasks.push_back(exec::NodeTask{
        static_cast<int>(amp), [&, amp](sim::CostTracker&) -> Status {
          std::vector<Keyed>& bucket = per_amp[amp];
          std::sort(bucket.begin(), bucket.end());
          storage::HeapFile& fragment =
              amps_[amp]->file(meta->per_node_file[amp]);
          auto& dir = state.key_dir[amp];
          dir.reserve(dir.size() + bucket.size());
          auto& mine = appended[amp];
          mine.reserve(bucket.size());
          for (const Keyed& k : bucket) {
            const std::vector<uint8_t>& tuple = tuples[k.index];
            GAMMA_ASSIGN_OR_RETURN(const Rid rid, fragment.Append(tuple));
            const int32_t key = IntAttr(meta->schema, tuple, state.pk_attr);
            mine.emplace_back(key, rid);
            dir.emplace(key, rid);
          }
          return amps_[amp]->pool().Invalidate();
        }});
  }
  const Status status = RunAmpTasks(nullptr, std::move(tasks));
  if (!status.ok()) {
    // All-or-nothing: tombstone what this call appended and take it back out
    // of the key directory, then settle the pools.
    for (size_t amp = 0; amp < num_amps; ++amp) {
      storage::HeapFile& fragment = amps_[amp]->file(meta->per_node_file[amp]);
      auto& dir = state.key_dir[amp];
      for (const auto& [key, rid] : appended[amp]) {
        auto [begin, end] = dir.equal_range(key);
        for (auto entry = begin; entry != end; ++entry) {
          if (entry->second == rid) {
            dir.erase(entry);
            break;
          }
        }
        fragment.Delete(rid);
      }
      amps_[amp]->pool().Invalidate();
    }
    return status;
  }
  meta->num_tuples += tuples.size();
  return Status::OK();
}

Status TeradataMachine::BuildSecondaryIndex(const std::string& name,
                                            int attr) {
  GAMMA_ASSIGN_OR_RETURN(RelationMeta * meta, catalog_.Get(name));
  if (attr < 0 || static_cast<size_t>(attr) >= meta->schema.num_attrs()) {
    return Status::InvalidArgument("index attribute out of range");
  }
  RelationState& state = states_.at(name);
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
          auto& dir = index.dir[amp];
          dir.reserve(fragment.num_tuples());
          Status append_status;
          GAMMA_RETURN_NOT_OK(
              fragment.Scan([&](Rid rid, std::span<const uint8_t> tuple) {
                const int32_t key = IntAttr(meta->schema, tuple, attr);
                append_status =
                    index_file.Append(internal::SerializeIndexEntry(key, rid))
                        .status();
                if (!append_status.ok()) return false;
                dir.emplace(key, rid);
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
  state.indices.push_back(std::move(index));
  // Catalog-level metadata so callers can discover the index.
  catalog::IndexMeta meta_index;
  meta_index.attr = attr;
  meta_index.clustered = false;
  meta_index.per_node_index = {};
  meta->indices.push_back(std::move(meta_index));
  return Status::OK();
}

catalog::RelationMeta* TeradataMachine::MakeResultRelation(
    const std::string& requested, catalog::Schema schema,
    RelationState** state_out) {
  const std::string name = requested.empty() ? FreshResultName() : requested;
  RelationMeta meta;
  meta.name = name;
  meta.schema = std::move(schema);
  meta.partitioning = catalog::PartitionSpec::Hashed(0);
  meta.partitioning.hash_salt = placement_salt_;
  for (int i = 0; i < config_.num_amps; ++i) {
    meta.per_node_file.push_back(amps_[static_cast<size_t>(i)]->CreateFile());
  }
  GAMMA_CHECK(catalog_.Register(std::move(meta)).ok());
  RelationState state;
  state.pk_attr = 0;
  state.key_dir.resize(static_cast<size_t>(config_.num_amps));
  auto [it, inserted] = states_.emplace(name, std::move(state));
  GAMMA_CHECK(inserted);
  *state_out = &it->second;
  return *catalog_.Get(name);
}

Result<Rid> TeradataMachine::InsertWithRecovery(
    catalog::RelationMeta* meta, RelationState* state, int amp_index,
    std::span<const uint8_t> tuple) {
  storage::StorageManager& sm = *amps_[static_cast<size_t>(amp_index)];
  const auto& charge = sm.charge();
  // Full-recovery insert path: transient-journal and index-maintenance I/Os
  // plus the logging CPU ([DEWI87]; the paper's §4 cost analysis).
  for (uint32_t i = 0; i < config_.insert_recovery_ios; ++i) {
    charge.DiskWrite(config_.page_size, AccessIntent::kRandom);
  }
  charge.Cpu(config_.instr_per_insert_logging);
  GAMMA_ASSIGN_OR_RETURN(
      const Rid rid,
      sm.file(meta->per_node_file[static_cast<size_t>(amp_index)])
          .Append(tuple));
  state->key_dir[static_cast<size_t>(amp_index)].emplace(
      IntAttr(meta->schema, tuple, state->pk_attr), rid);
  for (SecondaryIndex& index : state->indices) {
    const int32_t key = IntAttr(meta->schema, tuple, index.attr);
    GAMMA_RETURN_NOT_OK(
        sm.file(index.per_amp_file[static_cast<size_t>(amp_index)])
            .Append(internal::SerializeIndexEntry(key, rid))
            .status());
    index.dir[static_cast<size_t>(amp_index)].emplace(key, rid);
  }
  meta->num_tuples += 1;
  return rid;
}

Result<QueryResult> TeradataMachine::FinalizeObs(const char* label,
                                                 Result<QueryResult> result) {
  if (result.ok()) {
    obs::FinalizeStatement(config_.trace, "teradata", label,
                           config_.hw.net.ring_bytes_per_sec, &*result);
  }
  return result;
}

Status TeradataMachine::AbandonResult(RelationMeta* result_meta,
                                      Status status) {
  BindAll(nullptr);
  if (result_meta != nullptr) {
    const std::string name = result_meta->name;
    for (size_t amp = 0; amp < amps_.size(); ++amp) {
      amps_[amp]->DropFile(result_meta->per_node_file[amp]);
    }
    GAMMA_CHECK(catalog_.Drop(name).ok());
    states_.erase(name);
  }
  return status;
}

Result<QueryResult> TeradataMachine::RunSelect(const TdSelectQuery& query) {
  GAMMA_ASSIGN_OR_RETURN(RelationMeta * meta, catalog_.Get(query.relation));
  RelationState& state = states_.at(query.relation);
  const Predicate& pred = query.predicate;

  sim::CostTracker tracker(config_.hw, config_.tracker_nodes());
  BindAll(&tracker);
  QueryResult result;

  const bool exact_pk = pred.is_eq() && pred.attr() == state.pk_attr;
  ChargeSteps(&tracker, query.store_result ? 2 : 1, exact_pk);

  RelationMeta* result_meta = nullptr;
  RelationState* result_state = nullptr;
  if (query.store_result) {
    result_meta =
        MakeResultRelation(query.result_name, meta->schema, &result_state);
    result.result_relation = result_meta->name;
  }

  // Result tuples are re-hashed on the result's primary key; the low-level
  // software never short-circuits this (§4). The first failed store is
  // kept and fails the select once its split closes.
  Status store_status;
  auto make_store_split = [&](int src, const Schema* schema,
                              int pk_attr) {
    std::vector<SplitTable::Destination> dests;
    for (int amp = 0; amp < config_.num_amps; ++amp) {
      dests.push_back(SplitTable::Destination{
          amp, [this, result_meta, result_state, amp,
                &store_status](std::span<const uint8_t> t) {
            auto rid = InsertWithRecovery(result_meta, result_state, amp, t);
            if (!rid.ok() && store_status.ok()) store_status = rid.status();
          }});
    }
    auto split = std::make_unique<SplitTable>(
        src, schema,
        exec::RouteSpec::HashAttr(pk_attr, placement_salt_),
        std::move(dests), &tracker);
    split->set_force_network(true);
    return split;
  };

  // Every step may fail on a storage error; a failed select drops its
  // partial result.
  auto run_steps = [&]() -> Status {
    if (exact_pk) {
      tracker.BeginPhase("point_select", sim::PhaseKind::kSequential);
      const int amp_index = AmpForKey(pred.lo());
      storage::StorageManager& sm = *amps_[static_cast<size_t>(amp_index)];
      auto [begin, end] =
          state.key_dir[static_cast<size_t>(amp_index)].equal_range(pred.lo());
      for (auto it = begin; it != end; ++it) {
        GAMMA_ASSIGN_OR_RETURN(
            const std::vector<uint8_t> tuple,
            sm.file(meta->per_node_file[static_cast<size_t>(amp_index)])
                .Fetch(it->second, AccessIntent::kRandom));
        sm.charge().Cpu(config_.hw.cost.instr_per_tuple_scan +
                        config_.hw.cost.instr_per_attr_compare);
        if (query.store_result) {
          const int home = AmpForKey(IntAttr(meta->schema, tuple, 0));
          tracker.ChargeDataPacket(amp_index, home, tuple.size(),
                                   /*force_network=*/true);
          GAMMA_RETURN_NOT_OK(
              InsertWithRecovery(result_meta, result_state, home, tuple)
                  .status());
        } else {
          tracker.ChargeDataPacket(amp_index, config_.host_node(),
                                   tuple.size());
          result.returned.push_back(tuple);
        }
      }
      GAMMA_RETURN_NOT_OK(FlushAllPools());
      tracker.EndPhase();
      return Status::OK();
    }
    // Pick the access path: a dense secondary index helps only at low
    // selectivity, and even then the whole index must be scanned (§3,
    // §5.1).
    const SecondaryIndex* index = nullptr;
    if (query.allow_index && !pred.is_true()) {
      for (const SecondaryIndex& candidate : state.indices) {
        if (candidate.attr == pred.attr()) index = &candidate;
      }
      const double span = static_cast<double>(pred.hi()) - pred.lo() + 1;
      const double selectivity =
          span /
          std::max<double>(1.0, static_cast<double>(meta->num_tuples));
      if (selectivity > kIndexThreshold) index = nullptr;
    }

    // AMP software serializes its disk, CPU and Y-net work (single 80286).
    tracker.BeginPhase("scan_select", sim::PhaseKind::kSequential);
    for (int amp_index = 0; amp_index < config_.num_amps; ++amp_index) {
      storage::StorageManager& sm = *amps_[static_cast<size_t>(amp_index)];
      std::unique_ptr<SplitTable> split;
      exec::TupleSink emit;
      if (query.store_result) {
        split = make_store_split(amp_index, &meta->schema, 0);
        emit = [&split](std::span<const uint8_t> t) { split->Send(t); };
      } else {
        emit = [&](std::span<const uint8_t> t) {
          tracker.ChargeDataPacket(amp_index, config_.host_node(), t.size());
          result.returned.emplace_back(t.begin(), t.end());
        };
      }

      storage::HeapFile& fragment =
          sm.file(meta->per_node_file[static_cast<size_t>(amp_index)]);
      if (index != nullptr) {
        // Scan the *entire* index (hash order, not key order), then fetch
        // each qualifying tuple with a random access.
        std::vector<Rid> rids;
        GAMMA_RETURN_NOT_OK(
            sm.file(index->per_amp_file[static_cast<size_t>(amp_index)])
                .Scan([&](Rid, std::span<const uint8_t> bytes) {
                  const internal::IndexEntry entry =
                      internal::DeserializeIndexEntry(bytes);
                  sm.charge().Cpu(config_.hw.cost.instr_per_tuple_scan +
                                  pred.compare_count() *
                                      config_.hw.cost.instr_per_attr_compare);
                  if (entry.key >= pred.lo() && entry.key <= pred.hi()) {
                    rids.push_back(Rid{entry.page_index, entry.slot});
                  }
                  return true;
                }));
        for (const Rid rid : rids) {
          GAMMA_ASSIGN_OR_RETURN(const std::vector<uint8_t> tuple,
                                 fragment.Fetch(rid, AccessIntent::kRandom));
          sm.charge().Cpu(config_.hw.cost.instr_per_tuple_scan);
          emit(tuple);
        }
      } else {
        GAMMA_RETURN_NOT_OK(
            exec::SelectScan(fragment, meta->schema, pred, sm.charge(), emit)
                .status());
      }
      if (split != nullptr) split->Close();
      GAMMA_RETURN_NOT_OK(store_status);
    }
    GAMMA_RETURN_NOT_OK(FlushAllPools());
    tracker.EndPhase();
    return Status::OK();
  };
  const Status status = run_steps();
  if (!status.ok()) return AbandonResult(result_meta, status);

  if (query.store_result) {
    result.result_tuples = result_meta->num_tuples;
  } else {
    result.result_tuples = result.returned.size();
  }
  BindAll(nullptr);
  result.metrics = tracker.Finish();
  return FinalizeObs("select", std::move(result));
}

Result<QueryResult> TeradataMachine::RunJoin(const TdJoinQuery& query) {
  GAMMA_ASSIGN_OR_RETURN(RelationMeta * outer, catalog_.Get(query.outer));
  GAMMA_ASSIGN_OR_RETURN(RelationMeta * inner, catalog_.Get(query.inner));
  if (query.outer_attr < 0 ||
      static_cast<size_t>(query.outer_attr) >= outer->schema.num_attrs() ||
      query.inner_attr < 0 ||
      static_cast<size_t>(query.inner_attr) >= inner->schema.num_attrs()) {
    return Status::InvalidArgument("join attribute out of range");
  }

  sim::CostTracker tracker(config_.hw, config_.tracker_nodes());
  BindAll(&tracker);
  QueryResult result;
  // Joining on both primary keys: every tuple already lives at its join AMP
  // *and* every fragment is already in hash-key order on the join attribute,
  // so the redistribution and sort steps are skipped — the §6.1
  // "substantial performance improvement" for key-attribute joins.
  const bool key_join =
      query.outer_attr == states_.at(query.outer).pk_attr &&
      query.inner_attr == states_.at(query.inner).pk_attr;
  const int steps = (key_join ? 1 : 3) + (query.store_result ? 1 : 0);
  ChargeSteps(&tracker, steps, /*single_tuple=*/false);

  const Schema result_schema = Schema::Concat(inner->schema, outer->schema);
  RelationMeta* result_meta = nullptr;
  RelationState* result_state = nullptr;
  if (query.store_result) {
    result_meta =
        MakeResultRelation(query.result_name, result_schema, &result_state);
    result.result_relation = result_meta->name;
  }

  // --- Redistribution: both inputs hashed on the join attribute into
  // per-AMP spool files (skipped entirely for key-attribute joins). ---
  const auto num_amps = static_cast<size_t>(config_.num_amps);
  std::vector<storage::FileId> outer_spool(num_amps, catalog::kNoFile);
  std::vector<storage::FileId> inner_spool(num_amps, catalog::kNoFile);
  std::vector<storage::FileId> outer_sorted(num_amps, catalog::kNoFile);
  std::vector<storage::FileId> inner_sorted(num_amps, catalog::kNoFile);
  if (!key_join) {
    for (size_t amp = 0; amp < num_amps; ++amp) {
      outer_spool[amp] = amps_[amp]->CreateFile();
      inner_spool[amp] = amps_[amp]->CreateFile();
    }
  }

  // Teradata deliberately does NOT adopt the skew-aware kBucketMap route:
  // the Ynet's hardware hashes tuples to AMPs with the fixed placement
  // function (§4) — there is no per-query software split table that could
  // carry a bucket->AMP map, and result rows always pay the network path.
  auto redistribute = [&](RelationMeta* meta, const Predicate& pred,
                          int join_attr,
                          const std::vector<storage::FileId>& spools,
                          const char* phase) -> Status {
    tracker.BeginPhase(phase, sim::PhaseKind::kSequential);
    Status spool_status;  // first failed spool append
    for (int src = 0; src < config_.num_amps; ++src) {
      storage::StorageManager& sm = *amps_[static_cast<size_t>(src)];
      std::vector<SplitTable::Destination> dests;
      for (int dst = 0; dst < config_.num_amps; ++dst) {
        storage::HeapFile& spool =
            amps_[static_cast<size_t>(dst)]->file(
                spools[static_cast<size_t>(dst)]);
        dests.push_back(SplitTable::Destination{
            dst,
            [&spool, &spool_status, this, dst](std::span<const uint8_t> t) {
              // Arriving tuples are inserted into a temporary file kept in
              // hash-key order (§6): the full tuple-insert path runs.
              amps_[static_cast<size_t>(dst)]->charge().Cpu(
                  config_.instr_per_spool_tuple);
              const auto rid = spool.Append(t);
              if (!rid.ok() && spool_status.ok()) {
                spool_status = rid.status();
              }
            }});
      }
      SplitTable split(src, &meta->schema,
                       exec::RouteSpec::HashAttr(join_attr, placement_salt_),
                       std::move(dests), &tracker);
      GAMMA_RETURN_NOT_OK(
          exec::SelectScan(
              sm.file(meta->per_node_file[static_cast<size_t>(src)]),
              meta->schema, pred, sm.charge(),
              [&split](std::span<const uint8_t> t) { split.Send(t); })
              .status());
      split.Close();
      GAMMA_RETURN_NOT_OK(spool_status);
    }
    GAMMA_RETURN_NOT_OK(FlushAllPools());
    tracker.EndPhase();
    return Status::OK();
  };

  // Every step below may fail on a storage error. The temporary files are
  // dropped either way; a failed join also drops its partial result.
  auto run_steps = [&]() -> Status {
    if (!key_join) {
      GAMMA_RETURN_NOT_OK(redistribute(inner, query.inner_pred,
                                       query.inner_attr, inner_spool,
                                       "redistribute_inner"));
      GAMMA_RETURN_NOT_OK(redistribute(outer, query.outer_pred,
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
                  sm, inner_spool[amp], inner->schema, query.inner_attr,
                  config_.sort_memory_bytes, &sort_status);
              GAMMA_RETURN_NOT_OK(sort_status);
              outer_sorted[amp] = exec::ExternalSort(
                  sm, outer_spool[amp], outer->schema, query.outer_attr,
                  config_.sort_memory_bytes, &sort_status);
              GAMMA_RETURN_NOT_OK(sort_status);
              return sm.pool().FlushAll();
            }});
      }
      GAMMA_RETURN_NOT_OK(RunAmpTasks(&tracker, std::move(sorts)));
      tracker.EndPhase();
    }

    // --- Merge join at every AMP; results re-hashed on the result key and
    // inserted with full recovery. The first failed store fails the join
    // once its split closes. ---
    tracker.BeginPhase("merge_store", sim::PhaseKind::kSequential);
    Status store_status;
    for (int amp = 0; amp < config_.num_amps; ++amp) {
      storage::StorageManager& sm = *amps_[static_cast<size_t>(amp)];
      std::unique_ptr<SplitTable> split;
      exec::TupleSink emit;
      if (query.store_result) {
        std::vector<SplitTable::Destination> dests;
        for (int dst = 0; dst < config_.num_amps; ++dst) {
          dests.push_back(SplitTable::Destination{
              dst, [this, result_meta, result_state, dst, &query,
                    &store_status](std::span<const uint8_t> t) {
                Status st;
                if (query.result_is_temp) {
                  // Intermediate spool: the sorted-temp insert path,
                  // without the transient-journal recovery I/Os.
                  storage::StorageManager& dst_sm =
                      *amps_[static_cast<size_t>(dst)];
                  dst_sm.charge().Cpu(config_.instr_per_spool_tuple);
                  auto rid = dst_sm
                                 .file(result_meta->per_node_file
                                           [static_cast<size_t>(dst)])
                                 .Append(t);
                  if (rid.ok()) {
                    result_state->key_dir[static_cast<size_t>(dst)].emplace(
                        IntAttr(result_meta->schema, t,
                                result_state->pk_attr),
                        *rid);
                    result_meta->num_tuples += 1;
                  } else {
                    st = rid.status();
                  }
                } else {
                  st = InsertWithRecovery(result_meta, result_state, dst, t)
                           .status();
                }
                if (!st.ok() && store_status.ok()) store_status = st;
              }});
        }
        split = std::make_unique<SplitTable>(
            amp, &result_schema,
            exec::RouteSpec::HashAttr(0, placement_salt_), std::move(dests),
            &tracker);
        split->set_force_network(true);
        emit = [&split](std::span<const uint8_t> t) { split->Send(t); };
      } else {
        emit = [&, amp](std::span<const uint8_t> t) {
          tracker.ChargeDataPacket(amp, config_.host_node(), t.size());
          result.returned.emplace_back(t.begin(), t.end());
        };
      }
      if (key_join) {
        GAMMA_ASSIGN_OR_RETURN(
            const auto lhs,
            LoadHashOrdered(
                sm.file(inner->per_node_file[static_cast<size_t>(amp)]),
                inner->schema, query.inner_attr, query.inner_pred,
                placement_salt_, sm.charge()));
        GAMMA_ASSIGN_OR_RETURN(
            const auto rhs,
            LoadHashOrdered(
                sm.file(outer->per_node_file[static_cast<size_t>(amp)]),
                outer->schema, query.outer_attr, query.outer_pred,
                placement_salt_, sm.charge()));
        HashOrderMergeJoin(lhs, rhs, sm.charge(), emit);
      } else {
        GAMMA_RETURN_NOT_OK(
            exec::SortMergeJoin(
                sm.file(inner_sorted[static_cast<size_t>(amp)]),
                inner->schema, query.inner_attr,
                sm.file(outer_sorted[static_cast<size_t>(amp)]),
                outer->schema, query.outer_attr, sm.charge(), emit)
                .status);
      }
      if (split != nullptr) split->Close();
      GAMMA_RETURN_NOT_OK(store_status);
    }
    GAMMA_RETURN_NOT_OK(FlushAllPools());
    tracker.EndPhase();
    return Status::OK();
  };
  const Status status = run_steps();
  for (size_t amp = 0; amp < num_amps; ++amp) {
    for (storage::FileId id : {inner_spool[amp], outer_spool[amp],
                               inner_sorted[amp], outer_sorted[amp]}) {
      if (id != catalog::kNoFile) amps_[amp]->DropFile(id);
    }
  }
  if (!status.ok()) return AbandonResult(result_meta, status);

  if (query.store_result) {
    result.result_tuples = result_meta->num_tuples;
  } else {
    result.result_tuples = result.returned.size();
  }
  BindAll(nullptr);
  result.metrics = tracker.Finish();
  return FinalizeObs("join", std::move(result));
}

}  // namespace gammadb::teradata
