#include "opt/cost_model.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "exec/skew.h"
#include "storage/page.h"

namespace gammadb::opt {

namespace {

/// Selectivity fallbacks when a relation has no attribute statistics
/// (a stored query result has none) — the System R constants.
constexpr double kFallbackEqSelectivity = 0.01;
constexpr double kFallbackRangeSelectivity = 0.10;

/// Fraction of tuples passing the single-attribute window `bounds`.
double AttrFraction(const std::pair<int32_t, int32_t>& bounds,
                    const AttrStats* as, double cardinality) {
  const double lo = bounds.first;
  const double hi = bounds.second;
  if (lo > hi) return 0;  // contradictory conjunction
  if (as == nullptr) {
    return lo == hi ? kFallbackEqSelectivity : kFallbackRangeSelectivity;
  }
  if (lo == hi) {
    return 1.0 / std::max(1.0, as->DistinctEstimate(cardinality));
  }
  const double domain = static_cast<double>(as->max) - as->min + 1;
  const double overlap =
      std::min(hi, static_cast<double>(as->max)) -
      std::max(lo, static_cast<double>(as->min)) + 1;
  if (overlap <= 0) return 0;
  return std::clamp(overlap / domain, 0.0, 1.0);
}

/// \brief One pipelined phase of the analytic replay.
///
/// Mirrors sim::CostTracker: each node accumulates disk / CPU / network
/// seconds; the phase takes as long as the slowest node's busiest resource
/// (plus any serial portion), but never less than the ring needs to carry
/// the phase's bytes.
class PhaseSim {
 public:
  PhaseSim(const gamma::GammaConfig& config, int num_nodes)
      : config_(config), loads_(static_cast<size_t>(num_nodes)) {}

  void DiskRead(int node, double pages, bool sequential) {
    DiskAccess(node, pages, sequential);
  }
  void DiskWrite(int node, double pages, bool sequential) {
    DiskAccess(node, pages, sequential);
  }
  void Cpu(int node, double instructions) {
    loads_[static_cast<size_t>(node)].cpu +=
        config_.hw.cpu.InstrSec(instructions);
  }
  /// Data-packet stream of `bytes` from `src` to `dst` (split-table path:
  /// the per-tuple copy is charged separately by the caller).
  void Packets(int src, int dst, double bytes) {
    if (bytes <= 0) return;
    const auto& net = config_.hw.net;
    const auto& cost = config_.hw.cost;
    const double packets =
        std::ceil(bytes / static_cast<double>(net.packet_payload_bytes));
    if (src == dst) {
      Cpu(src, packets * cost.instr_per_packet_shortcircuit);
      return;
    }
    Cpu(src, packets * cost.instr_per_packet_protocol);
    Cpu(dst, packets * cost.instr_per_packet_protocol);
    const double wire = bytes / net.nic_bytes_per_sec;
    loads_[static_cast<size_t>(src)].net += wire;
    loads_[static_cast<size_t>(dst)].net += wire;
    ring_bytes_ += bytes;
  }
  /// Non-blocking control message (split-table close, completion reports).
  void ControlMessage(int src, int dst) {
    const auto& cost = config_.hw.cost;
    if (src == dst) {
      Cpu(src, cost.instr_per_packet_shortcircuit);
      return;
    }
    const double half = config_.hw.net.control_msg_sec / 2;
    loads_[static_cast<size_t>(src)].cpu += half;
    loads_[static_cast<size_t>(dst)].cpu += half;
  }

  double Elapsed() const {
    double elapsed = 0;
    for (const Load& load : loads_) {
      elapsed = std::max(elapsed,
                         std::max(load.disk, std::max(load.cpu, load.net)));
    }
    return std::max(elapsed,
                    ring_bytes_ / config_.hw.net.ring_bytes_per_sec);
  }

 private:
  struct Load {
    double disk = 0;
    double cpu = 0;
    double net = 0;
  };

  void DiskAccess(int node, double pages, bool sequential) {
    if (pages <= 0) return;
    Load& load = loads_[static_cast<size_t>(node)];
    load.disk +=
        pages * config_.hw.disk.AccessSec(config_.page_size, sequential);
    load.cpu +=
        pages * config_.hw.cpu.InstrSec(config_.hw.cost.instr_per_page_io);
  }

  const gamma::GammaConfig& config_;
  std::vector<Load> loads_;
  double ring_bytes_ = 0;
};

/// Estimated B-tree height for `entries` keys (fanout from the page size;
/// entries are key + rid + slot overhead, ~16 bytes).
double IndexHeight(double entries, uint32_t page_size) {
  const double fanout = std::max(2.0, page_size / 16.0);
  if (entries <= 1) return 1;
  return std::max(1.0, std::ceil(std::log(entries) / std::log(fanout)));
}

/// Fraction of tuples a split table delivers on-node (short-circuited), for
/// one input side of a join. `aligned` = the split table reuses the load
/// salt AND this relation is hash-declustered on its join attribute, so a
/// tuple's join destination is a function of its home node.
double ShortCircuitFraction(gamma::JoinMode mode, bool aligned,
                            int join_sites) {
  switch (mode) {
    case gamma::JoinMode::kLocal:
      return aligned ? 1.0 : 1.0 / std::max(1, join_sites);
    case gamma::JoinMode::kAllnodes:
      // Reused salt: dest = H % 2n, home = H % n — equal with prob 1/2.
      return aligned ? 0.5 : 1.0 / std::max(1, join_sites);
    case gamma::JoinMode::kRemote:
      return 0;
  }
  return 0;
}

}  // namespace

double EstimateSelectivity(const exec::Predicate& pred,
                           const RelationStats* stats,
                           const catalog::RelationMeta& meta) {
  if (pred.is_true()) return 1;
  const auto cardinality = static_cast<double>(meta.num_tuples);
  double selectivity = 1;
  for (size_t a = 0; a < meta.schema.num_attrs(); ++a) {
    const auto bounds = pred.BoundsOn(static_cast<int>(a));
    if (!bounds.has_value()) continue;
    const AttrStats* as =
        stats != nullptr ? stats->Attr(static_cast<int>(a)) : nullptr;
    selectivity *= AttrFraction(*bounds, as, cardinality);
  }
  return std::clamp(selectivity, 0.0, 1.0);
}

double CostModel::TuplesPerPage(uint32_t tuple_size) const {
  return std::max(1.0, static_cast<double>(storage::SlottedPage::Capacity(
                           config_.page_size, tuple_size)));
}

int CostModel::ParticipatingSites(const catalog::RelationMeta& meta,
                                  const RelationStats* stats,
                                  const exec::Predicate& pred) const {
  const int n = config_.num_disk_nodes;
  const catalog::PartitionSpec& spec = meta.partitioning;
  const auto bounds = pred.BoundsOn(spec.key_attr);
  if (!bounds.has_value()) return n;
  if (spec.strategy == catalog::PartitionStrategy::kHashed) {
    return bounds->first == bounds->second ? 1 : n;
  }
  if (spec.strategy == catalog::PartitionStrategy::kRange) {
    const AttrStats* as =
        stats != nullptr ? stats->Attr(spec.key_attr) : nullptr;
    const double fraction =
        AttrFraction(*bounds, as, static_cast<double>(meta.num_tuples));
    return std::clamp(static_cast<int>(std::ceil(fraction * n)), 1, n);
  }
  return n;
}

SelectEstimate CostModel::EstimateSelect(const catalog::RelationMeta& meta,
                                         const RelationStats* stats,
                                         const exec::Predicate& pred,
                                         const SelectPlanSpec& plan) const {
  SelectEstimate est;
  const catalog::Schema& schema = meta.schema;
  const auto cardinality = static_cast<double>(meta.num_tuples);
  est.selectivity = EstimateSelectivity(pred, stats, meta);
  est.output_tuples = est.selectivity * cardinality;

  const int n = config_.num_disk_nodes;
  const int sites = ParticipatingSites(meta, stats, pred);
  est.participating_sites = sites;
  const double tpp = TuplesPerPage(schema.tuple_size());
  const double frag_tuples = cardinality / std::max(1, n);
  const double frag_pages = std::ceil(frag_tuples / tpp);
  const double matches_per_site = est.output_tuples / std::max(1, sites);

  const auto& cost = config_.hw.cost;
  const auto& net = config_.hw.net;
  const int scheduler = config_.num_disk_nodes + config_.num_diskless_nodes;
  const int host = scheduler + 1;
  PhaseSim phase(config_, host + 1);

  // Store destinations: the single source for a one-site selection, all
  // disk nodes otherwise; the host when the result is returned instead.
  const int stores = plan.store_result ? (sites == 1 ? 1 : n) : 1;

  for (int s = 0; s < sites; ++s) {
    double examined = 0;
    switch (plan.path) {
      case gamma::AccessPath::kAuto:
      case gamma::AccessPath::kFileScan: {
        phase.DiskRead(s, frag_pages, /*sequential=*/true);
        examined = frag_tuples;
        break;
      }
      case gamma::AccessPath::kClusteredIndex: {
        const double height = IndexHeight(frag_tuples, config_.page_size);
        phase.DiskRead(s, height, /*sequential=*/false);
        phase.Cpu(s, height * cost.instr_per_btree_level);
        phase.DiskRead(s, std::ceil(matches_per_site / tpp),
                       /*sequential=*/true);
        examined = matches_per_site;
        break;
      }
      case gamma::AccessPath::kNonClusteredIndex: {
        const double height = IndexHeight(frag_tuples, config_.page_size);
        phase.DiskRead(s, height, /*sequential=*/false);
        phase.Cpu(s, height * cost.instr_per_btree_level);
        // Leaf walk over the qualifying entries (dense keyed leaves).
        const double leaf_cap = std::max(2.0, config_.page_size / 16.0);
        phase.DiskRead(s, std::ceil(matches_per_site / leaf_cap),
                       /*sequential=*/true);
        // Each qualifying rid is a random data-page fetch; the small
        // buffer pool means almost every fetch misses.
        const double pool_pages = static_cast<double>(
            config_.buffer_pool_bytes / config_.page_size);
        const double hit =
            frag_pages > 0 ? std::min(1.0, pool_pages / frag_pages) : 1.0;
        phase.DiskRead(s, matches_per_site * (1.0 - hit),
                       /*sequential=*/false);
        phase.Cpu(s, matches_per_site * hit * cost.instr_per_page_hit);
        examined = matches_per_site;
        break;
      }
    }
    phase.Cpu(s, examined * (cost.instr_per_tuple_scan +
                             pred.compare_count() * cost.instr_per_attr_compare));

    // Split the matches to the destinations (round-robin — no hash CPU).
    if (plan.store_result) {
      const double per_dest = matches_per_site / stores;
      for (int d = 0; d < stores; ++d) {
        const int dest = sites == 1 ? s : d;
        if (dest == s) {
          phase.Cpu(s, per_dest * cost.instr_per_tuple_local_handoff);
        } else {
          phase.Cpu(s, per_dest * cost.instr_per_tuple_copy);
          phase.Packets(s, dest, per_dest * schema.tuple_size());
        }
        phase.ControlMessage(s, dest);  // split-table close
      }
    } else {
      phase.Cpu(s, matches_per_site * cost.instr_per_tuple_copy);
      phase.Packets(s, host, matches_per_site * schema.tuple_size());
      phase.ControlMessage(s, host);
    }
    phase.ControlMessage(s, scheduler);  // operator-complete report
  }

  if (plan.store_result) {
    const double per_store = est.output_tuples / stores;
    for (int d = 0; d < stores; ++d) {
      const int dest = sites == 1 ? 0 : d;
      phase.Cpu(dest, per_store * cost.instr_per_tuple_store);
      phase.DiskWrite(dest, std::ceil(per_store / tpp), /*sequential=*/true);
    }
  }

  const double sched_msgs =
      static_cast<double>(sites + stores) * net.sched_msgs_per_operator_per_node;
  est.seconds = gamma::kHostSetupSec + sched_msgs * net.control_msg_sec +
                phase.Elapsed();
  return est;
}

JoinEstimate CostModel::EstimateJoin(
    const catalog::RelationMeta& outer, const RelationStats* outer_stats,
    const exec::Predicate& outer_pred, int outer_attr,
    const catalog::RelationMeta& inner, const RelationStats* inner_stats,
    const exec::Predicate& inner_pred, int inner_attr,
    const JoinPlanSpec& plan) const {
  JoinEstimate est;
  const int n = config_.num_disk_nodes;
  const int diskless = config_.num_diskless_nodes;
  const auto& cost = config_.hw.cost;
  const auto& net = config_.hw.net;
  const int scheduler = n + diskless;
  const int num_nodes = scheduler + 2;  // + scheduler + host

  // Join-site set per §6.
  std::vector<int> join_sites;
  switch (plan.mode) {
    case gamma::JoinMode::kLocal:
      for (int i = 0; i < n; ++i) join_sites.push_back(i);
      break;
    case gamma::JoinMode::kRemote:
      for (int i = 0; i < diskless; ++i) join_sites.push_back(n + i);
      if (join_sites.empty()) join_sites.push_back(0);  // degenerate config
      break;
    case gamma::JoinMode::kAllnodes:
      for (int i = 0; i < n + diskless; ++i) join_sites.push_back(i);
      break;
  }
  const int num_sites = static_cast<int>(join_sites.size());

  const auto outer_card = static_cast<double>(outer.num_tuples);
  const auto inner_card = static_cast<double>(inner.num_tuples);
  const double outer_sel = EstimateSelectivity(outer_pred, outer_stats, outer);
  const double inner_sel = EstimateSelectivity(inner_pred, inner_stats, inner);
  est.probe_tuples = outer_sel * outer_card;
  est.build_tuples = inner_sel * inner_card;

  // Equijoin output: |B||P| / max(d_B, d_P) with the distinct counts capped
  // by the post-selection input sizes.
  auto distinct_of = [](const RelationStats* stats, int attr, double card,
                        double input) {
    const AttrStats* as = stats != nullptr ? stats->Attr(attr) : nullptr;
    if (as == nullptr) return std::max(1.0, input);
    return std::clamp(as->DistinctEstimate(card), 1.0, std::max(1.0, input));
  };
  const double d_build =
      distinct_of(inner_stats, inner_attr, inner_card, est.build_tuples);
  const double d_probe =
      distinct_of(outer_stats, outer_attr, outer_card, est.probe_tuples);
  est.output_tuples = est.build_tuples * est.probe_tuples /
                      std::max(1.0, std::max(d_build, d_probe));

  // Split-table alignment: the machine reuses the load salt when either
  // input is hash-declustered on its join attribute, making that side's
  // routing a function of its home node.
  auto hashed_on = [](const catalog::RelationMeta& meta, int attr) {
    return meta.partitioning.strategy == catalog::PartitionStrategy::kHashed &&
           meta.partitioning.key_attr == attr;
  };
  const bool salt_reuse =
      hashed_on(inner, inner_attr) || hashed_on(outer, outer_attr);
  const double sc_build = ShortCircuitFraction(
      plan.mode, salt_reuse && hashed_on(inner, inner_attr), num_sites);
  const double sc_probe = ShortCircuitFraction(
      plan.mode, salt_reuse && hashed_on(outer, outer_attr), num_sites);

  const double tpp_inner = TuplesPerPage(inner.schema.tuple_size());
  const double tpp_outer = TuplesPerPage(outer.schema.tuple_size());
  const catalog::Schema result_schema =
      catalog::Schema::Concat(inner.schema, outer.schema);
  const double tpp_result = TuplesPerPage(result_schema.tuple_size());

  // Memory: does a site's share of the building side fit its hash table?
  const double site_capacity =
      static_cast<double>(config_.join_memory_total) / num_sites;
  const double build_bytes_site =
      est.build_tuples / num_sites * (inner.schema.tuple_size() + 16.0);
  const double resident =
      build_bytes_site > 0
          ? std::min(1.0, site_capacity / build_bytes_site)
          : 1.0;
  est.overflow = resident < 1.0 &&
                 plan.algorithm != gamma::JoinAlgorithm::kSortMerge;

  const bool sort_merge = plan.algorithm == gamma::JoinAlgorithm::kSortMerge;
  double total = 0;

  // One streaming phase per input: scan at the disk nodes, split to the
  // join sites, build (or spool) there.
  struct Side {
    const catalog::RelationMeta* meta;
    const exec::Predicate* pred;
    double input;     // tuples scanned per the whole relation
    double emitted;   // tuples reaching the join sites
    double tpp;
    double sc;        // short-circuit fraction
    double site_cpu_instr;  // per arriving tuple at the join site
  };
  const Side sides[2] = {
      {&inner, &inner_pred, inner_card, est.build_tuples, tpp_inner, sc_build,
       sort_merge ? cost.instr_per_tuple_copy : cost.instr_per_tuple_build},
      {&outer, &outer_pred, outer_card, est.probe_tuples, tpp_outer, sc_probe,
       sort_merge ? cost.instr_per_tuple_copy : cost.instr_per_tuple_probe},
  };

  for (int side_ix = 0; side_ix < 2; ++side_ix) {
    const Side& side = sides[side_ix];
    PhaseSim phase(config_, num_nodes);
    const double frag_tuples = side.input / std::max(1, n);
    const double frag_pages = std::ceil(frag_tuples / side.tpp);
    const double emitted_site = side.emitted / std::max(1, n);
    const uint32_t tuple_size = side.meta->schema.tuple_size();
    for (int s = 0; s < n; ++s) {
      phase.DiskRead(s, frag_pages, /*sequential=*/true);
      phase.Cpu(s, frag_tuples *
                       (cost.instr_per_tuple_scan +
                        side.pred->compare_count() * cost.instr_per_attr_compare));
      // Hash split to the join sites.
      phase.Cpu(s, emitted_site * cost.instr_per_tuple_hash);
      phase.Cpu(s, emitted_site * side.sc * cost.instr_per_tuple_local_handoff);
      phase.Cpu(s, emitted_site * (1 - side.sc) * cost.instr_per_tuple_copy);
      const double remote_bytes = emitted_site * (1 - side.sc) * tuple_size;
      for (int j = 0; j < num_sites; ++j) {
        const int site = join_sites[static_cast<size_t>(j)];
        if (site != s) phase.Packets(s, site, remote_bytes / num_sites);
        phase.ControlMessage(s, site);
      }
      phase.ControlMessage(s, scheduler);
    }
    // Arrival work at the join sites.
    const double arriving = side.emitted / num_sites;
    for (int j = 0; j < num_sites; ++j) {
      const int site = join_sites[static_cast<size_t>(j)];
      phase.Cpu(site, arriving * side.site_cpu_instr);
      if (sort_merge) {
        // Spool to a site-local file for the sort.
        phase.DiskWrite(site, std::ceil(arriving / side.tpp),
                        /*sequential=*/true);
      } else if (resident < 1.0) {
        // Hash joins spool the non-resident fraction while the stream is
        // still flowing: each spooled tuple is copied into a site-local
        // heap file (copy + buffer pin), and the filled pages go to disk.
        // At a site that is also a disk node this work lands on top of the
        // base-relation scan — the contention that makes Allnodes lose to
        // Remote under overflow.
        phase.Cpu(site, arriving * (1.0 - resident) *
                            (cost.instr_per_tuple_copy +
                             cost.instr_per_page_hit));
        phase.DiskWrite(site,
                        std::ceil(arriving * (1.0 - resident) / side.tpp),
                        /*sequential=*/true);
      }
      phase.ControlMessage(site, scheduler);
    }
    // The probe phase also carries the result stream to the store nodes.
    // Under overflow only the resident fraction of the matches is found
    // while the stream flows; the spooled matches emit during resolution.
    if (side_ix == 1 && !sort_merge) {
      const double emit_frac = resident < 1.0 ? resident : 1.0;
      const double out_site = est.output_tuples / num_sites * emit_frac;
      for (int j = 0; j < num_sites; ++j) {
        const int site = join_sites[static_cast<size_t>(j)];
        phase.Cpu(site, out_site * cost.instr_per_tuple_copy);  // match emit
        const double to_store = out_site / std::max(1, n);
        for (int d = 0; d < n; ++d) {
          if (d == site) {
            phase.Cpu(site, to_store * cost.instr_per_tuple_local_handoff);
          } else {
            phase.Cpu(site, to_store * cost.instr_per_tuple_copy);
            phase.Packets(site, d, to_store * result_schema.tuple_size());
          }
        }
      }
      const double per_store =
          est.output_tuples * emit_frac / std::max(1, n);
      for (int d = 0; d < n; ++d) {
        phase.Cpu(d, per_store * cost.instr_per_tuple_store);
        phase.DiskWrite(d, std::ceil(per_store / tpp_result),
                        /*sequential=*/true);
      }
    }
    const double elapsed = phase.Elapsed();
    (side_ix == 0 ? est.build_phase_sec : est.probe_phase_sec) = elapsed;
    total += elapsed;
  }

  // Overflow / sort resolution phase.
  if (sort_merge) {
    PhaseSim phase(config_, num_nodes);
    const double mem_pages =
        std::max(2.0, site_capacity / config_.page_size);
    for (int j = 0; j < num_sites; ++j) {
      const int site = join_sites[static_cast<size_t>(j)];
      for (const Side& side : sides) {
        const double tuples = side.emitted / num_sites;
        const double pages = std::ceil(tuples / side.tpp);
        // Run formation: read + write everything once.
        phase.DiskRead(site, pages, /*sequential=*/true);
        phase.DiskWrite(site, pages, /*sequential=*/true);
        phase.Cpu(site, tuples * std::log2(std::max(2.0, tuples)) *
                            cost.instr_per_sort_compare);
        const double runs = std::ceil(pages / mem_pages);
        if (runs > 1) {
          const double passes = std::ceil(std::log(runs) /
                                          std::log(std::max(2.0, mem_pages)));
          phase.DiskRead(site, passes * pages, /*sequential=*/true);
          phase.DiskWrite(site, passes * pages, /*sequential=*/true);
          phase.Cpu(site, passes * tuples * cost.instr_per_sort_compare);
        }
        // Merge-join re-reads the sorted file.
        phase.DiskRead(site, pages, /*sequential=*/true);
        phase.Cpu(site, tuples * (cost.instr_per_tuple_scan +
                                  cost.instr_per_sort_compare));
      }
      // Result stream to the stores (as in the hash probe phase).
      const double out_site = est.output_tuples / num_sites;
      const double to_store = out_site / std::max(1, n);
      for (int d = 0; d < n; ++d) {
        if (d == site) {
          phase.Cpu(site, to_store * cost.instr_per_tuple_local_handoff);
        } else {
          phase.Cpu(site, to_store * cost.instr_per_tuple_copy);
          phase.Packets(site, d, to_store * result_schema.tuple_size());
        }
      }
    }
    const double per_store = est.output_tuples / std::max(1, n);
    for (int d = 0; d < n; ++d) {
      phase.Cpu(d, per_store * cost.instr_per_tuple_store);
      phase.DiskWrite(d, std::ceil(per_store / tpp_result),
                      /*sequential=*/true);
    }
    total += phase.Elapsed();
  } else if (resident < 1.0) {
    // Spooled fraction re-processed: Hybrid writes and reads each
    // non-resident bucket once; the Simple join re-splits repeatedly
    // (geometric escalation, ~1/resident total passes over the data).
    const double spool_factor =
        plan.algorithm == gamma::JoinAlgorithm::kHybridHash
            ? 1.0 - resident
            : std::min(16.0, 1.0 / resident - 1.0);
    PhaseSim phase(config_, num_nodes);
    for (int j = 0; j < num_sites; ++j) {
      const int site = join_sites[static_cast<size_t>(j)];
      const double build_site = est.build_tuples / num_sites * spool_factor;
      const double probe_site = est.probe_tuples / num_sites * spool_factor;
      const double pages =
          std::ceil(build_site / tpp_inner) + std::ceil(probe_site / tpp_outer);
      // The initial spool writes were charged inside the streaming phases;
      // Hybrid only reads each bucket back, while the Simple join keeps
      // writing fresh spools on every redistribution round.
      if (plan.algorithm == gamma::JoinAlgorithm::kSimpleHash) {
        phase.DiskWrite(site, pages, /*sequential=*/true);
        // Each redistribution round copies the overflow into a fresh spool;
        // Hybrid paid its single spool copy back in the streaming phases.
        phase.Cpu(site,
                  (build_site + probe_site) * cost.instr_per_tuple_copy);
      }
      phase.DiskRead(site, pages, /*sequential=*/true);
      phase.Cpu(site, build_site * cost.instr_per_tuple_build +
                          probe_site * cost.instr_per_tuple_probe);
      // Matches among the spooled tuples emit here, and the result stream
      // to the store nodes runs alongside the bucket re-reads.
      const double out_res =
          est.output_tuples / num_sites * (1.0 - resident);
      phase.Cpu(site, out_res * cost.instr_per_tuple_copy);  // match emit
      const double to_store = out_res / std::max(1, n);
      for (int d = 0; d < n; ++d) {
        if (d == site) {
          phase.Cpu(site, to_store * cost.instr_per_tuple_local_handoff);
        } else {
          phase.Cpu(site, to_store * cost.instr_per_tuple_copy);
          phase.Packets(site, d, to_store * result_schema.tuple_size());
        }
      }
      if (plan.algorithm == gamma::JoinAlgorithm::kSimpleHash) {
        // Each pass re-hashes and redistributes across the sites.
        const double moved = build_site + probe_site;
        phase.Cpu(site, moved * cost.instr_per_tuple_hash);
        phase.Cpu(site, moved * cost.instr_per_tuple_copy);
        const double remote_bytes = moved * (1.0 - 1.0 / num_sites) *
                                    inner.schema.tuple_size();
        for (int k = 0; k < num_sites; ++k) {
          const int other = join_sites[static_cast<size_t>(k)];
          if (other != site) {
            phase.Packets(site, other, remote_bytes / num_sites);
          }
        }
      }
    }
    const double per_store =
        est.output_tuples * (1.0 - resident) / std::max(1, n);
    for (int d = 0; d < n; ++d) {
      phase.Cpu(d, per_store * cost.instr_per_tuple_store);
      phase.DiskWrite(d, std::ceil(per_store / tpp_result),
                      /*sequential=*/true);
    }
    total += phase.Elapsed();
  }

  // Final flush / close control messages — one small serial tail.
  total += net.control_msg_sec;

  const double sched_msgs =
      static_cast<double>(2 * n + 2 * num_sites + n) *
      net.sched_msgs_per_operator_per_node;
  est.seconds =
      gamma::kHostSetupSec + sched_msgs * net.control_msg_sec + total;
  return est;
}

double CostModel::EstimateAggregate(const catalog::RelationMeta& meta,
                                    const exec::Predicate& pred) const {
  const auto& cost = config_.hw.cost;
  const auto& net = config_.hw.net;
  const int n = config_.num_disk_nodes;
  const auto cardinality = static_cast<double>(meta.num_tuples);
  const double tpp = TuplesPerPage(meta.schema.tuple_size());
  const double frag_tuples = cardinality / std::max(1, n);
  PhaseSim phase(config_, n + 2);
  for (int s = 0; s < n; ++s) {
    phase.DiskRead(s, std::ceil(frag_tuples / tpp), /*sequential=*/true);
    phase.Cpu(s, frag_tuples *
                     (cost.instr_per_tuple_scan +
                      pred.compare_count() * cost.instr_per_attr_compare +
                      cost.instr_per_tuple_agg));
  }
  const double sched_msgs =
      static_cast<double>(2 * n) * net.sched_msgs_per_operator_per_node;
  return gamma::kHostSetupSec + sched_msgs * net.control_msg_sec +
         phase.Elapsed() + net.control_msg_sec;
}

double CostModel::EstimateSkewSample(const catalog::RelationMeta& outer,
                                     const catalog::RelationMeta& inner) const {
  const auto& cost = config_.hw.cost;
  const int n = std::max(1, config_.num_disk_nodes);
  // Node n stands in for the scheduler receiving the per-fragment reports.
  PhaseSim phase(config_, n + 1);
  auto sample_side = [&](const catalog::RelationMeta& meta) {
    const double tpp = TuplesPerPage(meta.schema.tuple_size());
    const double frag_pages =
        std::ceil(static_cast<double>(meta.num_tuples) / n / tpp);
    const double sampled =
        std::ceil(frag_pages / static_cast<double>(exec::kSkewSampleStride));
    for (int s = 0; s < n; ++s) {
      phase.DiskRead(s, sampled, /*sequential=*/true);
      phase.Cpu(s, sampled * tpp *
                       (cost.instr_per_tuple_scan + cost.instr_per_tuple_hash));
      phase.ControlMessage(s, n);
    }
  };
  sample_side(outer);
  sample_side(inner);
  return phase.Elapsed();
}

}  // namespace gammadb::opt
