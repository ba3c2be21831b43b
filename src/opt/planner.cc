#include "opt/planner.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

namespace gammadb::opt {

namespace {

std::string AttrName(const catalog::Schema& schema, int attr) {
  if (attr >= 0 && static_cast<size_t>(attr) < schema.num_attrs()) {
    return schema.attr(static_cast<size_t>(attr)).name;
  }
  return "attr" + std::to_string(attr);
}

}  // namespace

std::string DescribePredicate(const exec::Predicate& pred,
                              const catalog::Schema& schema) {
  if (pred.is_true()) return "true";
  std::string out;
  for (size_t a = 0; a < schema.num_attrs(); ++a) {
    const auto bounds = pred.BoundsOn(static_cast<int>(a));
    if (!bounds.has_value()) continue;
    if (!out.empty()) out += " and ";
    const std::string name = AttrName(schema, static_cast<int>(a));
    if (bounds->first > bounds->second) {
      out += name + " in (empty)";
    } else if (bounds->first == bounds->second) {
      out += name + " = " + std::to_string(bounds->first);
    } else {
      out += name + " in [" + std::to_string(bounds->first) + ", " +
             std::to_string(bounds->second) + "]";
    }
  }
  return out.empty() ? "true" : out;
}

const char* AccessPathName(gamma::AccessPath path) {
  switch (path) {
    case gamma::AccessPath::kAuto:
      return "auto";
    case gamma::AccessPath::kFileScan:
      return "file scan";
    case gamma::AccessPath::kClusteredIndex:
      return "clustered index";
    case gamma::AccessPath::kNonClusteredIndex:
      return "non-clustered index";
  }
  return "?";
}

const char* JoinModeName(gamma::JoinMode mode) {
  switch (mode) {
    case gamma::JoinMode::kLocal:
      return "Local";
    case gamma::JoinMode::kRemote:
      return "Remote";
    case gamma::JoinMode::kAllnodes:
      return "Allnodes";
  }
  return "?";
}

const char* JoinAlgorithmName(gamma::JoinAlgorithm algorithm) {
  switch (algorithm) {
    case gamma::JoinAlgorithm::kSimpleHash:
      return "simple hash";
    case gamma::JoinAlgorithm::kHybridHash:
      return "hybrid hash";
    case gamma::JoinAlgorithm::kSortMerge:
      return "sort-merge";
  }
  return "?";
}

Result<PlannedSelect> Planner::PlanSelect(gamma::SelectQuery query) const {
  const catalog::RelationMeta* meta;
  GAMMA_ASSIGN_OR_RETURN(meta, machine_.catalog().Get(query.relation));
  const RelationStats* stats = machine_.stats().Find(query.relation);

  // Enumerate the applicable access paths.
  struct Candidate {
    SelectPlanSpec spec;
    SelectEstimate estimate;
  };
  std::vector<Candidate> candidates;
  auto consider = [&](gamma::AccessPath path, int key_attr) {
    if (query.access != gamma::AccessPath::kAuto && query.access != path) {
      return;
    }
    Candidate c;
    c.spec.path = path;
    c.spec.key_attr = key_attr;
    c.spec.store_result = query.store_result;
    c.estimate = model_.EstimateSelect(*meta, stats, query.predicate, c.spec);
    candidates.push_back(std::move(c));
  };
  consider(gamma::AccessPath::kFileScan, -1);
  for (const catalog::IndexMeta& index : meta->indices) {
    if (!query.predicate.BoundsOn(index.attr).has_value()) continue;
    consider(index.clustered ? gamma::AccessPath::kClusteredIndex
                             : gamma::AccessPath::kNonClusteredIndex,
             index.attr);
  }
  if (candidates.empty()) {
    return Status::InvalidArgument(
        "no applicable access path for the requested plan of '" +
        query.relation + "'");
  }

  size_t best = 0;
  for (size_t i = 1; i < candidates.size(); ++i) {
    if (candidates[i].estimate.seconds < candidates[best].estimate.seconds) {
      best = i;
    }
  }

  PlannedSelect planned;
  planned.query = query;
  planned.query.access = candidates[best].spec.path;
  planned.estimate = candidates[best].estimate;

  char buf[160];
  std::snprintf(buf, sizeof(buf), "select %s (%s over %d site%s)",
                query.relation.c_str(),
                AccessPathName(candidates[best].spec.path),
                planned.estimate.participating_sites,
                planned.estimate.participating_sites == 1 ? "" : "s");
  planned.plan.label = buf;
  planned.plan.details.push_back(
      "predicate: " + DescribePredicate(query.predicate, meta->schema));
  std::snprintf(buf, sizeof(buf), "selectivity: %.4f",
                planned.estimate.selectivity);
  planned.plan.details.push_back(buf);
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (i == best) continue;
    planned.plan.details.push_back(
        std::string("rejected: ") + AccessPathName(candidates[i].spec.path) +
        " (est " + FormatSeconds(candidates[i].estimate.seconds) + ")");
  }
  planned.plan.est_seconds = planned.estimate.seconds;
  planned.plan.est_tuples = planned.estimate.output_tuples;
  return planned;
}

Result<PlannedJoin> Planner::PlanJoin(gamma::JoinQuery query) const {
  const catalog::RelationMeta* outer;
  const catalog::RelationMeta* inner;
  GAMMA_ASSIGN_OR_RETURN(outer, machine_.catalog().Get(query.outer));
  GAMMA_ASSIGN_OR_RETURN(inner, machine_.catalog().Get(query.inner));
  const RelationStats* outer_stats = machine_.stats().Find(query.outer);
  const RelationStats* inner_stats = machine_.stats().Find(query.inner);
  const gamma::GammaConfig& config = machine_.config();

  struct Candidate {
    JoinPlanSpec spec;
    JoinEstimate estimate;
  };
  std::vector<Candidate> candidates;
  const gamma::JoinMode modes[] = {gamma::JoinMode::kLocal,
                                   gamma::JoinMode::kRemote,
                                   gamma::JoinMode::kAllnodes};
  // Simple first: ties (no overflow expected) resolve to Gamma's default.
  const gamma::JoinAlgorithm algorithms[] = {
      gamma::JoinAlgorithm::kSimpleHash, gamma::JoinAlgorithm::kHybridHash,
      gamma::JoinAlgorithm::kSortMerge};
  for (gamma::JoinMode mode : modes) {
    if (mode == gamma::JoinMode::kRemote && config.num_diskless_nodes == 0) {
      continue;
    }
    for (gamma::JoinAlgorithm algorithm : algorithms) {
      Candidate c;
      c.spec.mode = mode;
      c.spec.algorithm = algorithm;
      c.estimate = model_.EstimateJoin(
          *outer, outer_stats, query.outer_pred, query.outer_attr, *inner,
          inner_stats, query.inner_pred, query.inner_attr, c.spec);
      candidates.push_back(std::move(c));
    }
  }

  size_t best = 0;
  for (size_t i = 1; i < candidates.size(); ++i) {
    if (candidates[i].estimate.seconds < candidates[best].estimate.seconds) {
      best = i;
    }
  }

  PlannedJoin planned;
  planned.query = query;
  planned.query.mode = candidates[best].spec.mode;
  planned.query.algorithm = candidates[best].spec.algorithm;
  planned.estimate = candidates[best].estimate;
  planned.query.expected_build_tuples = static_cast<uint64_t>(
      std::llround(std::ceil(planned.estimate.build_tuples)));

  // Redistribution routing: the frequency sketches on both join attributes
  // predict what plain hash(attr) % sites would do to the busiest site;
  // above the documented threshold the bucket-map route pays for its
  // sampling pass. A forced routing is respected (estimates still shown).
  int join_sites = config.num_disk_nodes;
  if (planned.query.mode == gamma::JoinMode::kRemote) {
    join_sites = config.num_diskless_nodes;
  } else if (planned.query.mode == gamma::JoinMode::kAllnodes) {
    join_sites += config.num_diskless_nodes;
  }
  join_sites = std::max(1, join_sites);
  const JoinSkewPrediction skew =
      PredictJoinSkew(outer_stats, query.outer_attr, inner_stats,
                      query.inner_attr, static_cast<size_t>(join_sites));
  const double sample_sec = model_.EstimateSkewSample(*outer, *inner);
  bool bucket_map = skew.use_bucket_map;
  if (query.routing != gamma::SplitRouting::kAuto) {
    bucket_map = query.routing == gamma::SplitRouting::kBucketMap;
  }
  planned.query.routing = bucket_map ? gamma::SplitRouting::kBucketMap
                                     : gamma::SplitRouting::kHash;
  if (bucket_map) planned.estimate.seconds += sample_sec;

  char buf[200];
  std::snprintf(buf, sizeof(buf), "join %s x %s on (%s = %s) [%s, %s]",
                query.outer.c_str(), query.inner.c_str(),
                AttrName(outer->schema, query.outer_attr).c_str(),
                AttrName(inner->schema, query.inner_attr).c_str(),
                JoinAlgorithmName(planned.query.algorithm),
                JoinModeName(planned.query.mode));
  planned.plan.label = buf;
  if (planned.estimate.overflow) {
    planned.plan.details.push_back(
        "building side exceeds aggregate join memory (overflow expected)");
  }
  {
    const double mean_routed =
        (planned.estimate.build_tuples + planned.estimate.probe_tuples) /
        join_sites;
    std::snprintf(buf, sizeof(buf),
                  "routing: %s (predicted hash imbalance %.2f %s threshold "
                  "%.2f%s)",
                  bucket_map ? "bucket-map" : "hash", skew.imbalance,
                  skew.use_bucket_map ? ">" : "<=",
                  kSkewImbalanceThreshold,
                  query.routing != gamma::SplitRouting::kAuto ? ", forced"
                                                              : "");
    planned.plan.details.push_back(buf);
    std::snprintf(buf, sizeof(buf),
                  "est per-node routed tuples: hash max/mean %.0f/%.0f, "
                  "bucket-map ~%.0f",
                  mean_routed * skew.imbalance, mean_routed, mean_routed);
    planned.plan.details.push_back(buf);
    if (bucket_map) {
      planned.plan.details.push_back("est sampling cost: " +
                                     FormatSeconds(sample_sec));
    }
  }
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (i == best) continue;
    planned.plan.details.push_back(
        std::string("rejected: ") +
        JoinAlgorithmName(candidates[i].spec.algorithm) + "/" +
        JoinModeName(candidates[i].spec.mode) + " (est " +
        FormatSeconds(candidates[i].estimate.seconds) + ")");
  }
  planned.plan.est_seconds = planned.estimate.seconds;
  planned.plan.est_tuples = planned.estimate.output_tuples;

  PlanNode build_child;
  build_child.label = "build: scan " + query.inner + " (file scan)";
  build_child.details.push_back(
      "predicate: " + DescribePredicate(query.inner_pred, inner->schema));
  build_child.est_seconds = planned.estimate.build_phase_sec;
  build_child.est_tuples = planned.estimate.build_tuples;
  PlanNode probe_child;
  probe_child.label = "probe: scan " + query.outer + " (file scan)";
  probe_child.details.push_back(
      "predicate: " + DescribePredicate(query.outer_pred, outer->schema));
  probe_child.est_seconds = planned.estimate.probe_phase_sec;
  probe_child.est_tuples = planned.estimate.probe_tuples;
  planned.plan.children.push_back(std::move(build_child));
  planned.plan.children.push_back(std::move(probe_child));
  return planned;
}

Result<PlannedAggregate> Planner::PlanAggregate(
    gamma::AggregateQuery query) const {
  const catalog::RelationMeta* meta;
  GAMMA_ASSIGN_OR_RETURN(meta, machine_.catalog().Get(query.relation));
  PlannedAggregate planned;
  planned.query = query;
  planned.est_seconds = model_.EstimateAggregate(*meta, query.predicate);
  planned.plan.label =
      (query.group_attr >= 0 ? "aggregate by " +
                                   AttrName(meta->schema, query.group_attr) +
                                   " over "
                             : "scalar aggregate over ") +
      query.relation + " (file scan)";
  planned.plan.details.push_back(
      "predicate: " + DescribePredicate(query.predicate, meta->schema));
  planned.plan.est_seconds = planned.est_seconds;
  return planned;
}

}  // namespace gammadb::opt
