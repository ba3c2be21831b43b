#include "opt/explain.h"

#include <cinttypes>
#include <cstdio>

namespace gammadb::opt {

std::string FormatSeconds(double sec) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4f s", sec);
  return buf;
}

namespace {

void RenderNode(const PlanNode& node, int depth, std::string* out) {
  const std::string indent(static_cast<size_t>(depth) * 2, ' ');
  out->append(indent);
  out->append(node.label);
  out->push_back('\n');
  for (const std::string& detail : node.details) {
    out->append(indent);
    out->append("  ");
    out->append(detail);
    out->push_back('\n');
  }
  out->append(indent);
  out->append("  estimated: ");
  out->append(FormatSeconds(node.est_seconds));
  if (node.est_tuples >= 0) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), ", %.0f tuples", node.est_tuples);
    out->append(buf);
  }
  out->push_back('\n');
  for (const PlanNode& child : node.children) {
    RenderNode(child, depth + 1, out);
  }
}

}  // namespace

std::string RenderPlan(const PlanNode& root) {
  std::string out;
  RenderNode(root, 0, &out);
  return out;
}

std::string RenderPlanWithActuals(const PlanNode& root,
                                  const exec::QueryResult& result) {
  std::string out = RenderPlan(root);
  const sim::NodeUsage totals = result.metrics.Totals();
  char buf[224];
  std::snprintf(buf, sizeof(buf),
                "actual: %s, %" PRIu64 " tuples, %" PRIu64
                " page I/Os, %" PRIu64 " packets, %" PRIu64 " locks (%" PRIu64
                " waits)\n",
                FormatSeconds(result.seconds()).c_str(), result.result_tuples,
                totals.pages_read + totals.pages_written,
                totals.packets_sent + totals.packets_short_circuited,
                result.metrics.locks_acquired, result.metrics.lock_waits);
  out.append(buf);
  if (result.metrics.failover_retries > 0) {
    std::snprintf(buf, sizeof(buf),
                  "actual: %u failover retries (%s backoff)\n",
                  result.metrics.failover_retries,
                  FormatSeconds(result.metrics.failover_backoff_sec).c_str());
    out.append(buf);
  }
  return out;
}

}  // namespace gammadb::opt
