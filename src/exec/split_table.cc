#include "exec/split_table.h"


#include "common/hash.h"
#include "common/macros.h"

namespace gammadb::exec {

RouteSpec RouteSpec::HashAttr(int attr, uint64_t salt) {
  GAMMA_CHECK(attr >= 0);
  RouteSpec spec;
  spec.kind = Kind::kHashAttr;
  spec.attr = attr;
  spec.salt = salt;
  return spec;
}

RouteSpec RouteSpec::RoundRobin() {
  return RouteSpec{};
}

RouteSpec RouteSpec::Single(int index) {
  RouteSpec spec;
  spec.kind = Kind::kSingle;
  spec.single_index = index;
  return spec;
}

RouteSpec RouteSpec::BucketMap(int attr, uint64_t salt,
                               std::vector<int32_t> bucket_map) {
  GAMMA_CHECK(attr >= 0);
  GAMMA_CHECK(!bucket_map.empty());
  RouteSpec spec;
  spec.kind = Kind::kBucketMap;
  spec.attr = attr;
  spec.salt = salt;
  spec.bucket_map = std::move(bucket_map);
  return spec;
}

SplitTable::SplitTable(int src_node, const catalog::Schema* schema,
                       RouteSpec route, std::vector<Destination> destinations,
                       sim::CostTracker* tracker,
                       const BitVectorFilter* filter, int filter_attr)
    : src_node_(src_node),
      schema_(schema),
      route_(std::move(route)),
      destinations_(std::move(destinations)),
      tracker_(tracker),
      filter_(filter),
      filter_attr_(filter_attr),
      pending_bytes_(destinations_.size(), 0) {
  GAMMA_CHECK(!destinations_.empty());
  GAMMA_CHECK(schema != nullptr);
  if (filter_ != nullptr) GAMMA_CHECK(filter_attr_ >= 0);
  if (route_.kind == RouteSpec::Kind::kBucketMap) {
    // The map is built against a destination list the RouteSpec factory
    // never sees; validate here where both are known.
    for (const int32_t dest : route_.bucket_map) {
      GAMMA_CHECK_MSG(dest >= 0 &&
                          dest < static_cast<int32_t>(destinations_.size()),
                      "bucket map entry out of destination range");
    }
  }
}

int SplitTable::RouteTuple(std::span<const uint8_t> tuple) {
  const int n = static_cast<int>(destinations_.size());
  switch (route_.kind) {
    case RouteSpec::Kind::kHashAttr: {
      const catalog::TupleView view(schema_, tuple);
      const int32_t key = view.GetInt(static_cast<size_t>(route_.attr));
      return static_cast<int>(HashInt32(key, route_.salt) %
                              static_cast<uint64_t>(n));
    }
    case RouteSpec::Kind::kRoundRobin:
      return static_cast<int>(round_robin_next_++ %
                              static_cast<uint64_t>(n));
    case RouteSpec::Kind::kSingle:
      return route_.single_index;
    case RouteSpec::Kind::kBucketMap: {
      const catalog::TupleView view(schema_, tuple);
      const int32_t key = view.GetInt(static_cast<size_t>(route_.attr));
      const uint64_t bucket =
          HashInt32(key, route_.salt) % route_.bucket_map.size();
      return route_.bucket_map[static_cast<size_t>(bucket)];
    }
  }
  return 0;
}

bool SplitTable::KeyRouted() const {
  return route_.kind == RouteSpec::Kind::kHashAttr ||
         route_.kind == RouteSpec::Kind::kBucketMap;
}

void SplitTable::ChargeTupleBytes(int dest_index, size_t bytes) {
  if (tracker_ == nullptr) return;
  const auto& cost = tracker_->hw().cost;
  const bool local =
      destinations_[static_cast<size_t>(dest_index)].node == src_node_ &&
      !force_network_;
  // A tuple bound for the same processor is handed over in shared memory;
  // only remote-bound tuples pay the copy-into-packet path.
  tracker_->ChargeCpu(src_node_, local ? cost.instr_per_tuple_local_handoff
                                       : cost.instr_per_tuple_copy);
  uint64_t& pending = pending_bytes_[static_cast<size_t>(dest_index)];
  pending += bytes;
  const uint64_t payload = tracker_->hw().net.packet_payload_bytes;
  while (pending >= payload) {
    tracker_->ChargeDataPacket(src_node_,
                               destinations_[static_cast<size_t>(dest_index)].node,
                               payload, force_network_);
    pending -= payload;
  }
}

void SplitTable::Send(std::span<const uint8_t> tuple) {
  GAMMA_CHECK_MSG(!closed_, "Send after Close");
  if (tracker_ != nullptr && KeyRouted()) {
    // Hash and bucket-map lookup both cost one hash path.
    tracker_->ChargeCpu(src_node_, tracker_->hw().cost.instr_per_tuple_hash);
  }
  if (filter_ != nullptr) {
    if (tracker_ != nullptr) {
      tracker_->ChargeCpu(src_node_,
                          tracker_->hw().cost.instr_per_tuple_hash);
    }
    const catalog::TupleView view(schema_, tuple);
    if (!filter_->MayContain(view.GetInt(static_cast<size_t>(filter_attr_)))) {
      ++filtered_;
      return;
    }
  }
  const int dest = RouteTuple(tuple);
  ChargeTupleBytes(dest, tuple.size());
  if (tracker_ != nullptr && KeyRouted()) {
    tracker_->CountTupleRouted(destinations_[static_cast<size_t>(dest)].node);
  }
  destinations_[static_cast<size_t>(dest)].deliver(tuple);
  ++sent_;
}

void SplitTable::Close() {
  if (closed_) return;
  closed_ = true;
  if (tracker_ == nullptr) return;
  for (size_t i = 0; i < destinations_.size(); ++i) {
    if (pending_bytes_[i] > 0) {
      tracker_->ChargeDataPacket(src_node_, destinations_[i].node,
                                 pending_bytes_[i], force_network_);
      pending_bytes_[i] = 0;
    }
    // end-of-stream message to every consumer (§2).
    tracker_->ChargeControlMessage(src_node_, destinations_[i].node,
                                   /*blocking=*/false);
    if (KeyRouted()) tracker_->CountRouteStream(destinations_[i].node);
  }
}

}  // namespace gammadb::exec
