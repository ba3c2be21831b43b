#include "exec/aggregate.h"

#include <algorithm>

#include "common/macros.h"

namespace gammadb::exec {

void AggState::Update(int32_t value) {
  if (count == 0) {
    min = value;
    max = value;
  } else {
    min = std::min(min, value);
    max = std::max(max, value);
  }
  count += 1;
  sum += value;
}

void AggState::Merge(const AggState& other) {
  if (other.count == 0) return;
  if (count == 0) {
    *this = other;
    return;
  }
  min = std::min(min, other.min);
  max = std::max(max, other.max);
  count += other.count;
  sum += other.sum;
}

double AggState::Final(AggFunc func) const {
  switch (func) {
    case AggFunc::kCount:
      return static_cast<double>(count);
    case AggFunc::kSum:
      return static_cast<double>(sum);
    case AggFunc::kMin:
      return count == 0 ? 0.0 : min;
    case AggFunc::kMax:
      return count == 0 ? 0.0 : max;
    case AggFunc::kAvg:
      return count == 0 ? 0.0
                        : static_cast<double>(sum) /
                              static_cast<double>(count);
  }
  return 0.0;
}

GroupedAggregator::GroupedAggregator(int group_attr, int value_attr,
                                     AggFunc func,
                                     const catalog::Schema* schema,
                                     const storage::ChargeContext* charge)
    : group_attr_(group_attr),
      value_attr_(value_attr),
      func_(func),
      schema_(schema),
      charge_(charge) {
  GAMMA_CHECK(schema != nullptr && charge != nullptr);
  GAMMA_CHECK(value_attr >= 0 &&
              static_cast<size_t>(value_attr) < schema->num_attrs());
}

void GroupedAggregator::Consume(std::span<const uint8_t> tuple) {
  const catalog::TupleView view(schema_, tuple);
  const int32_t group =
      group_attr_ < 0 ? 0 : view.GetInt(static_cast<size_t>(group_attr_));
  const int32_t value = view.GetInt(static_cast<size_t>(value_attr_));
  groups_[group].Update(value);
  if (charge_->tracker != nullptr) {
    charge_->Cpu(charge_->tracker->hw().cost.instr_per_tuple_agg);
  }
}

void GroupedAggregator::MergeGroup(int32_t group, const AggState& state) {
  groups_[group].Merge(state);
  if (charge_->tracker != nullptr) {
    charge_->Cpu(charge_->tracker->hw().cost.instr_per_tuple_agg);
  }
}

catalog::Schema GroupedAggregator::ResultSchema() {
  return catalog::Schema({{"group", catalog::AttrType::kInt32, 4},
                          {"value", catalog::AttrType::kInt32, 4}});
}

void GroupedAggregator::EmitResults(const TupleSink& emit) const {
  const catalog::Schema schema = ResultSchema();
  catalog::TupleBuilder builder(&schema);
  for (const auto& [group, state] : groups_) {
    builder.SetInt(0, group);
    builder.SetInt(1, static_cast<int32_t>(state.Final(func_)));
    emit(builder.bytes());
  }
}

}  // namespace gammadb::exec
